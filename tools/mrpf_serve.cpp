// mrpf_serve — the synthesis daemon and its one-shot client.
//
// Daemon mode (default): listen on a unix socket and/or TCP loopback,
// answer synthesis requests concurrently (coalescing equivalent in-flight
// solves onto one optimizer run), drain gracefully on SIGINT/SIGTERM and
// persist the solve cache on the way out:
//
//   mrpf_serve --unix /tmp/mrpf.sock [--tcp PORT] [--workers N]
//              [--cache FILE] [--queue-depth N] [--xform]
//
// Client mode (--client): connect, run one request, print the answer —
// the smoke-test and scripting front door:
//
//   mrpf_serve --client --unix /tmp/mrpf.sock --coeffs 7,66,17
//              --scheme mrpf [--beta 0.5] [--depth D] [--recursive N]
//              [--l-max L] [--rep sm|csd|spt] [--opt-budget N]
//              [--xform] [--xform-budget N]
//   mrpf_serve --client --tcp PORT --stats
//   mrpf_serve --client --unix /tmp/mrpf.sock --ping
//
// The client sends the whole solve spec; fields it leaves unset (budgets
// 0, --xform absent) are filled by the daemon's --xform and its startup
// MRPF_OPT_BUDGET / MRPF_XFORM_BUDGET snapshot.
//
// Environment knobs (MRPF_THREADS / MRPF_CACHE / MRPF_EXEC /
// MRPF_OPT_BUDGET / MRPF_XFORM_BUDGET) are read exactly once at daemon
// startup into the config; nothing re-reads the environment mid-run.
//
// Numeric flags are parsed whole and range-checked (common/env grammar);
// a malformed or out-of-range value is a usage error naming the flag,
// exit status 2.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "mrpf/common/error.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/serve/client.hpp"
#include "mrpf/serve/server.hpp"
#include "cli.hpp"

namespace {

using namespace mrpf;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mrpf_serve [options]\n"
               "daemon mode (default):\n"
               "  --unix PATH           listen on a unix-domain socket\n"
               "  --tcp PORT            listen on 127.0.0.1:PORT (0 = pick)\n"
               "  --workers N           request workers, 1..512 (default:\n"
               "                        knobs)\n"
               "  --queue-depth N       accept queue bound, 1..1048576\n"
               "                        (default 64)\n"
               "  --cache FILE          persistent solve-cache store\n"
               "  --xform               run the e-graph rewrite pass on\n"
               "                        every solve (MRPF_XFORM_BUDGET at\n"
               "                        startup sizes it)\n"
               "client mode:\n"
               "  --client              one-shot client (needs --unix/--tcp)\n"
               "  --coeffs c0,c1,...    bank to optimize\n"
               "  --scheme NAME         simple|cse|diff-mst|rag-n|mrpf|"
               "mrpf+cse|bnb\n"
               "  --beta B (0..1)  --depth D (0..64)  --recursive N (0..8)\n"
               "  --l-max L (-1..63, -1 = auto)  --rep sm|csd|spt\n"
               "  --opt-budget N  --xform  --xform-budget N (0 = server\n"
               "                        policy; a budget implies --xform)\n"
               "  --stats               fetch daemon counters instead\n"
               "  --ping                liveness probe instead\n");
  std::exit(2);
}

int run_client(const std::string& unix_path, int tcp_port,
               const serve::SynthRequest& request, bool do_stats,
               bool do_ping) {
  serve::ServeClient client;
  if (!unix_path.empty()) {
    client.connect_unix(unix_path);
  } else if (tcp_port > 0) {
    client.connect_tcp("127.0.0.1", tcp_port);
  } else {
    usage("--client needs --unix PATH or --tcp PORT");
  }

  if (do_ping) {
    client.ping();
    std::printf("pong\n");
    return 0;
  }
  if (do_stats) {
    const serve::StatsFrame s = client.stats();
    std::printf("connections      %llu\n"
                "requests         %llu\n"
                "synth_requests   %llu\n"
                "errors           %llu\n"
                "cache_hits       %llu\n"
                "coalesced_joins  %llu\n"
                "fresh_solves     %llu\n"
                "queue_high_water %llu\n"
                "latency_samples  %llu\n"
                "p50_us           %.1f\n"
                "p99_us           %.1f\n"
                "cache_entries    %llu\n"
                "cache_bytes      %llu\n",
                static_cast<unsigned long long>(s.connections),
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.synth_requests),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.coalesced_joins),
                static_cast<unsigned long long>(s.fresh_solves),
                static_cast<unsigned long long>(s.queue_high_water),
                static_cast<unsigned long long>(s.latency_samples),
                s.p50_ns / 1e3, s.p99_ns / 1e3,
                static_cast<unsigned long long>(s.cache_entries),
                static_cast<unsigned long long>(s.cache_bytes));
    return 0;
  }

  if (request.bank.empty()) usage("--client needs --coeffs (or --stats/--ping)");
  const serve::SynthResponse response = client.synth(request);
  std::printf("scheme %s  ops %zu  adders %d  cache_hit %d  coalesced %d\n",
              core::to_string(request.scheme).c_str(),
              response.plan.ops.size(), response.plan.analytic_adders,
              response.cache_hit ? 1 : 0, response.coalesced ? 1 : 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  int tcp_port = -1;
  bool client_mode = false;
  bool do_stats = false;
  bool do_ping = false;
  serve::SynthRequest request;
  serve::ServeConfig config = serve::serve_config_from_env();

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
        return argv[++i];
      };
      // Client mode sends the spec; daemon mode takes only --xform.
      if (core::apply_spec_flag(request.spec, arg, value)) continue;
      if (arg == "--unix") {
        unix_path = value();
      } else if (arg == "--tcp") {
        tcp_port = static_cast<int>(env::int_flag(arg, value(), 0, 65535));
      } else if (arg == "--workers") {
        config.workers = static_cast<int>(env::int_flag(arg, value(), 1, 512));
      } else if (arg == "--queue-depth") {
        config.queue_depth = static_cast<std::size_t>(
            env::int_flag(arg, value(), 1, 1 << 20));
      } else if (arg == "--cache") {
        config.cache_path = value();
      } else if (arg == "--client") {
        client_mode = true;
      } else if (arg == "--stats") {
        do_stats = true;
      } else if (arg == "--ping") {
        do_ping = true;
      } else if (arg == "--coeffs") {
        request.bank = cli::bank_flag(arg, value());
      } else if (arg == "--scheme") {
        const std::string name = value();
        const auto scheme = core::parse_scheme(name);
        if (!scheme.has_value()) usage(("unknown scheme " + name).c_str());
        request.scheme = *scheme;
      } else if (arg == "--help" || arg == "-h") {
        usage(nullptr);
      } else {
        usage(("unknown option " + arg).c_str());
      }
    }
  } catch (const Error& e) {
    usage(e.what());
  }

  try {
    if (client_mode) {
      return run_client(unix_path, tcp_port, request, do_stats, do_ping);
    }

    if (unix_path.empty() && tcp_port < 0) {
      usage("daemon mode needs --unix PATH and/or --tcp PORT");
    }
    config.xform = request.spec.passes.xform;
    if (request.spec != core::SolveSpec{.passes = {.xform = config.xform}}) {
      usage("daemon mode takes no solve-spec flag but --xform");
    }
    serve::SynthServer server(std::move(config));
    if (!unix_path.empty()) server.bind_unix(unix_path);
    if (tcp_port >= 0) {
      const int port = server.bind_tcp(tcp_port);
      std::printf("listening on 127.0.0.1:%d\n", port);
    }
    if (!unix_path.empty()) {
      std::printf("listening on %s\n", unix_path.c_str());
    }
    std::printf("workers %d  cache %s\n", server.workers(),
                server.config().cache_path.empty()
                    ? "(memory)"
                    : server.config().cache_path.c_str());
    std::fflush(stdout);

    serve::install_shutdown_signal_handlers(server);
    server.run();

    const serve::MetricsSnapshot m = server.metrics();
    std::printf("drained: %llu connections, %llu requests, %llu errors, "
                "cache %s\n",
                static_cast<unsigned long long>(m.connections),
                static_cast<unsigned long long>(m.requests),
                static_cast<unsigned long long>(m.errors),
                server.cache_persisted() ? "persisted" : "NOT persisted");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mrpf_serve: %s\n", e.what());
    return 1;
  }
}
