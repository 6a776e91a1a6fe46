// mrpf_fuzz — differential fuzz-verification harness driver.
//
// Fuzz mode (default): randomized coefficient banks × schemes × options
// (including randomized e-graph pass budgets on a quarter of cases), each
// plan checked by the six independent oracles (cost, sim, rtl, serde,
// exec, xform); failures are shrunk to minimal reproducers with replay
// commands:
//
//   mrpf_fuzz --seed 7 --cases 500 [--time-budget MS]
//             [--schemes mrpf,cse] [--oracles cost,sim] [--json FILE]
//             [--inject shift|subtract|tap|cost] [--xform]
//
// Replay mode (--bank): run exactly one fully specified case — the command
// the shrinker prints:
//
//   mrpf_fuzz --bank 7,-66,17 --scheme mrpf --input-bits 10 [--align ...]
//             [--beta B] [--depth D] [--recursive N] [--rep spt|csd|sm]
//             [--xform] [--xform-budget N] [--inject KIND]
//
// CI mode (--ci): fixed-seed smoke gate — every scheme × every oracle over
// >= 500 cases must pass, then one deliberately injected fault must be
// detected and shrunk to a tiny reproducer. Exits nonzero on any gate
// violation, so a silently broken oracle (or shrinker) fails the build.
//
// MRPF_FUZZ_INJECT=shift|subtract|tap|cost injects without the flag (the
// hook CI uses to prove the harness catches faults end to end).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mrpf/common/error.hpp"
#include "mrpf/verify/fuzz.hpp"
#include "cli.hpp"

namespace {

using namespace mrpf;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mrpf_fuzz [options]\n"
               "fuzz mode:\n"
               "  --seed N                    run seed (default 1)\n"
               "  --cases N                   cases to run (default 200)\n"
               "  --time-budget MS            stop after MS milliseconds\n"
               "  --schemes a,b,...           restrict schemes (default all)\n"
               "  --oracles a,b,...           restrict oracles "
               "(cost,sim,rtl,serde,exec,xform)\n"
               "  --inject KIND               corrupt every plan "
               "(shift|subtract|tap|cost)\n"
               "  --xform                     force the e-graph pass on "
               "for every case\n"
               "  --json FILE                 write the run report to FILE\n"
               "replay mode (one exact case):\n"
               "  --bank c0,c1,...            coefficient bank\n"
               "  --align s0,s1,...           per-tap alignment shifts\n"
               "  --scheme NAME               scheme (default simple)\n"
               "  --input-bits N              data width (default 10)\n"
               "  --beta B --depth D --recursive N --l-max L\n"
               "  --opt-budget N              bnb search-step budget\n"
               "  --xform-budget N            run the e-graph pass with "
               "this saturation budget\n"
               "  --rep spt|csd|sm            number representation\n"
               "ci mode:\n"
               "  --ci                        fixed-seed smoke gate\n");
  std::exit(2);
}

void print_failures(const verify::FuzzReport& report) {
  for (const verify::FuzzFailure& f : report.failure_detail) {
    std::printf("FAIL case %zu [%s oracle: %s]\n", f.case_index,
                verify::to_string(f.failure.oracle).c_str(),
                f.failure.detail.c_str());
    std::printf("  shrunk %zu -> %zu coefficients (%zu evals)\n",
                f.original.coefficients.size(), f.shrunk.coefficients.size(),
                f.shrink_evals);
    std::printf("  replay: %s\n", f.replay.c_str());
  }
}

void print_summary(const verify::FuzzReport& report) {
  std::printf("%llu cases, %llu failures (%.1f ms)%s\n",
              static_cast<unsigned long long>(report.cases_run),
              static_cast<unsigned long long>(report.failures),
              static_cast<double>(report.total_ns) / 1e6,
              report.time_budget_exhausted ? " [time budget exhausted]" : "");
  for (const verify::Oracle o : verify::all_oracles()) {
    const verify::OracleStats& s =
        report.per_oracle[static_cast<std::size_t>(o)];
    if (s.runs == 0) continue;
    std::printf("  %-5s %6llu runs  %3llu failures  %8.1f ms\n",
                verify::to_string(o).c_str(),
                static_cast<unsigned long long>(s.runs),
                static_cast<unsigned long long>(s.failures),
                static_cast<double>(s.ns) / 1e6);
  }
  for (const core::Scheme s : core::all_schemes()) {
    const verify::SchemeStats& st =
        report.per_scheme[static_cast<std::size_t>(s)];
    if (st.cases == 0) continue;
    std::printf("  %-8s %5llu cases %3llu failures  %8.1f ms\n",
                core::to_string(s).c_str(),
                static_cast<unsigned long long>(st.cases),
                static_cast<unsigned long long>(st.failures),
                static_cast<double>(st.ns) / 1e6);
  }
}

bool write_json(const verify::FuzzReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << report.to_json();
  std::printf("wrote JSON report to %s\n", path.c_str());
  return true;
}

/// The CI gate: clean pass over every scheme/oracle, then proof that an
/// injected fault is detected and minimized. Returns the exit code.
int run_ci(const std::string& json_path) {
  verify::FuzzConfig config;
  config.seed = 0xF022;
  config.cases = 504;  // >= 500 and divisible by 7: even scheme coverage
  std::printf("ci: honest pass (%zu cases, seed 0x%llX)\n", config.cases,
              static_cast<unsigned long long>(config.seed));
  const verify::FuzzReport report = verify::run_fuzz(config);
  print_summary(report);
  print_failures(report);
  if (!json_path.empty() && !write_json(report, json_path)) return 1;
  if (report.failures != 0) {
    std::fprintf(stderr, "ci: FAIL — %llu honest-run failures\n",
                 static_cast<unsigned long long>(report.failures));
    return 1;
  }
  for (const core::Scheme s : core::all_schemes()) {
    if (report.per_scheme[static_cast<std::size_t>(s)].cases == 0) {
      std::fprintf(stderr, "ci: FAIL — scheme %s never exercised\n",
                   core::to_string(s).c_str());
      return 1;
    }
  }
  for (const verify::Oracle o : verify::all_oracles()) {
    if (report.per_oracle[static_cast<std::size_t>(o)].runs == 0) {
      std::fprintf(stderr, "ci: FAIL — oracle %s never ran\n",
                   verify::to_string(o).c_str());
      return 1;
    }
  }

  // Injected-fault proof: corrupt one plan, require detection + a tiny
  // shrunk reproducer whose replay still fails.
  std::printf("ci: injected-fault pass (MRPF_FUZZ_INJECT=shift semantics)\n");
  verify::FuzzConfig inject_config;
  inject_config.seed = 0xF023;
  inject_config.cases = 12;
  inject_config.inject = verify::FaultKind::kOpShift;
  const verify::FuzzReport injected = verify::run_fuzz(inject_config);
  if (injected.failures == 0) {
    std::fprintf(stderr,
                 "ci: FAIL — injected fault escaped all six oracles\n");
    return 1;
  }
  const verify::FuzzFailure& f = injected.failure_detail.front();
  std::printf("ci: injected fault caught by the %s oracle (%s)\n",
              verify::to_string(f.failure.oracle).c_str(),
              f.failure.detail.c_str());
  std::printf("ci: shrunk %zu -> %zu coefficients; replay: %s\n",
              f.original.coefficients.size(), f.shrunk.coefficients.size(),
              f.replay.c_str());
  if (f.shrunk.coefficients.size() > 4) {
    std::fprintf(stderr, "ci: FAIL — shrinker left %zu coefficients (> 4)\n",
                 f.shrunk.coefficients.size());
    return 1;
  }
  // The replay command's case must reproduce the failure standalone.
  verify::FuzzConfig replay_config;
  if (verify::run_case(f.shrunk, replay_config).passed) {
    std::fprintf(stderr,
                 "ci: FAIL — shrunk reproducer passes when replayed\n");
    return 1;
  }
  std::printf("ci: PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  verify::FuzzConfig config;
  config.inject = verify::fault_from_env();
  verify::FuzzCase replay;
  replay.inject = config.inject;
  bool replay_mode = false;
  bool ci_mode = false;
  std::string json_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
        return argv[++i];
      };
      if (core::apply_spec_flag(replay.options, arg, value)) continue;
      if (arg == "--seed") {
        config.seed = static_cast<std::uint64_t>(
            env::int_flag(arg, value(), 0, 1LL << 62));
      } else if (arg == "--cases") {
        config.cases = static_cast<std::size_t>(
            env::int_flag(arg, value(), 1, 1'000'000'000));
      } else if (arg == "--time-budget") {
        config.time_budget_ms =
            env::int_flag(arg, value(), 1, 1'000'000'000'000);
      } else if (arg == "--schemes") {
        std::stringstream items(value());
        for (std::string item; std::getline(items, item, ',');) {
          const std::optional<core::Scheme> s = core::parse_scheme(item);
          if (!s.has_value()) usage(("unknown scheme " + item).c_str());
          config.schemes.push_back(*s);
        }
      } else if (arg == "--oracles") {
        config.oracles = {false, false, false, false, false, false};
        std::stringstream items(value());
        for (std::string item; std::getline(items, item, ',');) {
          const std::optional<verify::Oracle> o = verify::parse_oracle(item);
          if (!o.has_value()) usage(("unknown oracle " + item).c_str());
          config.oracles[static_cast<std::size_t>(*o)] = true;
        }
      } else if (arg == "--inject") {
        const std::optional<verify::FaultKind> k = verify::parse_fault(value());
        if (!k.has_value()) usage("unknown fault kind");
        config.inject = *k;
        replay.inject = *k;
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--bank") {
        replay.coefficients = cli::bank_flag(arg, value());
        replay_mode = true;
      } else if (arg == "--align") {
        replay.align = cli::list_flag<int>(arg, value(), 0, 62);
      } else if (arg == "--scheme") {
        const std::optional<core::Scheme> s = core::parse_scheme(value());
        if (!s.has_value()) usage("unknown scheme");
        replay.scheme = *s;
      } else if (arg == "--input-bits") {
        replay.input_bits =
            static_cast<int>(env::int_flag(arg, value(), 2, 32));
      } else if (arg == "--ci") {
        ci_mode = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(nullptr);
      } else {
        usage(("unknown option " + arg).c_str());
      }
    }
  } catch (const Error& e) {
    usage(e.what());
  }
  // In fuzz mode --xform (or a budget, which implies it) forces the pass on
  // for every case.
  config.force_xform = replay.options.passes.xform;

  try {
    if (ci_mode) return run_ci(json_path);

    if (replay_mode) {
      if (replay.coefficients.empty()) usage("--bank needs coefficients");
      if (!replay.align.empty() &&
          replay.align.size() != replay.coefficients.size()) {
        usage("--align length must match --bank");
      }
      const verify::CaseResult result = verify::run_case(replay, config);
      if (result.passed) {
        std::printf("PASS: all enabled oracles agree\n");
        return 0;
      }
      std::printf("FAIL [%s oracle]: %s\n",
                  verify::to_string(result.failure->oracle).c_str(),
                  result.failure->detail.c_str());
      return 1;
    }

    const verify::FuzzReport report = verify::run_fuzz(config);
    print_summary(report);
    print_failures(report);
    if (!json_path.empty() && !write_json(report, json_path)) return 1;
    return report.failures == 0 ? 0 : 1;
  } catch (const mrpf::Error& e) {
    std::fprintf(stderr, "mrpf error: %s\n", e.what());
    return 1;
  }
  return 0;
}
