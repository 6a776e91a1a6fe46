// mrpf_synth — command-line filter synthesizer.
//
// Designs a linear-phase FIR from a spec, quantizes it, runs the chosen
// optimization scheme, verifies the architecture bit-exactly and emits a
// report and (optionally) Verilog.
//
//   mrpf_synth --band lp --edges 0.2,0.3 --taps 31 --wordlength 14
//              --scheme mrpf+cse --method pm [--maximal] [--beta 0.5]
//              [--depth 3] [--verilog out.v]
//
// Or optimize an explicit coefficient bank:
//
//   mrpf_synth --coeffs 7,66,17,9,27,41,57,11 --scheme mrpf
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mrpf/arch/cost_model.hpp"
#include "mrpf/arch/verilog.hpp"
#include "mrpf/cache/session.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/polyphase_decimator.hpp"
#include "mrpf/core/report.hpp"
#include "mrpf/filter/polyphase.hpp"
#include "mrpf/exec/compile.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/filter/design.hpp"
#include "mrpf/io/coeff_file.hpp"
#include "mrpf/io/json_report.hpp"
#include "mrpf/filter/measure.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/sim/equivalence.hpp"
#include "mrpf/sim/workload.hpp"
#include "cli.hpp"

namespace {

using namespace mrpf;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mrpf_synth [options]\n"
               "  --band lp|hp|bp|bs          band type (default lp)\n"
               "  --method pm|ls|bw|kw        design method (default pm)\n"
               "  --edges f1,f2[,f3,f4]       normalized band edges\n"
               "  --taps N                    odd filter length\n"
               "  --ripple dB --atten dB      spec targets\n"
               "  --wordlength W              coefficient bits (default 14)\n"
               "  --maximal                   maximal (per-tap) scaling\n"
               "  --scheme NAME               see --list-schemes\n"
               "  --list-schemes              print scheme names and exit\n"
               "  --beta B --depth D          MRP options\n"
               "  --recursive N --l-max L\n"
               "  --rep spt|csd|sm            number representation\n"
               "  --opt-budget N              bnb search-step budget\n"
               "  --xform                     run the e-graph rewrite pass\n"
               "                              (MRPF_XFORM_BUDGET sizes it)\n"
               "  --xform-budget N            pass saturation budget\n"
               "                              (implies --xform)\n"
               "  --decimate M                synthesize a polyphase\n"
               "                              decimate-by-M structure\n"
               "  --shared-bank               share one multiplier block\n"
               "                              across the polyphase branches\n"
               "                              (requires --decimate)\n"
               "  --coeffs c0,c1,...          skip design, optimize bank\n"
               "  --coeffs-file FILE          read an integer bank from FILE\n"
               "  --cache FILE                persistent solve cache store\n"
               "                              (prints the run's hits/misses)\n"
               "  --json FILE                 write a JSON report to FILE\n"
               "  --verilog FILE              write Verilog to FILE\n"
               "  --input-bits N              data width (default 12)\n"
               "  --exec-bench                compile the plan for the exec\n"
               "                              engine and smoke-time it\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  filter::FilterSpec spec;
  spec.name = "cli";
  spec.num_taps = 31;
  spec.edges = {0.2, 0.3};
  int wordlength = 14;
  int input_bits = 12;
  bool maximal = false;
  core::Scheme scheme = core::Scheme::kMrpCse;
  core::MrpOptions mrp_opts;
  std::optional<std::vector<i64>> explicit_coeffs;
  std::string verilog_path;
  std::string json_path;
  bool exec_bench = false;
  int decimate_factor = 0;
  bool shared_bank = false;
  std::string cache_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
        return argv[++i];
      };
      if (core::apply_spec_flag(mrp_opts, arg, value)) continue;
      if (arg == "--band") {
        const std::string b = value();
        if (b == "lp") spec.band = filter::BandType::kLowPass;
        else if (b == "hp") spec.band = filter::BandType::kHighPass;
        else if (b == "bp") spec.band = filter::BandType::kBandPass;
        else if (b == "bs") spec.band = filter::BandType::kBandStop;
        else usage("unknown band");
      } else if (arg == "--method") {
        const std::string m = value();
        if (m == "pm") spec.method = filter::DesignMethod::kParksMcClellan;
        else if (m == "ls") spec.method = filter::DesignMethod::kLeastSquares;
        else if (m == "bw") spec.method = filter::DesignMethod::kButterworthFir;
        else if (m == "kw") spec.method = filter::DesignMethod::kKaiserWindow;
        else usage("unknown method");
      } else if (arg == "--edges") {
        spec.edges = cli::list_flag(arg, value(), 0.0, 1.0);
      } else if (arg == "--taps") {
        spec.num_taps =
            static_cast<int>(env::int_flag(arg, value(), 1, 1 << 16));
      } else if (arg == "--ripple") {
        spec.passband_ripple_db = env::double_flag(arg, value(), 0, 1000);
      } else if (arg == "--atten") {
        spec.stopband_atten_db = env::double_flag(arg, value(), 0, 1000);
      } else if (arg == "--wordlength") {
        wordlength = static_cast<int>(env::int_flag(arg, value(), 1, 62));
      } else if (arg == "--input-bits") {
        input_bits = static_cast<int>(env::int_flag(arg, value(), 2, 32));
      } else if (arg == "--maximal") {
        maximal = true;
      } else if (arg == "--scheme") {
        const std::string name = value();
        const std::optional<core::Scheme> parsed = core::parse_scheme(name);
        if (!parsed.has_value()) usage("unknown scheme (try --list-schemes)");
        scheme = *parsed;
      } else if (arg == "--list-schemes") {
        for (const core::Scheme s : core::all_schemes()) {
          std::printf("%s\n", core::to_string(s).c_str());
        }
        return 0;
      } else if (arg == "--decimate") {
        decimate_factor =
            static_cast<int>(env::int_flag(arg, value(), 1, 1 << 16));
      } else if (arg == "--shared-bank") {
        shared_bank = true;
      } else if (arg == "--coeffs") {
        explicit_coeffs = cli::bank_flag(arg, value());
      } else if (arg == "--coeffs-file") {
        explicit_coeffs = io::read_integer_coefficients(value());
      } else if (arg == "--cache") {
        cache_path = value();
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--verilog") {
        verilog_path = value();
      } else if (arg == "--exec-bench") {
        exec_bench = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(nullptr);
      } else {
        usage(("unknown option " + arg).c_str());
      }
    }
  } catch (const Error& e) {
    usage(e.what());
  }
  if (shared_bank && decimate_factor == 0) {
    usage("--shared-bank requires --decimate");
  }

  try {
    // One cache session for the whole run: every bank solve (each
    // polyphase branch, or the one shared bank) shares it, and the store is
    // read and written once.
    std::optional<cache::SolveCacheSession> session;
    if (!cache_path.empty()) {
      session.emplace(cache_path);
      mrp_opts.cache = session->cache();
    }
    const auto finish_cache = [&session] {
      if (!session.has_value() || session->cache() == nullptr) return;
      const cache::CacheStats stats = session->cache()->stats();
      std::printf("cache: %llu hits, %llu misses\n",
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses));
      if (!session->save()) {
        std::fprintf(stderr, "warning: could not write the cache store\n");
      }
    };

    std::vector<i64> coefficients;
    std::vector<int> align;
    if (explicit_coeffs.has_value()) {
      coefficients = *explicit_coeffs;
      std::printf("Optimizing explicit %zu-coefficient bank\n",
                  coefficients.size());
    } else {
      const std::vector<double> h = filter::design(spec);
      const filter::Measurement m = filter::measure(h, spec);
      std::printf("Designed %d-tap %s %s: ripple %.3f dB, atten %.1f dB\n",
                  spec.num_taps, filter::to_string(spec.method).c_str(),
                  filter::to_string(spec.band).c_str(),
                  m.passband_ripple_db, m.stopband_atten_db);
      const number::QuantizedCoefficients q =
          maximal ? number::quantize_maximal(h, wordlength)
                  : number::quantize_uniform(h, wordlength);
      std::printf("Quantized to %d bits (%s), max error %.3e\n", wordlength,
                  maximal ? "maximal" : "uniform", q.max_abs_error(h));
      coefficients = q.values();
      align = core::alignment_of(q);
    }

    if (decimate_factor > 0) {
      // Multirate flow: synthesize the polyphase structure in the requested
      // bank mode, then verify it bit-exactly against the reference
      // decimator. bench/filterbank_study compares the two modes.
      const core::PolyphaseDecimator dec(
          coefficients, decimate_factor, scheme, mrp_opts,
          shared_bank ? core::BankSharing::kShared
                      : core::BankSharing::kPerBranch);
      const char* mode = shared_bank ? "shared" : "per-branch";
      std::printf("polyphase M=%d: %s%s %d adders (synthesizing %s)\n",
                  decimate_factor, mode, shared_bank ? " bank" : "",
                  dec.analytic_adders(), mode);
      finish_cache();
      Rng rng(0xDEC1);
      std::vector<i64> x;
      const i64 range = (i64{1} << (input_bits - 1)) - 1;
      for (int n = 0; n < 4096; ++n) x.push_back(rng.next_int(-range, range));
      const bool same =
          dec.run(x) == filter::decimate_exact(coefficients,
                                               decimate_factor, x);
      std::printf("verification: decimator %s over %zu samples\n",
                  same ? "bit-exact" : "MISMATCH", x.size());
      return same ? 0 : 1;
    }

    const std::vector<i64> bank = core::optimization_bank(coefficients);
    core::SchemeResult opt = core::optimize_bank(bank, scheme, mrp_opts);
    finish_cache();
    std::printf("%s\n", core::describe(opt, input_bits).c_str());
    if (opt.plan.xform.has_value()) {
      std::printf("xform pass  : %d -> %d adders (%lld steps%s)\n",
                  opt.plan.xform->original_adders, opt.plan.analytic_adders,
                  opt.plan.xform->steps,
                  opt.plan.xform->saturated ? ", saturated" : "");
    }
    if (opt.plan.mrp.has_value()) {
      std::fputs(core::describe(*opt.plan.mrp).c_str(), stdout);
    }
    if (!json_path.empty()) {
      std::ofstream json_out(json_path);
      if (!json_out) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      json_out << io::to_json(opt, input_bits) << "\n";
      std::printf("wrote JSON report to %s\n", json_path.c_str());
    }

    const arch::TdfFilter tdf =
        core::expand_block_to_tdf(coefficients, align, std::move(opt.block));
    const sim::EquivalenceReport eq =
        sim::check_equivalence_suite(tdf, input_bits);
    std::printf("verification: %s\n", eq.to_string().c_str());
    if (!eq.equivalent) return 1;

    if (exec_bench) {
      const exec::ExecProgram program = exec::compile(tdf);
      const int bits = std::min(input_bits, program.max_input_bits);
      Rng rng(0x5EED);
      const std::vector<i64> x = sim::uniform_stream(rng, 1u << 14, bits);
      const auto wall_ns = [](auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      };
      std::vector<i64> expect;
      const double interp_ns = wall_ns([&] { expect = tdf.run(x); });
      // Streaming path so the MRPF_EXEC mode knob is honored.
      exec::ExecConfig config = exec::exec_config_from_env();
      config.input_bits = bits;
      exec::StreamingFilter sf(tdf, config);
      std::vector<i64> y;
      const double compiled_ns = wall_ns([&] { y = sf.push(x); });
      const bool same = y == expect;
      std::printf(
          "exec bench  : %zu taps, %zu multiplies/sample, %s, B<=%d | %zu "
          "samples: interp %.0f ns, compiled %.0f ns (%.2fx) | %s\n",
          program.taps(), program.macs_per_sample(),
          exec::to_string(sf.mode()), program.max_input_bits,
          x.size(), interp_ns, compiled_ns, interp_ns / compiled_ns,
          same ? "bit-identical" : "MISMATCH");
      if (!same) return 1;
    }

    if (!verilog_path.empty()) {
      std::ofstream out(verilog_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", verilog_path.c_str());
        return 1;
      }
      out << arch::emit_tdf_filter(tdf, input_bits, "mrpf_synth_filter");
      std::printf("wrote Verilog to %s\n", verilog_path.c_str());
    }
  } catch (const mrpf::Error& e) {
    std::fprintf(stderr, "mrpf error: %s\n", e.what());
    return 1;
  }
  return 0;
}
