// Streaming-throughput bench for the exec engine. For every catalog
// filter (W=16, maximally scaled — the Table-1/Fig-7 workload) it times
// three bit-identical ways of filtering the same sample stream:
//
//   naive     dsp::fir_filter_exact — the golden direct-form model
//   interp    arch::TdfFilter::run — the per-sample adder-graph interpreter
//   compiled  exec::ExecEngine over exec::compile(filter) — the folded
//             direct-form multiply-accumulate kernel
//
// and reports samples/sec for each, the compiled-vs-interpreted speedup,
// and the per-stage StageTimers breakdown (exec.compile / exec.run next to
// the synthesis stages) in BENCH_throughput.json. Two gates hold in every
// mode, both deterministic: bit-identity — compiled vs. interpreted vs.
// naive, including a chunked StreamingFilter replay and a parallel
// run_batch — and the multiply count, macs_per_sample == ceil(taps/2) on
// every symmetric filter. Speedups are reported for the perf trajectory
// but never gated, since CI hosts are noisy.
//
// `--ci` runs a reduced catalog with shorter streams, sweeps all six
// schemes on the first filter, and writes BENCH_throughput_ci.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/exec/compile.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/filter/symmetric.hpp"
#include "mrpf/sim/workload.hpp"

namespace {

using namespace mrpf;
using Clock = std::chrono::steady_clock;

constexpr int kWordlength = 16;
int g_reps = 5;  // --ci lowers this

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

template <typename Fn>
double time_ns(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < g_reps; ++rep) {
    const double t0 = now_ns();
    fn();
    const double t1 = now_ns();
    if (rep == 0 || t1 - t0 < best) best = t1 - t0;
  }
  return best;
}

/// First divergence between two streams, printed; true when identical.
bool identical_streams(const std::vector<i64>& a, const std::vector<i64>& b,
                       const char* what) {
  if (a.size() != b.size()) {
    std::fprintf(stderr, "MISMATCH %s: %zu vs %zu samples\n", what, a.size(),
                 b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::fprintf(stderr, "MISMATCH %s at sample %zu: %lld vs %lld\n", what,
                   i, static_cast<long long>(a[i]),
                   static_cast<long long>(b[i]));
      return false;
    }
  }
  return true;
}

struct FilterRow {
  int filter = 0;
  std::string scheme;
  std::size_t taps = 0;
  std::size_t macs_per_sample = 0;
  bool symmetric = false;  // effective coefficients are palindromic
  int max_input_bits = 0;
  double naive_ns = 0;
  double interp_ns = 0;
  double compiled_ns = 0;
  std::size_t samples = 0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  const bool ci_mode = bench::parse_ci_flag(argc, argv, "perf_throughput");
  const int catalog =
      ci_mode ? std::min(4, filter::catalog_size()) : filter::catalog_size();
  const std::size_t n_samples = ci_mode ? (1u << 13) : (1u << 17);
  if (ci_mode) g_reps = 2;

  bench::print_header(
      ci_mode ? "Exec engine throughput smoke (--ci) — reduced catalog, "
                "W=16, maximal"
              : "Exec engine throughput — full catalog, W=16, maximal "
                "scaling, mrpf scheme");

  // The workload rows: every catalog filter under the mrpf scheme, plus —
  // in CI — every registered scheme on filter 0 so the bit-identity gate covers
  // every driver's lowered plan.
  std::vector<std::pair<int, core::Scheme>> work;
  for (int i = 0; i < catalog; ++i) work.emplace_back(i, core::Scheme::kMrp);
  if (ci_mode) {
    for (const core::Scheme s : core::all_schemes()) {
      if (s != core::Scheme::kMrp) work.emplace_back(0, s);
    }
  }

  std::vector<FilterRow> rows;
  core::StageTimers agg;
  bool all_identical = true;
  bool all_folded = true;  // every symmetric filter pays ceil(taps/2) MACs

  for (const auto& [idx, scheme] : work) {
    const number::QuantizedCoefficients q = number::quantize_maximal(
        filter::catalog_coefficients(idx), kWordlength);
    const arch::TdfFilter filter = core::build_tdf(q, scheme);
    const exec::ExecProgram program = exec::compile(filter);

    FilterRow row;
    row.filter = idx;
    row.scheme = core::to_string(scheme);
    row.taps = program.taps();
    row.macs_per_sample = program.macs_per_sample();
    // Symmetry of c[k] << align[k], computed here rather than read back
    // from the program, so the multiply-count gate checks the compiler.
    std::vector<i64> effective = filter.coefficients();
    for (std::size_t k = 0; k < filter.alignment().size(); ++k) {
      effective[k] = static_cast<i64>(static_cast<u64>(effective[k])
                                      << filter.alignment()[k]);
    }
    row.symmetric = filter::is_symmetric(effective);
    row.max_input_bits = program.max_input_bits;
    row.samples = n_samples;

    // Drive the widest input the compiled path proves exact (capped at 16
    // bits, a realistic ADC width); the engine must engage on it.
    const int input_bits = std::min(16, program.max_input_bits);
    Rng rng(0x7B1u + static_cast<u64>(idx) * 131u +
            static_cast<u64>(scheme));
    const std::vector<i64> x =
        sim::uniform_stream(rng, n_samples, input_bits);

    const std::vector<i64> naive =
        dsp::fir_filter_exact(filter.coefficients(), filter.alignment(), x);
    const std::vector<i64> interp = filter.run(x);

    exec::ExecEngine engine(program);
    std::vector<i64> compiled(x.size());
    engine.run(x.data(), compiled.data(), x.size());

    row.identical =
        identical_streams(naive, interp, "interp vs naive") &&
        identical_streams(interp, compiled, "compiled vs interp");

    // Chunked streaming replay: state carried across uneven push
    // boundaries must reproduce the same stream.
    exec::ExecConfig ec;
    ec.input_bits = input_bits;
    exec::StreamingFilter sf(filter, ec);
    std::vector<i64> chunked;
    chunked.reserve(x.size());
    std::size_t at = 0;
    while (at < x.size()) {
      const std::size_t take =
          std::min<std::size_t>(x.size() - at, 1 + rng.next_below(37));
      const std::vector<i64> out = sf.push(std::vector<i64>(
          x.begin() + static_cast<std::ptrdiff_t>(at),
          x.begin() + static_cast<std::ptrdiff_t>(at + take)));
      chunked.insert(chunked.end(), out.begin(), out.end());
      at += take;
    }
    row.identical =
        row.identical &&
        identical_streams(interp, chunked, "chunked push vs interp") &&
        sf.mode() == exec::ExecMode::kVector;

    // Batch-channel execution across the thread pool must equal the
    // serial engine on every channel.
    const std::vector<std::vector<i64>> batch_in(4, x);
    const std::vector<std::vector<i64>> batch_out =
        exec::run_batch(program, batch_in);
    for (const std::vector<i64>& ch : batch_out) {
      row.identical =
          row.identical && identical_streams(compiled, ch, "run_batch");
    }
    all_identical = all_identical && row.identical;
    if (row.symmetric && row.macs_per_sample != (row.taps + 1) / 2) {
      std::fprintf(stderr,
                   "GATE: filter %d %s is symmetric but costs %zu MACs per "
                   "sample, not ceil(%zu/2)\n",
                   idx, row.scheme.c_str(), row.macs_per_sample, row.taps);
      all_folded = false;
    }

    // --- Timings (best of g_reps). ---
    row.naive_ns = time_ns([&] {
      const std::vector<i64> y = dsp::fir_filter_exact(
          filter.coefficients(), filter.alignment(), x);
      if (y.size() != x.size()) std::abort();
    });
    row.interp_ns = time_ns([&] {
      const std::vector<i64> y = filter.run(x);
      if (y.size() != x.size()) std::abort();
    });
    row.compiled_ns = time_ns([&] {
      engine.reset();
      engine.run(x.data(), compiled.data(), x.size());
    });

    core::accumulate(agg, program.timers);
    core::accumulate(agg, engine.timers());

    std::printf(
        "filter %2d %-8s: %3zu taps, %3zu MACs/sample, B<=%2d | naive %8.0f "
        "interp %8.0f compiled %8.0f ns | %5.2fx vs naive | %s\n",
        idx, row.scheme.c_str(), row.taps, row.macs_per_sample,
        row.max_input_bits, row.naive_ns, row.interp_ns, row.compiled_ns,
        row.naive_ns / row.compiled_ns,
        row.identical ? "identical" : "MISMATCH");
    rows.push_back(std::move(row));
  }

  // Geometric-mean speedups over the rows.
  double log_vs_interp = 0, log_vs_naive = 0;
  double total_compiled_ns = 0, total_samples = 0;
  for (const FilterRow& r : rows) {
    log_vs_interp += std::log(r.interp_ns / r.compiled_ns);
    log_vs_naive += std::log(r.naive_ns / r.compiled_ns);
    total_compiled_ns += r.compiled_ns;
    total_samples += static_cast<double>(r.samples);
  }
  const double geo_interp =
      std::exp(log_vs_interp / static_cast<double>(rows.size()));
  const double geo_naive =
      std::exp(log_vs_naive / static_cast<double>(rows.size()));
  const double msamples_per_sec = 1e3 * total_samples / total_compiled_ns;

  std::printf(
      "compiled: %.1f Msamples/sec aggregate | geomean %.2fx vs interp, "
      "%.2fx vs naive | target >=2x vs naive (reported, not gated)\n",
      msamples_per_sec, geo_interp, geo_naive);

  const char* json_name =
      ci_mode ? "BENCH_throughput_ci.json" : "BENCH_throughput.json";
  FILE* out = std::fopen(json_name, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_name);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"perf_throughput\",\n"
               "  \"workload\": {\"catalog_filters\": %d, \"wordlength\": %d,"
               " \"scaling\": \"maximal\", \"samples\": %zu},\n"
               "  \"ci_mode\": %s,\n"
               "  \"filters\": [\n",
               catalog, kWordlength, n_samples, ci_mode ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FilterRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"filter\": %d, \"scheme\": \"%s\", \"taps\": %zu, "
        "\"macs_per_sample\": %zu, \"max_input_bits\": %d,\n"
        "     \"naive_ns\": %.0f, \"interp_ns\": %.0f, \"compiled_ns\": "
        "%.0f,\n"
        "     \"compiled_msamples_per_sec\": %.2f, "
        "\"speedup_vs_interp\": %.3f, \"speedup_vs_naive\": %.3f, "
        "\"bit_identical\": %s}%s\n",
        r.filter, r.scheme.c_str(), r.taps, r.macs_per_sample,
        r.max_input_bits, r.naive_ns, r.interp_ns,
        r.compiled_ns,
        1e3 * static_cast<double>(r.samples) / r.compiled_ns,
        r.interp_ns / r.compiled_ns, r.naive_ns / r.compiled_ns,
        r.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"stage_timers\": %s,\n",
               exec::stage_timers_json(agg, "  ").c_str());
  std::fprintf(out,
               "  \"aggregate\": {\"compiled_msamples_per_sec\": %.2f, "
               "\"geomean_speedup_vs_interp\": %.3f, "
               "\"geomean_speedup_vs_naive\": %.3f, "
               "\"bit_identical\": %s, \"symmetric_filters_folded\": %s}\n"
               "}\n",
               msamples_per_sec, geo_interp, geo_naive,
               all_identical ? "true" : "false",
               all_folded ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_name);

  if (!all_identical) {
    std::fprintf(stderr,
                 "GATE: compiled execution is not bit-identical to the "
                 "interpreted model\n");
    return 1;
  }
  return all_folded ? 0 : 1;
}
