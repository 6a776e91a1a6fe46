// Multirate filter-bank study: what does cross-branch bank sharing buy?
//
// A decimate-by-M polyphase filter gives the synthesizer M independent
// branch banks. Per-branch synthesis optimizes each alone; the shared
// mode (core::SharedBankGroup) canonicalizes the union of all branch
// banks, solves it ONCE, and time-multiplexes the one multiplier block
// across the branches (they run at fs/M, the block at fs). This bench
// sweeps the Table-1 catalog (W = 12 uniform banks) across decimation
// factors 2–8 plus designed half-band-cascade and Nyquist(M) prototypes
// (quantized through number::quantize_maximal), comparing total analytic
// adders for:
//   per-branch kSimple | per-branch kMrp | shared kCse | shared kMrp
// Emits BENCH_filterbank.json (BENCH_filterbank_ci.json under --ci).
//
// Correctness is gated, not assumed:
//  - every decimator (both sharing modes) must match
//    filter::decimate_exact bit for bit on a randomized input, and the
//    interpolator must match filter::interpolate_exact — the shared
//    block is an implementation of the same filter, not an
//    approximation;
//  - shared-bank analytic adders must never exceed the per-branch sum:
//    per workload against the naive per-branch baseline, and on study
//    totals scheme against scheme (heuristic solves are not monotone
//    workload by workload); at least one catalog workload must improve
//    strictly;
//  - re-solving every shared union bank against the warm solve cache
//    must hit 100% of the time — the union canonicalization is
//    deliberately partition/order-invariant so the existing cache keys
//    cover it.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mrpf/cache/solve_cache.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/polyphase_decimator.hpp"
#include "mrpf/core/shared_bank.hpp"
#include "mrpf/filter/halfband.hpp"
#include "mrpf/filter/nyquist.hpp"
#include "mrpf/filter/polyphase.hpp"
#include "mrpf/number/quantize.hpp"

namespace {

using namespace mrpf;

/// Deterministic 64-bit LCG — the bench must reproduce bit-exactly.
struct Lcg {
  u64 state;
  explicit Lcg(u64 seed) : state(seed) {}
  u64 next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  i64 next_in(i64 lo, i64 hi) {  // inclusive
    return lo + static_cast<i64>(next() % static_cast<u64>(hi - lo + 1));
  }
};

/// Common-scale integer coefficients of a maximally-quantized bank:
/// c_i = value_i · 2^(K − k_i) with K = max k. Exact (per-tap shifts are
/// powers of two), so filter::decimate_exact over c is the reference the
/// hardware must match bit for bit.
std::vector<i64> common_scale_values(const number::QuantizedCoefficients& q) {
  int max_scale = 0;
  for (const number::QuantizedCoeff& c : q.coeffs) {
    if (c.value != 0) max_scale = std::max(max_scale, c.scale_log2);
  }
  MRPF_CHECK(max_scale <= 40,
             "filterbank_study: bank dynamic range too wide for a "
             "common-scale integer simulation");
  std::vector<i64> out;
  out.reserve(q.coeffs.size());
  for (const number::QuantizedCoeff& c : q.coeffs) {
    out.push_back(c.value == 0
                      ? 0
                      : c.value << (max_scale - c.scale_log2));
  }
  return out;
}

struct WorkloadRow {
  std::string name;
  int factor = 0;
  std::size_t taps = 0;
  bool catalog = false;         // counts toward the strict-improvement gate
  int per_branch_simple = 0;
  int per_branch_mrpf = 0;
  int shared_cse = 0;
  int shared_mrpf = 0;
  bool sim_exact = false;
};

struct Gates {
  bool sim_exact = true;
  bool shared_leq_sum = true;
  int strict_improvements = 0;  // catalog workloads with shared < sum
  int warm_lookups = 0;
  int warm_hits = 0;
  bool designers_structural = true;
};

/// One workload: synthesize all four columns, gate the simulations, and
/// remember the branch banks for the warm-cache replay.
WorkloadRow measure(const std::string& name, const std::vector<i64>& c,
                    int factor, bool catalog, i64 input_range, Lcg& rng,
                    const core::MrpOptions& opts, Gates& gates,
                    std::vector<std::vector<std::vector<i64>>>& groups) {
  WorkloadRow row;
  row.name = name;
  row.factor = factor;
  row.taps = c.size();
  row.catalog = catalog;

  const core::PolyphaseDecimator per_simple(
      c, factor, core::Scheme::kSimple, opts,
      core::BankSharing::kPerBranch);
  const core::PolyphaseDecimator per_mrpf(c, factor, core::Scheme::kMrp,
                                          opts,
                                          core::BankSharing::kPerBranch);
  const core::PolyphaseDecimator shared_cse(c, factor, core::Scheme::kCse,
                                            opts,
                                            core::BankSharing::kShared);
  const core::PolyphaseDecimator shared_mrpf(c, factor, core::Scheme::kMrp,
                                             opts,
                                             core::BankSharing::kShared);
  row.per_branch_simple = per_simple.analytic_adders();
  row.per_branch_mrpf = per_mrpf.analytic_adders();
  row.shared_cse = shared_cse.analytic_adders();
  row.shared_mrpf = shared_mrpf.analytic_adders();

  // Bit-exact gate: both sharing modes against the exact reference, and
  // the interpolator against its reference, on one randomized stream.
  std::vector<i64> x(257);
  for (i64& v : x) v = rng.next_in(-input_range, input_range);
  const std::vector<i64> want = filter::decimate_exact(c, factor, x);
  row.sim_exact = per_mrpf.run(x) == want && shared_mrpf.run(x) == want &&
                  shared_cse.run(x) == want;
  const core::PolyphaseInterpolator interp(c, factor, core::Scheme::kMrp,
                                           opts);
  row.sim_exact =
      row.sim_exact &&
      interp.run(x) == filter::interpolate_exact(c, factor, x);

  gates.sim_exact = gates.sim_exact && row.sim_exact;
  // Heuristic solves are not monotone workload by workload (a near-empty
  // branch can make the per-branch sum beat the union solve by an adder
  // or two), so the hard per-workload bound is against the naive
  // per-branch baseline; the mrpf-vs-mrpf bound is gated on study totals
  // in main().
  gates.shared_leq_sum =
      gates.shared_leq_sum &&
      std::min(row.shared_cse, row.shared_mrpf) <= row.per_branch_simple;
  if (catalog && row.shared_mrpf < row.per_branch_mrpf) {
    ++gates.strict_improvements;
  }

  std::vector<std::vector<i64>> phases =
      filter::polyphase_decompose(c, factor);
  for (std::vector<i64>& bank : phases) {
    if (bank.empty()) bank.push_back(0);
  }
  groups.push_back(std::move(phases));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ci_mode = bench::parse_ci_flag(argc, argv, "filterbank_study");
  bench::print_header(
      ci_mode ? "Filter-bank study smoke (--ci) — reduced workloads"
              : "Filter-bank study — per-branch vs shared-bank synthesis");

  // One warm cache across the whole bench: the replay gate at the end
  // re-solves every shared union bank against it.
  cache::SolveCache cache;
  core::MrpOptions opts;
  opts.cache = &cache;

  Gates gates;
  std::vector<WorkloadRow> rows;
  std::vector<std::vector<std::vector<i64>>> groups;
  Lcg rng(0x2545f4914f6cdd1dull);

  // Workload 1: catalog filters (W = 12 uniform banks, the bench-wide
  // quantization the reproduction tables use) across decimation 2–8.
  const int nf =
      ci_mode ? std::min(3, filter::catalog_size()) : filter::catalog_size();
  const std::vector<int> factors =
      ci_mode ? std::vector<int>{2, 4, 8}
              : std::vector<int>{2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < nf; ++i) {
    const number::QuantizedCoefficients q = number::quantize_uniform(
        filter::catalog_coefficients(i), 12);
    const std::vector<i64> c = q.values();
    for (const int m : factors) {
      rows.push_back(measure(filter::catalog_spec(i).name, c, m, true,
                             i64{1} << 20, rng, opts, gates, groups));
    }
  }

  // Workload 2: designed prototypes, quantized through quantize_maximal
  // (per-tap full-wordlength scaling; the common-scale integer image
  // keeps the exact-reference gate meaningful).
  {
    const filter::HalfbandCascadeDesign hb =
        filter::design_halfband_cascade(0.4, 1e-3);
    gates.designers_structural =
        gates.designers_structural && filter::is_halfband(hb.h);
    const std::vector<i64> c =
        common_scale_values(number::quantize_maximal(hb.h, 12));
    char name[32];
    std::snprintf(name, sizeof(name), "hbf_n1%d_n2%d", hb.n1, hb.n2);
    rows.push_back(measure(name, c, 2, false, i64{1} << 12, rng, opts,
                           gates, groups));
  }
  for (const int m : {3, 4, 6}) {
    const filter::NyquistDesign nyq = filter::design_nyquist(m, 4, 70.0);
    gates.designers_structural =
        gates.designers_structural && filter::is_nyquist(nyq.analysis, m);
    const std::vector<i64> c =
        common_scale_values(number::quantize_maximal(nyq.analysis, 12));
    char name[32];
    std::snprintf(name, sizeof(name), "nyquist_m%d", m);
    rows.push_back(measure(name, c, m, false, i64{1} << 12, rng, opts,
                           gates, groups));
  }

  std::printf("%-12s %3s %5s %8s %8s %8s %8s %5s\n", "name", "M", "taps",
              "pb-simp", "pb-mrpf", "sh-cse", "sh-mrpf", "exact");
  long long sum_pb_simple = 0, sum_pb_mrpf = 0, sum_sh_cse = 0,
            sum_sh_mrpf = 0;
  for (const WorkloadRow& r : rows) {
    sum_pb_simple += r.per_branch_simple;
    sum_pb_mrpf += r.per_branch_mrpf;
    sum_sh_cse += r.shared_cse;
    sum_sh_mrpf += r.shared_mrpf;
    std::printf("%-12s %3d %5zu %8d %8d %8d %8d %5s\n", r.name.c_str(),
                r.factor, r.taps, r.per_branch_simple, r.per_branch_mrpf,
                r.shared_cse, r.shared_mrpf, r.sim_exact ? "yes" : "NO");
  }

  // Warm-cache replay: every union bank was solved above with the cache
  // live, so re-solving each SharedBankGroup must be served entirely
  // from the cache. A miss means the union canonicalization leaked
  // partition or order into the solve key.
  for (const std::vector<std::vector<i64>>& banks : groups) {
    const core::SharedBankGroup group(banks);
    if (group.union_bank().empty()) continue;
    for (const core::Scheme s : {core::Scheme::kCse, core::Scheme::kMrp}) {
      ++gates.warm_lookups;
      if (group.solve(s, opts).cache_hit) ++gates.warm_hits;
    }
  }
  const bool warm_all_hit = gates.warm_hits == gates.warm_lookups;

  // Study-level bound: across all workloads the shared union solves must
  // not cost more than the matching per-branch solves. Totals absorb the
  // per-workload heuristic noise the measure() gate tolerates.
  gates.shared_leq_sum = gates.shared_leq_sum &&
                         sum_sh_mrpf <= sum_pb_mrpf &&
                         sum_sh_cse <= sum_pb_simple;

  bench::print_paper_note(
      "the paper synthesizes one multiplier block per vector scaling; "
      "folding a polyphase bank across branches is the natural multirate "
      "extension (branches idle M-1 of every M cycles).");
  std::printf(
      "MEASURED: %zu workloads — per-branch simple %lld, per-branch mrpf "
      "%lld, shared cse %lld, shared mrpf %lld adders; %d catalog "
      "workloads strictly improved; warm-cache %d/%d hits\n",
      rows.size(), sum_pb_simple, sum_pb_mrpf, sum_sh_cse, sum_sh_mrpf,
      gates.strict_improvements, gates.warm_hits, gates.warm_lookups);

  const char* json_name =
      ci_mode ? "BENCH_filterbank_ci.json" : "BENCH_filterbank.json";
  FILE* out = std::fopen(json_name, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_name);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"filterbank_study\",\n"
               "  \"ci_mode\": %s,\n"
               "  \"workloads\": [\n",
               ci_mode ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const WorkloadRow& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"factor\": %d, \"taps\": %zu,"
                 " \"catalog\": %s, \"per_branch_simple\": %d,"
                 " \"per_branch_mrpf\": %d, \"shared_cse\": %d,"
                 " \"shared_mrpf\": %d, \"sim_exact\": %s}%s\n",
                 r.name.c_str(), r.factor, r.taps,
                 r.catalog ? "true" : "false", r.per_branch_simple,
                 r.per_branch_mrpf, r.shared_cse, r.shared_mrpf,
                 r.sim_exact ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"totals\": {\"per_branch_simple\": %lld,"
               " \"per_branch_mrpf\": %lld, \"shared_cse\": %lld,"
               " \"shared_mrpf\": %lld},\n"
               "  \"warm_cache\": {\"lookups\": %d, \"hits\": %d},\n"
               "  \"gates\": {\"sim_exact\": %s, \"shared_leq_sum\": %s,"
               " \"strict_improvements\": %d, \"warm_all_hit\": %s,"
               " \"designers_structural\": %s}\n"
               "}\n",
               sum_pb_simple, sum_pb_mrpf, sum_sh_cse, sum_sh_mrpf,
               gates.warm_lookups, gates.warm_hits,
               gates.sim_exact ? "true" : "false",
               gates.shared_leq_sum ? "true" : "false",
               gates.strict_improvements, warm_all_hit ? "true" : "false",
               gates.designers_structural ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_name);

  if (!gates.sim_exact) {
    std::fprintf(stderr,
                 "gate: a polyphase structure diverged from the exact "
                 "reference\n");
    return 1;
  }
  if (!gates.shared_leq_sum) {
    std::fprintf(stderr,
                 "gate: a shared union solve cost more adders than the "
                 "per-branch sum\n");
    return 1;
  }
  if (gates.strict_improvements < 1) {
    std::fprintf(stderr,
                 "gate: no catalog workload improved strictly under "
                 "shared-bank synthesis\n");
    return 1;
  }
  if (!warm_all_hit) {
    std::fprintf(stderr,
                 "gate: a shared union bank missed the warm solve cache\n");
    return 1;
  }
  if (!gates.designers_structural) {
    std::fprintf(stderr,
                 "gate: a designed prototype lost its structural zero "
                 "pattern\n");
    return 1;
  }
  return 0;
}
