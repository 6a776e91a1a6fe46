// Optimality-gap study for the exact branch-and-bound scheme: how far is
// the greedy MRPF plan from the provable optimum when an optimum is
// affordable, and how often can the search prove anything at all?
//
// Three workloads:
//  - Table-1 catalog filters (W=12 uniform, folded banks) — the paper's
//    own benchmark set, small enough for the exact search to engage.
//  - Randomized small banks (deterministic LCG: 2..5 coefficients of up
//    to 10 bits) — off-catalog structure the greedy heuristics were never
//    tuned on.
//  - Every odd single-coefficient bank up to 9 bits — the regime where
//    the ScmTable knows the true optimum, so "exact" is checkable against
//    an independent oracle.
//
// Each bank runs the unified pipeline for mrpf, mrpf+cse, mrpf with the
// e-graph rewrite pass (the mrp+e column) and bnb, plus one direct
// opt::bnb_solve for the proof metadata the SynthPlan does not carry
// (lower bound, hence the gap column). Emits BENCH_opt.json.
//
// `--ci` reduces the workloads and gates on the exact scheme's contract:
//  - bnb is never above its greedy upper bound (the mrpf column), and on
//    solved banks the pipeline adder count equals the search's optimum;
//  - the e-graph column sits between the two: never above greedy mrpf
//    (the pass keeps the input plan on a tie), never below the proven
//    optimum on solved banks;
//  - the pass recovers strictly positive total adder savings over greedy
//    MRPF across the full W=12 catalog (greedy + pass are cheap enough
//    to sweep the whole catalog even under --ci);
//  - on single-coefficient banks bnb matches the ScmTable cost exactly
//    whenever the table proves one (and is >= 4 on the ">3" sentinel).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/core/sidc.hpp"
#include "mrpf/opt/bnb.hpp"
#include "mrpf/opt/bounds.hpp"

namespace {

using namespace mrpf;

const char* status_name(opt::BnbStatus s) {
  switch (s) {
    case opt::BnbStatus::kOptimal:
      return "optimal";
    case opt::BnbStatus::kProvedExisting:
      return "proved";
    case opt::BnbStatus::kBudget:
      return "budget";
    case opt::BnbStatus::kSkipped:
      return "skipped";
  }
  return "?";
}

struct BankRow {
  std::string name;
  std::size_t coefficients = 0;
  int mrpf = 0;
  int mrpf_cse = 0;
  int mrpf_egraph = 0;  // greedy MRPF plan after the e-graph rewrite pass
  int bnb = 0;
  opt::BnbStatus status = opt::BnbStatus::kSkipped;
  int lower_bound = 0;
  long long steps = 0;
};

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

BankRow measure_bank(const std::string& name, const std::vector<i64>& bank,
                     long long budget) {
  core::MrpOptions opts;
  opts.opt_budget = budget;

  BankRow row;
  row.name = name;
  row.coefficients = bank.size();
  row.mrpf =
      core::optimize_bank(bank, core::Scheme::kMrp, opts).multiplier_adders;
  row.mrpf_cse =
      core::optimize_bank(bank, core::Scheme::kMrpCse, opts).multiplier_adders;
  // The e-graph column is the same greedy MRPF plan pushed through the
  // rewrite pass. The saturation budget is pinned so the bench reproduces
  // bit-exactly regardless of MRPF_XFORM_BUDGET in the environment.
  core::MrpOptions egraph_opts = opts;
  egraph_opts.passes.xform = true;
  egraph_opts.passes.xform_budget = core::kDefaultXformBudget;
  row.mrpf_egraph =
      core::optimize_bank(bank, core::Scheme::kMrp, egraph_opts)
          .multiplier_adders;
  row.bnb =
      core::optimize_bank(bank, core::Scheme::kBnb, opts).multiplier_adders;

  // The proof metadata (status, lower bound, steps) is not part of a
  // SynthPlan; rerun the deterministic search directly under the same
  // budget and upper bound the BnbDriver used.
  const core::PrimaryBank primaries = core::extract_primaries(bank);
  std::vector<i64> targets;
  for (const i64 p : primaries.primaries) {
    if (p > 1) targets.push_back(p);
  }
  opt::BnbOptions search;
  search.step_budget = budget;
  const opt::BnbOutcome outcome = opt::bnb_solve(targets, row.mrpf, search);
  row.status = outcome.status;
  row.lower_bound = outcome.lower_bound;
  row.steps = outcome.steps_explored;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ci_mode = bench::parse_ci_flag(argc, argv, "opt_gap");
  bench::print_header(
      ci_mode ? "Optimality gap smoke (--ci) — reduced workloads"
              : "Optimality gap — exact bnb vs greedy MRPF(+CSE)");

  const long long budget = ci_mode ? 500'000 : core::kDefaultOptBudget;
  std::vector<BankRow> rows;

  // Workload 1: catalog filters, W=12 uniform folded banks.
  const int nf =
      ci_mode ? std::min(4, filter::catalog_size()) : filter::catalog_size();
  for (int i = 0; i < nf; ++i) {
    rows.push_back(measure_bank(filter::catalog_spec(i).name,
                                bench::folded_bank(i, 12, false), budget));
  }

  // Workload 2: randomized small banks (2..5 coefficients, <= 10 bits).
  const int random_banks = ci_mode ? 12 : 40;
  Lcg rng(0x9e3779b97f4a7c15ull);
  for (int i = 0; i < random_banks; ++i) {
    const int n = static_cast<int>(rng.next_in(2, 5));
    const int bits = static_cast<int>(rng.next_in(6, 10));
    std::vector<i64> bank;
    for (int j = 0; j < n; ++j) {
      i64 v = rng.next_in(-((i64{1} << bits) - 1), (i64{1} << bits) - 1);
      if (v == 0) v = 3;
      bank.push_back(v);
    }
    char name[16];
    std::snprintf(name, sizeof(name), "rnd%02d", i);
    rows.push_back(measure_bank(name, bank, budget));
  }

  std::printf("%-6s %4s %6s %6s %6s %6s %4s %4s %-8s %10s\n", "name", "n",
              "mrpf", "mrp+c", "mrp+e", "bnb", "lb", "gap", "status", "steps");
  bool bnb_leq_greedy = true;
  bool solved_counts_agree = true;
  bool egraph_leq_greedy = true;
  bool egraph_geq_optimum = true;
  double total_mrpf = 0, total_mrpf_cse = 0, total_egraph = 0, total_bnb = 0;
  int solved = 0, proved = 0, budget_limited = 0, skipped = 0;
  for (const BankRow& r : rows) {
    total_mrpf += r.mrpf;
    total_mrpf_cse += r.mrpf_cse;
    total_egraph += r.mrpf_egraph;
    total_bnb += r.bnb;
    bnb_leq_greedy = bnb_leq_greedy && r.bnb <= r.mrpf;
    // The pass keeps the input plan on a tie, so it can never sit above
    // greedy MRPF; on solved banks it can never beat the proven optimum.
    egraph_leq_greedy = egraph_leq_greedy && r.mrpf_egraph <= r.mrpf;
    switch (r.status) {
      case opt::BnbStatus::kOptimal:
        ++solved;
        // The pipeline must land exactly on the search's optimum.
        solved_counts_agree = solved_counts_agree && r.bnb == r.lower_bound;
        egraph_geq_optimum =
            egraph_geq_optimum && r.mrpf_egraph >= r.lower_bound;
        break;
      case opt::BnbStatus::kProvedExisting:
        ++proved;
        break;
      case opt::BnbStatus::kBudget:
        ++budget_limited;
        break;
      case opt::BnbStatus::kSkipped:
        ++skipped;
        break;
    }
    std::printf("%-6s %4zu %6d %6d %6d %6d %4d %4d %-8s %10lld\n",
                r.name.c_str(), r.coefficients, r.mrpf, r.mrpf_cse,
                r.mrpf_egraph, r.bnb, r.lower_bound, r.bnb - r.lower_bound,
                status_name(r.status), r.steps);
  }

  // Workload 3: single-coefficient banks against the ScmTable oracle.
  const i64 scm_limit = (i64{1} << (ci_mode ? 7 : 9)) - 1;
  int scm_banks = 0, scm_exact_checked = 0, scm_sentinel_checked = 0;
  bool scm_exact_match = true;
  core::MrpOptions scm_opts;
  scm_opts.opt_budget = budget;
  for (i64 c = 3; c <= scm_limit; c += 2) {
    ++scm_banks;
    const int adders =
        core::optimize_bank({c}, core::Scheme::kBnb, scm_opts)
            .multiplier_adders;
    if (const std::optional<int> exact = opt::scm_exact_cost(c)) {
      ++scm_exact_checked;
      scm_exact_match = scm_exact_match && adders == *exact;
    } else {
      // The ">3 adders" sentinel is still a bound the result must respect.
      ++scm_sentinel_checked;
      scm_exact_match = scm_exact_match && adders >= 4;
    }
  }
  std::printf(
      "\nscm sweep: %d single-coefficient banks (odd c <= %lld) — "
      "%d table-exact, %d sentinel, match=%s\n",
      scm_banks, static_cast<long long>(scm_limit), scm_exact_checked,
      scm_sentinel_checked, scm_exact_match ? "yes" : "NO");

  // Workload 4: e-graph gap closure over the FULL W=12 catalog. The exact
  // search above had to shrink its workload under --ci, but greedy MRPF
  // plus the rewrite pass is cheap, so the savings gate always sees every
  // catalog filter — a reduced set could make "strictly positive savings"
  // vacuous or flaky.
  long long catalog_mrpf = 0, catalog_egraph = 0;
  {
    core::MrpOptions greedy_opts;
    core::MrpOptions pass_opts;
    pass_opts.passes.xform = true;
    pass_opts.passes.xform_budget = core::kDefaultXformBudget;
    for (int i = 0; i < filter::catalog_size(); ++i) {
      const std::vector<i64> bank = bench::folded_bank(i, 12, false);
      catalog_mrpf +=
          core::optimize_bank(bank, core::Scheme::kMrp, greedy_opts)
              .multiplier_adders;
      catalog_egraph +=
          core::optimize_bank(bank, core::Scheme::kMrp, pass_opts)
              .multiplier_adders;
    }
  }
  const long long catalog_savings = catalog_mrpf - catalog_egraph;
  std::printf(
      "egraph sweep: full W=12 catalog (%d filters) — mrpf %lld adders, "
      "mrpf+egraph %lld adders, savings %lld\n",
      filter::catalog_size(), catalog_mrpf, catalog_egraph, catalog_savings);

  bench::print_paper_note(
      "the paper reports greedy MRPF only; the exact search bounds how "
      "much adder count its heuristic leaves on the table.");
  std::printf(
      "MEASURED: totals over %zu banks — mrpf %.0f, mrpf+cse %.0f, "
      "mrpf+egraph %.0f, bnb %.0f (%.1f%% vs mrpf); %d solved, "
      "%d proved-greedy-optimal, %d budget-limited, %d skipped\n",
      rows.size(), total_mrpf, total_mrpf_cse, total_egraph, total_bnb,
      100.0 * total_bnb / total_mrpf, solved, proved, budget_limited,
      skipped);

  const char* json_name = ci_mode ? "BENCH_opt_ci.json" : "BENCH_opt.json";
  FILE* out = std::fopen(json_name, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_name);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"opt_gap\",\n"
               "  \"ci_mode\": %s,\n"
               "  \"step_budget\": %lld,\n"
               "  \"banks\": [\n",
               ci_mode ? "true" : "false", budget);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BankRow& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"coefficients\": %zu,"
                 " \"mrpf\": %d, \"mrpf_cse\": %d, \"mrpf_egraph\": %d,"
                 " \"bnb\": %d,"
                 " \"status\": \"%s\", \"lower_bound\": %d, \"gap\": %d,"
                 " \"steps\": %lld}%s\n",
                 r.name.c_str(), r.coefficients, r.mrpf, r.mrpf_cse,
                 r.mrpf_egraph, r.bnb, status_name(r.status), r.lower_bound,
                 r.bnb - r.lower_bound, r.steps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"summary\": {\"solved\": %d, \"proved_existing\": %d,"
               " \"budget_limited\": %d, \"skipped\": %d},\n"
               "  \"scm_sweep\": {\"banks\": %d, \"table_exact\": %d,"
               " \"sentinel\": %d, \"match\": %s},\n"
               "  \"egraph_sweep\": {\"catalog_filters\": %d,"
               " \"wordlength\": 12, \"mrpf\": %lld, \"mrpf_egraph\": %lld,"
               " \"savings\": %lld},\n"
               "  \"gates\": {\"bnb_leq_greedy\": %s,"
               " \"solved_counts_agree\": %s, \"egraph_leq_greedy\": %s,"
               " \"egraph_geq_optimum\": %s, \"egraph_positive_savings\": %s,"
               " \"scm_exact_match\": %s}\n"
               "}\n",
               solved, proved, budget_limited, skipped, scm_banks,
               scm_exact_checked, scm_sentinel_checked,
               scm_exact_match ? "true" : "false", filter::catalog_size(),
               catalog_mrpf, catalog_egraph, catalog_savings,
               bnb_leq_greedy ? "true" : "false",
               solved_counts_agree ? "true" : "false",
               egraph_leq_greedy ? "true" : "false",
               egraph_geq_optimum ? "true" : "false",
               catalog_savings > 0 ? "true" : "false",
               scm_exact_match ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_name);

  if (!bnb_leq_greedy) {
    std::fprintf(stderr, "gate: bnb exceeded its greedy upper bound\n");
    return 1;
  }
  if (!solved_counts_agree) {
    std::fprintf(stderr,
                 "gate: pipeline adders disagree with the solved optimum\n");
    return 1;
  }
  if (!egraph_leq_greedy) {
    std::fprintf(stderr,
                 "gate: the e-graph pass made a plan worse than greedy "
                 "mrpf\n");
    return 1;
  }
  if (!egraph_geq_optimum) {
    std::fprintf(stderr,
                 "gate: the e-graph column undercut a proven optimum\n");
    return 1;
  }
  if (catalog_savings <= 0) {
    std::fprintf(stderr,
                 "gate: the e-graph pass recovered no adders over greedy "
                 "mrpf on the W=12 catalog\n");
    return 1;
  }
  if (!scm_exact_match) {
    std::fprintf(stderr,
                 "gate: bnb missed the ScmTable optimum on a "
                 "single-coefficient bank\n");
    return 1;
  }
  return 0;
}
