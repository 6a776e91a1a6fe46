// The result-relevant solve options, described once.
//
// A solve's result depends only on (bank, scheme, canonical SolveSpec).
// SolveSpec::visit lists every field once with its schema name, CLI flag
// and valid range, and each job that needs the whole field list is one
// generic function over it: equality and hashing (solve-cache tag and
// key), binary encoding (cache store, wire request), flag rendering and
// parsing (tools, fuzz replay) and the schema fingerprint that stamps
// persisted stores. Adding a knob is one row in visit plus its use in the
// algorithm; stores written under the old field list are then rejected by
// fingerprint, with no format version to edit.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "mrpf/common/bits.hpp"
#include "mrpf/io/serde_util.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf::core {

/// Built-in kBnb search-step budget when neither SolveSpec::opt_budget nor
/// MRPF_OPT_BUDGET picks one: the 10-bit single-constant sweep and the
/// Table-1 gap study solve to proven optimality well inside a CI minute.
inline constexpr long long kDefaultOptBudget = 2'000'000;
/// Built-in e-graph saturation budget when neither
/// PassConfig::xform_budget nor MRPF_XFORM_BUDGET picks one: the W=12
/// catalog saturates on every bank, a fuzz case stays under a millisecond.
inline constexpr long long kDefaultXformBudget = 500'000;
/// Upper clamps of both budget grammars (absurd budgets are typos).
inline constexpr long long kMaxOptBudget = 1'000'000'000'000;
inline constexpr long long kMaxXformBudget = 1'000'000'000'000;

/// Plan passes run between the SchemeDriver and lower_plan
/// (core/pass_manager.hpp).
struct PassConfig {
  /// Run the e-graph rewrite pass (src/mrpf/xform). Enabling is always
  /// explicit; MRPF_XFORM_BUDGET alone never turns the pass on.
  bool xform = false;
  /// Saturation-step budget; 0 = "unset": with the pass on,
  /// canonical_options resolves it from MRPF_XFORM_BUDGET or
  /// kDefaultXformBudget, so the key holds the budget the pass ran with.
  /// Pinned to 0 with the pass off, so pass-off keys never fragment.
  long long xform_budget = 0;
};

/// One SolveSpec field as the schema describes it.
struct SpecField {
  const char* name;  ///< Stable schema name (fingerprint, diagnostics).
  const char* flag;  ///< CLI flag (a switch for bools); null if none.
  double lo;         ///< Valid range, inclusive.
  double hi;
  std::span<const char* const> names = {};  ///< Enum spellings by value.
  const char* implies = nullptr;  ///< Switch flag this flag also sets.
};

inline constexpr const char* kRepNames[] = {"sm", "csd", "spt"};

struct SolveSpec {
  number::NumberRep rep = number::NumberRep::kSpt;
  /// Benefit trade-off: f = β·frequency − (1−β)·cost (paper eq. 1).
  /// β = 0.5 weighs sharing and implementation cost equally; lower values
  /// model expensive interconnect (§3.3).
  double beta = 0.5;
  /// Max predecessor shift (paper: the coefficient wordlength); -1 = auto.
  int l_max = -1;
  /// Max spanning-tree height; 0 = unconstrained. Table 1 uses 3.
  int depth_limit = 0;
  /// Apply MRP to the SEED network this many more times (§4).
  int recursive_levels = 0;
  /// Apply Hartley CSE (CSD) to the SEED network instead (§4, Fig. 8).
  bool cse_on_seed = false;
  /// Search-step budget of the exact scheme (kBnb, src/mrpf/opt); 0 =
  /// "unset": BnbDriver resolves it from MRPF_OPT_BUDGET or
  /// kDefaultOptBudget. Every other driver resets it to 0.
  long long opt_budget = 0;
  /// Plan passes; every driver resolves them (any plan can be rewritten).
  PassConfig passes;

  /// The schema: calls f(field, get) once per field, in schema order (the
  /// flag-rendering order); get(spec) returns a reference to that field
  /// of any SolveSpec, const or mutable.
  template <class F>
  static void visit(F&& f) {
    const auto field = [&f](SpecField info, auto get) { f(info, get); };
    field({"beta", "--beta", 0, 1}, [](auto& s) -> auto& { return s.beta; });
    field({"depth_limit", "--depth", 0, 64},
          [](auto& s) -> auto& { return s.depth_limit; });
    field({"recursive_levels", "--recursive", 0, 8},
          [](auto& s) -> auto& { return s.recursive_levels; });
    field({"l_max", "--l-max", -1, 63},
          [](auto& s) -> auto& { return s.l_max; });
    field({"opt_budget", "--opt-budget", 0, kMaxOptBudget},
          [](auto& s) -> auto& { return s.opt_budget; });
    field({"xform", "--xform", 0, 1},
          [](auto& s) -> auto& { return s.passes.xform; });
    field({"xform_budget", "--xform-budget", 0, kMaxXformBudget, {}, "--xform"},
          [](auto& s) -> auto& { return s.passes.xform_budget; });
    field({"rep", "--rep", 0, 2, kRepNames},
          [](auto& s) -> auto& { return s.rep; });
    field({"cse_on_seed", nullptr, 0, 1},
          [](auto& s) -> auto& { return s.cse_on_seed; });
  }

  /// Field-wise, doubles by bit pattern.
  bool operator==(const SolveSpec& other) const;
};

/// FNV-1a over every field's 64-bit word, seeded with `state`.
u64 hash_spec(const SolveSpec& spec, u64 state);

/// One little-endian word per field, in schema order. decode_spec throws
/// mrpf::Error naming the first field whose word is out of range.
void encode_spec(const SolveSpec& spec, io::ByteWriter& w);
SolveSpec decode_spec(io::ByteReader& r);

/// The non-default flagged fields as flags in schema order, each preceded
/// by a space (" --beta 0.3 --rep sm"). A switch implied by another
/// rendered flag is left out (--xform-budget N alone, never with --xform).
std::string to_flags(const SolveSpec& spec);

/// If `flag` is a spec flag, stores its value (fetched through `value`
/// unless the flag is a switch) and returns true, else returns false.
/// Throws mrpf::Error naming the flag on a malformed or out-of-range value.
bool apply_spec_flag(SolveSpec& spec, std::string_view flag,
                     const std::function<std::string()>& value);

/// Digest of the schema (names, kinds, ranges, enum spellings, in order).
/// Persisted stores carry it, so one written under another field list is
/// rejected wholesale.
u64 schema_fingerprint();

}  // namespace mrpf::core
