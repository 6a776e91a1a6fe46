// Canonical coefficient fingerprints for the solve cache.
//
// Canonicalization is per scheme, because each scheme has its own bank
// equivalence group:
//
//  - kMrp / kMrpCse: the MRP transformation is invariant under dropping
//    zeros, negating coefficients, shifting them by powers of two,
//    permuting and duplicating them — all leave the primary-vertex set,
//    and therefore every field of the solve except the per-coefficient
//    back-references, unchanged (paper §3.1: every constant is ±(p << s)
//    with p odd and positive, and only the distinct p survive into stage
//    A). Canonicalization reduces a bank to that invariant: drop zeros,
//    take the odd part of the absolute value, sort, dedup. The
//    per-coefficient back-transform (vertex index, shift, sign) is exactly
//    what rehydrating a cached canonical solve for the original vector
//    needs, and is the same data core::extract_primaries computes.
//
//  - every other scheme: the identity group. Simple and CSE costs count
//    duplicate coefficients; diff-MST edge weights are not
//    shift-invariant; RAG-n depends on the exact multiset. So the
//    canonical form is the bank verbatim and only exact repeats share an
//    entry — sound for any scheme, just less sharing.
//
// Alongside the bank, the fingerprint hashes the scheme and its canonical
// SolveSpec, so every scheme keys its own namespace in one shared cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mrpf/common/hash.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/sidc.hpp"

namespace mrpf::cache {

/// The canonical form of a coefficient bank under a scheme's equivalence
/// group, plus everything needed to map a cached canonical solve back onto
/// the original vector.
struct CanonicalBank {
  /// MRP schemes: sorted, unique, odd, positive — identical for every
  /// equivalent bank (== core::extract_primaries(bank).primaries).
  /// Other schemes: the bank verbatim.
  std::vector<i64> values;
  /// MRP schemes only — per original coefficient: c == ±(values[vertex]
  /// << shift), vertex -1 for the constant 0 (==
  /// core::extract_primaries(bank).refs). Empty for identity-group
  /// schemes (no transform to undo).
  std::vector<core::PrimaryBank::Ref> refs;
  /// FNV-1a over the canonical words and their count. Equal for every
  /// equivalent bank; collisions across inequivalent banks are possible
  /// (64-bit), which is why SolveCache verifies `values` on every lookup.
  u64 content_hash = 0;
};

/// MRP-group canonicalization (kMrp/kMrpCse).
CanonicalBank canonicalize(const std::vector<i64>& bank);

/// Scheme-dispatching canonicalization: the MRP group for kMrp/kMrpCse,
/// the identity group (bank verbatim, no refs) for every other scheme.
CanonicalBank canonicalize(core::Scheme scheme, const std::vector<i64>& bank);

/// True when the scheme's equivalence group folds banks onto the MRP
/// primary-vertex canonical form (and cached taps need the refs
/// back-transform on rehydration).
bool uses_mrp_canonical_form(core::Scheme scheme);

/// What selects a distinct solve besides the bank: the scheme and the
/// scheme's canonical SolveSpec. Session fields (pool, cache,
/// use_reference_engine) cannot reach it — they change wall time, never a
/// result field. Stored alongside each cache entry so a lookup match is
/// exact, not just hash-equal.
struct SolveOptionsTag {
  core::Scheme scheme = core::Scheme::kMrp;  ///< Cache namespace.
  core::SolveSpec spec;

  bool operator==(const SolveOptionsTag&) const = default;
};

/// content_hash of an already-canonical value vector (the persistence load
/// path re-derives hashes instead of trusting the file).
u64 canonical_content_hash(const std::vector<i64>& canonical_values);

/// 64-bit solve fingerprint: content_hash of the canonical bank mixed with
/// the scheme and every spec field. Two (bank, scheme, spec) triples with
/// equal keys are intended to share one cache entry; SolveCache still
/// verifies the canonical words and tag before trusting a hit.
u64 solve_key(u64 content_hash, const SolveOptionsTag& tag);

}  // namespace mrpf::cache
