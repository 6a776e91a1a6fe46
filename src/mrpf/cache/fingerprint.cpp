#include "mrpf/cache/fingerprint.hpp"

#include <utility>

namespace mrpf::cache {

bool uses_mrp_canonical_form(core::Scheme scheme) {
  // kBnb searches over the primary-vertex set, so it is invariant under the
  // same group as MRP (drop zeros, odd part, sign, permutation, dedup).
  return scheme == core::Scheme::kMrp || scheme == core::Scheme::kMrpCse ||
         scheme == core::Scheme::kBnb;
}

CanonicalBank canonicalize(const std::vector<i64>& bank) {
  // extract_primaries is the canonicalization (drop zeros, odd part of the
  // absolute value, sort, dedup) and its refs are the back-transform; the
  // fingerprint layer only adds the hash on top.
  core::PrimaryBank pb = core::extract_primaries(bank);
  CanonicalBank cb;
  cb.values = std::move(pb.primaries);
  cb.refs = std::move(pb.refs);
  cb.content_hash = canonical_content_hash(cb.values);
  return cb;
}

CanonicalBank canonicalize(core::Scheme scheme, const std::vector<i64>& bank) {
  if (uses_mrp_canonical_form(scheme)) return canonicalize(bank);
  CanonicalBank cb;
  cb.values = bank;  // identity group: only exact repeats share an entry
  cb.content_hash = canonical_content_hash(cb.values);
  return cb;
}

u64 canonical_content_hash(const std::vector<i64>& canonical_values) {
  u64 h = kFnvOffset;
  for (const i64 v : canonical_values) {
    h = fnv1a64_word(static_cast<u64>(v), h);
  }
  return fnv1a64_word(static_cast<u64>(canonical_values.size()), h);
}

u64 solve_key(u64 content_hash, const SolveOptionsTag& tag) {
  return core::hash_spec(
      tag.spec, fnv1a64_word(static_cast<u64>(tag.scheme), content_hash));
}

}  // namespace mrpf::cache
