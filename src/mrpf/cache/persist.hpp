// Persistent on-disk store for the solve cache.
//
// File layout (little-endian):
//
//   u64 magic "MRPFCSH1"   u64 core::schema_fingerprint()
//   u64 entry_count
//   entry_count × [ u8 scheme | SolveSpec (one u64 per field) |
//                   canonical vector | result_serde plan frame ]
//   u64 fnv1a64 checksum over every preceding byte
//
// Loading is all-or-nothing and trust-nothing: bad magic, a foreign schema
// fingerprint, a checksum mismatch, a truncated entry, an out-of-range
// spec field, a non-canonical vector or a plan that is not the canonical
// plan of its vector all reject the *whole file* — load_solve_cache
// returns false and the cache is left untouched, so a corrupt or stale
// store silently degrades to a cold cache, never to wrong data. The
// fingerprint digests the SolveSpec field list, so a store written before
// a field was added, removed or re-ranged is rejected without any format
// version to maintain.
#pragma once

#include <cstdint>
#include <string>

#include "mrpf/cache/solve_cache.hpp"

namespace mrpf::cache {

inline constexpr u64 kCacheFileMagic = 0x31485343'4650524DULL;  // "MRPFCSH1"

/// Serializes every cache entry to `path` (atomically enough for the
/// flow: written to a temp sibling, then renamed). Returns false on I/O
/// failure.
bool save_solve_cache(const SolveCache& cache, const std::string& path);

/// Loads `path` into `cache`. Returns false — leaving `cache` unchanged —
/// if the file is missing, truncated, corrupt, or written under a different
/// SolveSpec schema. Entries go through SolveCache::insert_canonical, so
/// normal LRU budgeting applies.
bool load_solve_cache(SolveCache& cache, const std::string& path);

}  // namespace mrpf::cache
