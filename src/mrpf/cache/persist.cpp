#include "mrpf/cache/persist.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "mrpf/common/error.hpp"
#include "mrpf/common/hash.hpp"
#include "mrpf/io/result_serde.hpp"
#include "mrpf/io/serde_util.hpp"

namespace mrpf::cache {

bool save_solve_cache(const SolveCache& cache, const std::string& path) {
  std::vector<std::uint8_t> buffer;
  io::ByteWriter w(buffer);
  w.u64v(kCacheFileMagic);
  w.u64v(core::schema_fingerprint());
  const std::size_t count_pos = buffer.size();
  w.u64v(0);  // entry count, patched below
  u64 count = 0;
  cache.for_each([&](const SolveCache::StoredSolve& entry) {
    w.u8(static_cast<std::uint8_t>(entry.tag.scheme));
    core::encode_spec(entry.tag.spec, w);
    w.i64_array(*entry.canonical);
    io::serialize_plan(*entry.plan, buffer);
    ++count;
  });
  for (int b = 0; b < 8; ++b) {
    buffer[count_pos + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(count >> (8 * b));
  }
  w.u64v(fnv1a64(buffer.data(), buffer.size()));

  // Temp-then-rename so a crash mid-write leaves either the old store or
  // none — never a torn file that the loader would have to reject. The
  // temp name is unique per writer (pid + process-wide counter): two
  // processes — or two daemon shutdown paths — sharing one MRPF_CACHE
  // path used to race on a fixed `path + ".tmp"` sibling and could rename
  // a half-written peer file into place; now each writer stages its own
  // file and the final rename is the only shared step, which is atomic.
  static std::atomic<u64> save_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(save_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(buffer.data()),
              static_cast<std::streamsize>(buffer.size()));
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_solve_cache(SolveCache& cache, const std::string& path) {
  std::vector<std::uint8_t> buffer;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return false;
    const std::streamsize size = in.tellg();
    if (size < 32) return false;  // header + checksum minimum
    buffer.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(buffer.data()), size);
    if (!in) return false;
  }

  // Whole-file checksum first: all-or-nothing, so a partially valid
  // prefix of a corrupt file can never leak entries into the cache.
  const std::size_t body = buffer.size() - 8;
  io::ByteReader tail(buffer.data() + body, 8);
  if (fnv1a64(buffer.data(), body) != tail.u64v()) return false;

  // Parse everything into staging before touching the cache.
  struct Staged {
    SolveOptionsTag tag;
    std::vector<i64> canonical;
    core::SynthPlan plan;
  };
  std::vector<Staged> staged;
  try {
    io::ByteReader r(buffer.data(), body);
    if (r.u64v() != kCacheFileMagic) return false;
    if (r.u64v() != core::schema_fingerprint()) return false;
    const u64 count = r.u64v();
    for (u64 e = 0; e < count; ++e) {
      Staged s;
      const std::uint8_t scheme = r.u8();
      if (scheme >= core::kNumSchemes) return false;
      s.tag = {static_cast<core::Scheme>(scheme), core::decode_spec(r)};
      s.canonical = r.i64_array();
      std::size_t pos = r.pos();
      s.plan = io::deserialize_plan(buffer.data(), body, pos);
      r.skip(pos - r.pos());
      staged.push_back(std::move(s));
    }
    if (r.remaining() != 0) return false;  // trailing bytes before checksum
  } catch (const Error&) {
    return false;  // truncated entry, out-of-range spec or malformed plan
  }

  // Dry-run validation first so a checksum-valid but semantically invalid
  // (e.g. handcrafted) store rejects without touching the cache at all.
  for (const Staged& s : staged) {
    if (!is_canonical_plan(s.tag, s.canonical, s.plan)) return false;
  }
  for (Staged& s : staged) {
    const bool ok = cache.insert_canonical(s.tag, std::move(s.canonical),
                                           std::move(s.plan));
    MRPF_CHECK(ok, "solve cache: validated entry rejected on insert");
  }
  return true;
}

}  // namespace mrpf::cache
