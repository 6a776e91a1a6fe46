#include "mrpf/serve/protocol.hpp"

#include "mrpf/common/error.hpp"
#include "mrpf/io/result_serde.hpp"
#include "mrpf/io/serde_util.hpp"

namespace mrpf::serve {

namespace {

// A bank larger than this is far beyond any filter the pipeline is sized
// for and almost certainly a garbage length that survived framing.
constexpr std::size_t kMaxRequestBank = 1u << 20;

}  // namespace

std::vector<std::uint8_t> encode_synth_request(const SynthRequest& req) {
  std::vector<std::uint8_t> out;
  io::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(req.scheme));
  core::encode_spec(req.spec, w);
  w.i64_array(req.bank);
  return out;
}

SynthRequest decode_synth_request(const std::vector<std::uint8_t>& payload) {
  io::ByteReader r(payload.data(), payload.size());
  SynthRequest req;
  const std::uint8_t scheme = r.u8();
  MRPF_CHECK(scheme < core::kNumSchemes, "synth request: unknown scheme");
  req.scheme = static_cast<core::Scheme>(scheme);
  req.spec = core::decode_spec(r);
  req.bank = r.i64_array();
  MRPF_CHECK(req.bank.size() <= kMaxRequestBank,
             "synth request: bank too large");
  MRPF_CHECK(r.remaining() == 0, "synth request: trailing bytes");
  return req;
}

std::vector<std::uint8_t> encode_synth_response(const SynthResponse& resp) {
  std::vector<std::uint8_t> out;
  io::ByteWriter w(out);
  w.u8(resp.cache_hit ? 1 : 0);
  w.u8(resp.coalesced ? 1 : 0);
  w.u8(0);  // reserved
  w.u8(0);  // reserved
  io::serialize_plan(resp.plan, out);
  return out;
}

SynthResponse decode_synth_response(const std::vector<std::uint8_t>& payload) {
  io::ByteReader r(payload.data(), payload.size());
  SynthResponse resp;
  resp.cache_hit = r.u8() != 0;
  resp.coalesced = r.u8() != 0;
  r.u8();
  r.u8();
  std::size_t pos = 4;
  resp.plan = io::deserialize_plan(payload.data(), payload.size(), pos);
  MRPF_CHECK(pos == payload.size(), "synth response: trailing bytes");
  return resp;
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& err) {
  std::vector<std::uint8_t> out;
  io::ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(err.code));
  w.str(err.message);
  return out;
}

ErrorFrame decode_error(const std::vector<std::uint8_t>& payload) {
  io::ByteReader r(payload.data(), payload.size());
  ErrorFrame err;
  err.code = static_cast<ErrorCode>(r.u32());
  err.message = r.str();
  MRPF_CHECK(r.remaining() == 0, "error frame: trailing bytes");
  return err;
}

std::vector<std::uint8_t> encode_stats(const StatsFrame& stats) {
  std::vector<std::uint8_t> out;
  io::ByteWriter w(out);
  w.u64v(stats.connections);
  w.u64v(stats.requests);
  w.u64v(stats.synth_requests);
  w.u64v(stats.errors);
  w.u64v(stats.cache_hits);
  w.u64v(stats.coalesced_joins);
  w.u64v(stats.fresh_solves);
  w.u64v(stats.queue_high_water);
  w.u64v(stats.latency_samples);
  w.f64(stats.p50_ns);
  w.f64(stats.p99_ns);
  w.u64v(stats.cache_entries);
  w.u64v(stats.cache_bytes);
  return out;
}

StatsFrame decode_stats(const std::vector<std::uint8_t>& payload) {
  io::ByteReader r(payload.data(), payload.size());
  StatsFrame stats;
  stats.connections = r.u64v();
  stats.requests = r.u64v();
  stats.synth_requests = r.u64v();
  stats.errors = r.u64v();
  stats.cache_hits = r.u64v();
  stats.coalesced_joins = r.u64v();
  stats.fresh_solves = r.u64v();
  stats.queue_high_water = r.u64v();
  stats.latency_samples = r.u64v();
  stats.p50_ns = r.f64();
  stats.p99_ns = r.f64();
  stats.cache_entries = r.u64v();
  stats.cache_bytes = r.u64v();
  MRPF_CHECK(r.remaining() == 0, "stats frame: trailing bytes");
  return stats;
}

}  // namespace mrpf::serve
