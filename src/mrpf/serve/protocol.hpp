// Application-level message types of the synthesis service, carried in
// io/frame_assembler wire frames (magic+version+type+length+FNV — the
// same framing shape as the MRS1 plan records the solve cache persists).
//
// A SynthRequest is one coefficient bank plus a scheme and a
// core::SolveSpec; the server answers with a SynthResponse whose payload
// embeds a standard io::serialize_plan MRS1 frame (so the on-wire plan
// format and the on-disk cache format are the same bytes), or with an
// ErrorFrame carrying a structured code + message. A StatsRequest returns
// the daemon's aggregate counters. Every decode path is strict: unknown
// schemes, out-of-range spec fields, truncated payloads, over-declared
// counts and trailing bytes all throw mrpf::Error and are answered with an
// error frame, never trusted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mrpf/core/scheme.hpp"
#include "mrpf/core/solve_spec.hpp"
#include "mrpf/core/synth_plan.hpp"

namespace mrpf::serve {

/// Wire-frame `type` values (io::WireFrame::type).
enum class MsgType : std::uint32_t {
  kPing = 1,           ///< Liveness probe; answered with kPong.
  kPong = 2,
  kSynthRequest = 3,   ///< Scheme + spec + bank.
  kSynthResponse = 4,  ///< Service flags + serialized SynthPlan.
  kError = 5,          ///< Structured error (code + message).
  kStatsRequest = 6,   ///< Counter snapshot request (empty payload).
  kStatsResponse = 7,
};

/// Error codes carried in kError frames.
enum class ErrorCode : std::uint32_t {
  kMalformedRequest = 1,  ///< Payload failed strict decoding.
  kSolveFailed = 2,       ///< The optimizer threw (invalid bank, ...).
  kUnsupportedType = 3,   ///< Unknown frame type.
  kShuttingDown = 4,      ///< Daemon is draining; retry elsewhere.
};

/// One synthesis request: the bank to optimize, its scheme and the whole
/// result-relevant spec (the wall-clock-only knobs — pool, cache, engine —
/// are the server's business, never the client's). Spec fields left unset
/// (0/false) are filled by server policy; see SynthServer::solve.
struct SynthRequest {
  std::vector<i64> bank;
  core::Scheme scheme = core::Scheme::kMrp;
  core::SolveSpec spec;
};

/// Service provenance flags a response carries alongside the plan.
struct SynthResponse {
  bool cache_hit = false;   ///< Served by rehydrating the solve cache.
  bool coalesced = false;   ///< Waited on an equivalent in-flight solve.
  core::SynthPlan plan;
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kMalformedRequest;
  std::string message;
};

/// Aggregate daemon counters (see serve/metrics.hpp for semantics).
struct StatsFrame {
  u64 connections = 0;
  u64 requests = 0;
  u64 synth_requests = 0;
  u64 errors = 0;
  u64 cache_hits = 0;
  u64 coalesced_joins = 0;
  u64 fresh_solves = 0;
  u64 queue_high_water = 0;
  u64 latency_samples = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  u64 cache_entries = 0;
  u64 cache_bytes = 0;
};

std::vector<std::uint8_t> encode_synth_request(const SynthRequest& req);
SynthRequest decode_synth_request(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_synth_response(const SynthResponse& resp);
SynthResponse decode_synth_response(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_error(const ErrorFrame& err);
ErrorFrame decode_error(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_stats(const StatsFrame& stats);
StatsFrame decode_stats(const std::vector<std::uint8_t>& payload);

}  // namespace mrpf::serve
