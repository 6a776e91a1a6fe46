// Synthesis daemon tests: protocol strictness, coalescing of equivalent
// requests (herd, leader failure and retry), end-to-end server behavior
// over real sockets (per-scheme round trips bit-identical to direct
// solves, cache-hit provenance, error frames, malformed/oversized frame
// rejection, waiter-disconnect resilience) and graceful drain with cache
// persistence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mrpf/common/error.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/io/frame_assembler.hpp"
#include "mrpf/serve/client.hpp"
#include "mrpf/serve/protocol.hpp"
#include "mrpf/serve/server.hpp"
#include "mrpf/verify/fuzz.hpp"
#include "spec_words.hpp"

namespace mrpf::serve {
namespace {

const std::vector<i64> kPaperExample = {7, 66, 17, 9, 27, 41, 57, 11};
// Values this wide make the color-graph shift guard throw — the
// deterministic "solver failed" request.
const std::vector<i64> kOverflowBank = {i64{1} << 62, (i64{1} << 62) - 1, 7};

std::string unique_sock(const char* tag) {
  // /tmp keeps us inside sockaddr_un's ~108-char path limit (TempDir can
  // be long under some runners).
  return "/tmp/mrpf_test_" + std::string(tag) + "." +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

/// An in-process server on a unix socket, torn down on scope exit.
struct ServerFixture {
  explicit ServerFixture(ServeConfig config = {},
                         const char* tag = "serve")
      : path(unique_sock(tag)), server(std::move(config)) {
    server.bind_unix(path);
    thread = std::thread([this] { server.run(); });
  }
  ~ServerFixture() {
    if (thread.joinable()) {
      server.request_shutdown();
      thread.join();
    }
    std::remove(path.c_str());
  }
  ServeClient client() {
    ServeClient c;
    c.connect_unix(path);
    return c;
  }

  std::string path;
  SynthServer server;
  std::thread thread;
};

// ---------------------------------------------------------------------------
// Protocol encode/decode

TEST(Protocol, SynthRequestRoundTripsEveryField) {
  SynthRequest req;
  req.bank = {-7, 0, 66, 17};
  req.scheme = core::Scheme::kMrpCse;
  req.spec.beta = 0.25;
  req.spec.l_max = 12;
  req.spec.depth_limit = 3;
  req.spec.rep = number::NumberRep::kCsd;
  req.spec.cse_on_seed = true;
  req.spec.recursive_levels = 2;
  const SynthRequest back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.bank, req.bank);
  EXPECT_EQ(back.scheme, req.scheme);
  EXPECT_EQ(back.spec.beta, req.spec.beta);
  EXPECT_EQ(back.spec.l_max, req.spec.l_max);
  EXPECT_EQ(back.spec.depth_limit, req.spec.depth_limit);
  EXPECT_EQ(back.spec.rep, req.spec.rep);
  EXPECT_EQ(back.spec.cse_on_seed, req.spec.cse_on_seed);
  EXPECT_EQ(back.spec.recursive_levels, req.spec.recursive_levels);

  core::MrpOptions opts;
  opts.spec() = back.spec;
  EXPECT_EQ(opts.rep, number::NumberRep::kCsd);
  EXPECT_EQ(opts.beta, 0.25);
  EXPECT_EQ(opts.l_max, 12);
  EXPECT_EQ(opts.depth_limit, 3);
  EXPECT_TRUE(opts.cse_on_seed);
  EXPECT_EQ(opts.recursive_levels, 2);
}

TEST(Protocol, StrictDecodeRejectsOutOfRangeAndTrailingBytes) {
  SynthRequest req;
  req.bank = kPaperExample;
  std::vector<std::uint8_t> good = encode_synth_request(req);

  {
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);  // trailing byte
    EXPECT_THROW(decode_synth_request(bad), Error);
  }
  {
    std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
    EXPECT_THROW(decode_synth_request(truncated), Error);
  }
  EXPECT_THROW(decode_synth_request({}), Error);

  // Out-of-range enums/options are data errors, not trusted.
  SynthRequest bad_scheme;
  bad_scheme.bank = kPaperExample;
  std::vector<std::uint8_t> enc = encode_synth_request(bad_scheme);
  // scheme is the first byte after the bank array; corrupt via re-encode:
  bad_scheme.spec.rep = static_cast<number::NumberRep>(9);
  EXPECT_THROW(decode_synth_request(encode_synth_request(bad_scheme)),
               Error);
  SynthRequest bad_beta;
  bad_beta.bank = kPaperExample;
  bad_beta.spec.beta = 1.5;
  EXPECT_THROW(decode_synth_request(encode_synth_request(bad_beta)), Error);
  SynthRequest bad_levels;
  bad_levels.bank = kPaperExample;
  bad_levels.spec.recursive_levels = 99;
  EXPECT_THROW(decode_synth_request(encode_synth_request(bad_levels)),
               Error);
  (void)enc;

  // Every spec field, each word just outside its range: the spec follows
  // the scheme byte.
  for_each_bad_spec_word(
      [&good](std::size_t index, const core::SpecField& f, u64 word) {
        std::vector<std::uint8_t> bad = good;
        put_word(bad, 1 + 8 * index, word);
        EXPECT_THROW(decode_synth_request(bad), Error) << f.name;
      });
}

TEST(Protocol, SchemeByteBoundTracksTheRegistry) {
  // The wire accepts exactly the registered schemes: the bound is derived
  // from core::kNumSchemes, never hard-coded, so a newly registered
  // scheme (bnb is the seventh) is accepted without protocol changes.
  SynthRequest req;
  req.bank = kPaperExample;
  std::vector<std::uint8_t> enc = encode_synth_request(req);
  // Byte 0 is the scheme tag: the highest registered value decodes...
  enc[0] = static_cast<std::uint8_t>(core::kNumSchemes - 1);
  EXPECT_EQ(decode_synth_request(enc).scheme, core::Scheme::kBnb);
  // ...and one past it is a data error, not a trusted enum.
  enc[0] = static_cast<std::uint8_t>(core::kNumSchemes);
  EXPECT_THROW(decode_synth_request(enc), Error);
}

TEST(Protocol, ErrorAndStatsFramesRoundTrip) {
  const ErrorFrame err{ErrorCode::kSolveFailed, "it broke"};
  const ErrorFrame err_back = decode_error(encode_error(err));
  EXPECT_EQ(err_back.code, ErrorCode::kSolveFailed);
  EXPECT_EQ(err_back.message, "it broke");

  StatsFrame stats;
  stats.requests = 100;
  stats.cache_hits = 42;
  stats.coalesced_joins = 7;
  stats.p99_ns = 1234.5;
  stats.cache_bytes = 1 << 20;
  const StatsFrame back = decode_stats(encode_stats(stats));
  EXPECT_EQ(back.requests, 100u);
  EXPECT_EQ(back.cache_hits, 42u);
  EXPECT_EQ(back.coalesced_joins, 7u);
  EXPECT_EQ(back.p99_ns, 1234.5);
  EXPECT_EQ(back.cache_bytes, u64{1} << 20);
}

TEST(Protocol, SynthResponseEmbedsAStandardPlanFrame) {
  SynthResponse resp;
  resp.cache_hit = true;
  resp.coalesced = true;
  resp.plan = core::optimize_bank(kPaperExample, core::Scheme::kMrp).plan;
  const SynthResponse back =
      decode_synth_response(encode_synth_response(resp));
  EXPECT_TRUE(back.cache_hit);
  EXPECT_TRUE(back.coalesced);
  EXPECT_EQ(verify::plan_mismatch(back.plan, resp.plan), std::nullopt);
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets

TEST(Server, RoundTripsEverySchemeBitIdenticalToDirectSolves) {
  ServerFixture fx({}, "schemes");
  ServeClient client = fx.client();
  client.ping();
  for (const core::Scheme scheme : core::all_schemes()) {
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = scheme;
    const SynthResponse resp = client.synth(req);
    const core::SchemeResult direct =
        core::optimize_bank(kPaperExample, scheme);
    EXPECT_EQ(verify::plan_mismatch(resp.plan, direct.plan), std::nullopt)
        << core::to_string(scheme);
  }
}

TEST(Server, RequestSpecFieldsWinOverServerPolicy) {
  // Explicit wins, else server policy: a request that turns the e-graph
  // pass on gets it from a daemon started without --xform, with exactly
  // the plan a direct solve of that spec produces (simple on the paper
  // bank: the pass wins 12 -> 8 adders).
  ServerFixture fx({}, "reqspec");
  ServeClient client = fx.client();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kSimple;
  req.spec.passes.xform = true;
  req.spec.passes.xform_budget = 60'000;
  const SynthResponse resp = client.synth(req);
  core::MrpOptions direct;
  direct.spec() = req.spec;
  const core::SchemeResult expect =
      core::optimize_bank(req.bank, req.scheme, direct);
  EXPECT_EQ(verify::plan_mismatch(resp.plan, expect.plan), std::nullopt);
  EXPECT_TRUE(resp.plan.xform.has_value());
  EXPECT_EQ(resp.plan.analytic_adders, 8);
}

TEST(Server, SecondEquivalentRequestIsAWarmHit) {
  ServerFixture fx({}, "warm");
  ServeClient client = fx.client();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kMrp;
  const SynthResponse first = client.synth(req);
  EXPECT_FALSE(first.cache_hit);

  // An equivalent-but-different bank lands on the same canonical solve.
  SynthRequest equiv;
  equiv.bank = {-14, 66, 17, 9, 27, 41, 57, 11, 0};  // 7*-2, zero pad
  equiv.scheme = core::Scheme::kMrp;
  const SynthResponse second = client.synth(equiv);
  EXPECT_TRUE(second.cache_hit);
  const core::SchemeResult direct =
      core::optimize_bank(equiv.bank, core::Scheme::kMrp);
  EXPECT_EQ(verify::plan_mismatch(second.plan, direct.plan), std::nullopt);
}

TEST(Server, ThunderingHerdCoalescesToOneFreshSolve) {
  ServeConfig config;
  config.workers = 8;
  ServerFixture fx(std::move(config), "herd");
  constexpr int kClients = 8;
  std::atomic<int> fresh{0};
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      ServeClient client = fx.client();
      SynthRequest req;
      req.bank = {7, 66, 17, 9, 27, 41, 57, 11, 23, 81, 5, 19};
      req.scheme = core::Scheme::kMrp;
      const SynthResponse resp = client.synth(req);
      if (!resp.cache_hit) fresh.fetch_add(1);
      served.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(served.load(), kClients);
  // The leader publishes before releasing anyone, so exactly one request
  // can ever see a cold cache — regardless of arrival interleaving.
  EXPECT_EQ(fresh.load(), 1);
}

TEST(Server, SolverFailureBecomesAnErrorFrameAndNeverWedges) {
  ServerFixture fx({}, "solvefail");
  ServeClient client = fx.client();
  SynthRequest req;
  req.bank = kOverflowBank;
  req.scheme = core::Scheme::kMrp;
  // The failing solve is answered with a structured error...
  EXPECT_THROW(client.synth(req), Error);
  // ...the in-flight entry was reaped: retrying fails identically (a
  // fresh attempt, not a wedged waiter), over the same connection...
  EXPECT_THROW(client.synth(req), Error);
  // ...and the connection and server still serve good requests.
  SynthRequest good;
  good.bank = kPaperExample;
  good.scheme = core::Scheme::kMrp;
  const SynthResponse resp = client.synth(good);
  EXPECT_EQ(verify::plan_mismatch(
                resp.plan,
                core::optimize_bank(kPaperExample, core::Scheme::kMrp).plan),
            std::nullopt);
  const StatsFrame stats = client.stats();
  EXPECT_EQ(stats.errors, 2u);
}

TEST(Server, MalformedPayloadGetsAnErrorFrameThenGarbageDropsConnection) {
  ServerFixture fx({}, "malformed");
  ServeClient client = fx.client();
  // Valid wire frame, garbage synth payload: structured error, and the
  // connection survives (framing is still synchronized).
  const io::WireFrame reply =
      client.transact(MsgType::kSynthRequest, {1, 2, 3});
  ASSERT_EQ(static_cast<MsgType>(reply.type), MsgType::kError);
  EXPECT_EQ(decode_error(reply.payload).code, ErrorCode::kMalformedRequest);
  client.ping();  // still alive

  // Unknown frame type: structured error, still alive.
  const io::WireFrame unknown = client.transact(static_cast<MsgType>(999), {});
  ASSERT_EQ(static_cast<MsgType>(unknown.type), MsgType::kError);
  EXPECT_EQ(decode_error(unknown.payload).code, ErrorCode::kUnsupportedType);
  client.ping();

  // A full header's worth of garbage (bad magic): one error frame, then
  // the server MUST drop the connection — desynchronized framing cannot
  // be resynced.
  client.send_raw(std::vector<std::uint8_t>(io::kWireHeaderBytes, 0xDE));
  const io::WireFrame err = client.read_frame();
  ASSERT_EQ(static_cast<MsgType>(err.type), MsgType::kError);
  EXPECT_THROW(client.read_frame(), Error);  // EOF: server closed
}

TEST(Server, OversizedDeclaredFrameIsRejectedWithoutAllocation) {
  ServeConfig config;
  config.max_frame_payload = 1024;
  ServerFixture fx(std::move(config), "oversize");
  ServeClient client = fx.client();
  // A header declaring 1 GiB: refused from the header alone.
  std::vector<std::uint8_t> huge;
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kSynthRequest),
                        std::vector<std::uint8_t>(2048, 0x77), huge);
  client.send_raw(huge);
  const io::WireFrame err = client.read_frame();
  ASSERT_EQ(static_cast<MsgType>(err.type), MsgType::kError);
  EXPECT_NE(decode_error(err.payload).message.find("length"),
            std::string::npos);
  EXPECT_THROW(client.read_frame(), Error);  // connection dropped
}

TEST(Server, WaiterDisconnectDoesNotPoisonTheServer) {
  ServeConfig config;
  config.workers = 4;
  ServerFixture fx(std::move(config), "hangup");
  // A client fires a request and slams the connection without reading.
  {
    ServeClient rude = fx.client();
    SynthRequest req;
    req.bank = {3, 5, 19, 21, 7, 66};
    req.scheme = core::Scheme::kMrp;
    std::vector<std::uint8_t> bytes;
    io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kSynthRequest),
                          encode_synth_request(req), bytes);
    rude.send_raw(bytes);
    rude.close();
  }
  // The server absorbs the hangup (EPIPE on reply) and keeps serving.
  ServeClient polite = fx.client();
  SynthRequest req;
  req.bank = {3, 5, 19, 21, 7, 66};
  req.scheme = core::Scheme::kMrp;
  const SynthResponse resp = polite.synth(req);
  EXPECT_EQ(
      verify::plan_mismatch(
          resp.plan,
          core::optimize_bank(req.bank, core::Scheme::kMrp).plan),
      std::nullopt);
}

TEST(Server, PipelinedFramesInOneSegmentAllAnswer) {
  ServerFixture fx({}, "pipeline");
  ServeClient client = fx.client();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kSimple;
  std::vector<std::uint8_t> burst;
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kPing), {},
                        burst);
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kSynthRequest),
                        encode_synth_request(req), burst);
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kStatsRequest),
                        {}, burst);
  client.send_raw(burst);
  EXPECT_EQ(static_cast<MsgType>(client.read_frame().type), MsgType::kPong);
  const io::WireFrame synth = client.read_frame();
  EXPECT_EQ(static_cast<MsgType>(synth.type), MsgType::kSynthResponse);
  EXPECT_EQ(static_cast<MsgType>(client.read_frame().type),
            MsgType::kStatsResponse);
}

TEST(Server, DrainPersistsTheCacheAndRefusesNewConnections) {
  const std::string store =
      "/tmp/mrpf_test_drain." + std::to_string(::getpid()) + ".mrpc";
  std::remove(store.c_str());
  std::string path;
  {
    ServeConfig config;
    config.cache_path = store;
    ServerFixture fx(std::move(config), "drain");
    path = fx.path;
    ServeClient client = fx.client();
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = core::Scheme::kMrp;
    (void)client.synth(req);

    fx.server.request_shutdown();
    fx.thread.join();
    EXPECT_TRUE(fx.server.draining());
    EXPECT_TRUE(fx.server.cache_persisted());
  }
  // The persisted store is a valid cache with the solve in it: a fresh
  // server warming from it answers the same request as a hit.
  {
    ServeConfig config;
    config.cache_path = store;
    ServerFixture fx(std::move(config), "drain2");
    ServeClient client = fx.client();
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = core::Scheme::kMrp;
    const SynthResponse resp = client.synth(req);
    EXPECT_TRUE(resp.cache_hit);
  }
  std::remove(store.c_str());
}

TEST(Server, StatsCountersTrackTraffic) {
  ServerFixture fx({}, "stats");
  ServeClient client = fx.client();
  client.ping();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kMrp;
  (void)client.synth(req);
  (void)client.synth(req);
  const StatsFrame stats = client.stats();
  EXPECT_GE(stats.connections, 1u);
  EXPECT_EQ(stats.synth_requests, 2u);
  EXPECT_EQ(stats.fresh_solves, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.latency_samples, 2u);
  EXPECT_GT(stats.p50_ns, 0.0);
  EXPECT_GE(stats.cache_entries, 1u);
}

TEST(Server, EnvKnobsAreSnapshottedOnceAtConfigTime) {
  ::setenv("MRPF_THREADS", "2", 1);
  ::setenv("MRPF_CACHE", "16", 1);
  ::setenv("MRPF_OPT_BUDGET", "50000", 1);
  const ServeConfig config = serve_config_from_env();
  ::setenv("MRPF_CACHE", "off", 1);    // too late: the snapshot is taken
  ::setenv("MRPF_OPT_BUDGET", "7", 1);  // likewise
  ::unsetenv("MRPF_THREADS");
  EXPECT_EQ(config.knobs.threads, 2);
  EXPECT_FALSE(config.knobs.cache_disabled);
  EXPECT_EQ(config.knobs.cache_max_bytes, std::size_t{16} << 20);
  EXPECT_EQ(config.knobs.opt_budget, 50000);

  ServerFixture fx(config, "snapshot");
  EXPECT_EQ(fx.server.workers(), 2);
  EXPECT_NE(fx.server.cache(), nullptr);  // MRPF_CACHE=off never seen

  // A bnb solve through the daemon runs under the snapshotted budget —
  // the solve path never re-reads the (since changed) environment — and
  // is bit-identical to a direct solve with that budget made explicit.
  {
    ServeClient client = fx.client();
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = core::Scheme::kBnb;
    const SynthResponse resp = client.synth(req);
    core::MrpOptions direct;
    direct.opt_budget = 50000;
    const core::SchemeResult expect =
        core::optimize_bank(kPaperExample, core::Scheme::kBnb, direct);
    EXPECT_EQ(verify::plan_mismatch(resp.plan, expect.plan), std::nullopt);
  }
  ::unsetenv("MRPF_CACHE");
  ::unsetenv("MRPF_OPT_BUDGET");

  // And a snapshot that DID see the disable turns caching off entirely.
  ::setenv("MRPF_CACHE", "off", 1);
  const ServeConfig off = serve_config_from_env();
  ::unsetenv("MRPF_CACHE");
  EXPECT_TRUE(off.knobs.cache_disabled);
  ServerFixture fx_off(off, "snapshot_off");
  EXPECT_EQ(fx_off.server.cache(), nullptr);
  ServeClient client = fx_off.client();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kMrp;
  const SynthResponse resp = client.synth(req);  // solves fresh, no cache
  EXPECT_FALSE(resp.cache_hit);
  const SynthResponse again = client.synth(req);
  EXPECT_FALSE(again.cache_hit);
}

}  // namespace
}  // namespace mrpf::serve
