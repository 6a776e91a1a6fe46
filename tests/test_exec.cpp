// The exec module: plan compilation (realization proof, effective and
// folded coefficients, width analysis), the direct-form MAC engine
// (bit-identity across schemes, symmetry, chunking and block boundaries,
// the proven-width input check), streaming push/reset semantics, batch
// channels, the MRPF_EXEC knob, and the StageTimers JSON fragment the
// throughput bench embeds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "mrpf/common/env.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/stage_timers.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/exec/compile.hpp"
#include "mrpf/exec/engine.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/sim/workload.hpp"

namespace mrpf::exec {
namespace {

const std::vector<i64> kBank = {7, -66, 17, 0, 27, 41, -57, 11};
// Odd-length palindrome with a zero pair and a negative centre.
const std::vector<i64> kOddSymmetric = {3, -21, 0, 45, -90, 45, 0, -21, 3};

arch::TdfFilter make_filter(core::Scheme scheme = core::Scheme::kMrp,
                            const std::vector<i64>& coeffs = kBank,
                            const std::vector<int>& align = {}) {
  return core::build_tdf(coeffs, align, scheme);
}

/// The filter's output through one fresh engine over the whole stream.
std::vector<i64> run_engine(const ExecProgram& p, const std::vector<i64>& x) {
  ExecEngine engine(p);
  std::vector<i64> y(x.size());
  engine.run(x.data(), y.data(), x.size());
  return y;
}

/// A block over one adder node 3x = x + (x << 1), tapped once per constant
/// in `constants` (all claimed to be realized by that node).
arch::MultiplierBlock three_x_block(const std::vector<i64>& constants) {
  arch::MultiplierBlock block;
  const int node = block.graph.add_op(0, 0, 0, 1, false);
  for (const i64 c : constants) {
    arch::Tap tap;
    tap.node = node;
    tap.constant = c;
    block.taps.push_back(tap);
  }
  block.constants = constants;
  return block;
}

TEST(ExecCompile, ProgramShapeAndWidthAnalysis) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  EXPECT_EQ(p.taps(), kBank.size());
  // No alignment: the effective coefficients are the bank itself, zero
  // tap included, and the asymmetric bank takes the general loop.
  EXPECT_EQ(p.coeffs, kBank);
  EXPECT_FALSE(p.folded);
  EXPECT_EQ(p.macs_per_sample(), kBank.size());
  // max coefficient magnitude 66 < 2^7, so inputs up to at least 40 bits
  // must be provably exact (64 - bits(sum |c|) is far above 40 here).
  EXPECT_GE(p.max_input_bits, 40);
  EXPECT_LE(p.max_input_bits, 63);
  // Compile timing was recorded with the multiply count as items.
  EXPECT_GT(p.timers.exec_compile.ns, 0.0);
  EXPECT_EQ(p.timers.exec_compile.items, p.macs_per_sample());
}

TEST(ExecCompile, DeadOpsAreEliminated) {
  // A node no tap reads does not narrow the proven width: only live
  // fundamentals enter the bound.
  arch::MultiplierBlock live_only = three_x_block({3, 3});
  arch::MultiplierBlock with_dead = three_x_block({3, 3});
  with_dead.graph.add_op(0, 50, 0, 0, false);  // 2^50 + 1, never tapped
  const ExecProgram a = compile(arch::TdfFilter({3, 3}, {}, live_only));
  const ExecProgram b = compile(arch::TdfFilter({3, 3}, {}, with_dead));
  EXPECT_EQ(a.max_input_bits, b.max_input_bits);
  EXPECT_EQ(a.max_input_bits, 64 - 3);  // bound = 3 + 3 = 6 < 2^3
  // A tapped node's fundamental does count.
  arch::MultiplierBlock big;
  const int n = big.graph.add_op(0, 50, 0, 0, false);
  big.taps.push_back(arch::Tap{n, 0, false, (i64{1} << 50) + 1});
  big.constants = {(i64{1} << 50) + 1};
  EXPECT_EQ(compile(arch::TdfFilter(big.constants, {}, big)).max_input_bits,
            64 - 51);
}

TEST(ExecCompile, FoldsAlignmentIntoEffectiveCoefficients) {
  const std::vector<int> align = {1, 2, 0, 3, 1, 0, 2, 1};
  const ExecProgram p =
      compile(make_filter(core::Scheme::kSimple, kBank, align));
  ASSERT_EQ(p.taps(), kBank.size());
  for (std::size_t k = 0; k < kBank.size(); ++k) {
    EXPECT_EQ(p.coeffs[k], kBank[k] * (i64{1} << align[k])) << k;
  }
}

TEST(ExecCompile, FoldsPalindromicCoefficientsOnly) {
  const ExecProgram odd = compile(make_filter(core::Scheme::kMrp,
                                              kOddSymmetric));
  EXPECT_TRUE(odd.folded);
  EXPECT_EQ(odd.macs_per_sample(), 5u);  // ceil(9 / 2)
  const std::vector<i64> even = {5, -9, 12, 12, -9, 5};
  const ExecProgram ev = compile(make_filter(core::Scheme::kCse, even));
  EXPECT_TRUE(ev.folded);
  EXPECT_EQ(ev.macs_per_sample(), 3u);
  // Palindromic c with a non-palindromic alignment is not symmetric in
  // the effective coefficients, so it must not fold.
  const ExecProgram skew = compile(
      make_filter(core::Scheme::kSimple, even, {0, 0, 0, 1, 0, 0}));
  EXPECT_FALSE(skew.folded);
  EXPECT_EQ(skew.macs_per_sample(), even.size());
  EXPECT_FALSE(compile(make_filter()).folded);
}

TEST(ExecCompile, RejectsBlockThatDoesNotRealizeItsConstants) {
  // The tap claims 5x but reads the 3x node. TdfFilter only checks the
  // claimed constants, so the compiler's realization proof must refuse it.
  const arch::MultiplierBlock wrong = three_x_block({5, 3});
  const arch::TdfFilter f({5, 3}, {}, wrong);
  EXPECT_THROW(compile(f), Error);
  // The same block with honest constants compiles.
  EXPECT_NO_THROW(compile(arch::TdfFilter({3, 3}, {}, three_x_block({3, 3}))));
}

TEST(ExecEngine, MatchesInterpreterForEveryScheme) {
  Rng rng(0xE1);
  const std::vector<i64> x = sim::uniform_stream(rng, 1300, 12);
  for (const core::Scheme s : core::all_schemes()) {
    for (const std::vector<i64>& bank : {kBank, kOddSymmetric}) {
      const arch::TdfFilter f = make_filter(s, bank);
      EXPECT_EQ(run_engine(compile(f), x), f.run(x)) << core::to_string(s);
    }
  }
}

TEST(ExecEngine, AsymmetricAndOddSymmetricFiltersMatchBothReferences) {
  Rng rng(0xE7);
  const std::vector<i64> x =
      sim::uniform_stream(rng, 2 * ExecEngine::kBlock + 33, 14);
  struct Case {
    std::vector<i64> coeffs;
    std::vector<int> align;
    bool folded;
  };
  const Case cases[] = {
      {kBank, {}, false},
      {kBank, {1, 2, 0, 3, 1, 0, 2, 1}, false},
      {kOddSymmetric, {}, true},
      {kOddSymmetric, {2, 0, 1, 0, 3, 0, 1, 0, 2}, true},
  };
  for (const Case& c : cases) {
    const arch::TdfFilter f = make_filter(core::Scheme::kMrp, c.coeffs,
                                          c.align);
    const ExecProgram p = compile(f);
    EXPECT_EQ(p.folded, c.folded);
    const std::vector<i64> y = run_engine(p, x);
    EXPECT_EQ(y, f.run(x));
    EXPECT_EQ(y, dsp::fir_filter_exact(c.coeffs, c.align, x));
  }
}

TEST(ExecEngine, PushesCrossBlockAndHistoryBoundaries) {
  // A catalog filter: tens of taps, so N-1 history samples is a real
  // boundary distinct from the kernel block.
  const number::QuantizedCoefficients q =
      number::quantize_maximal(filter::catalog_coefficients(0), 16);
  const arch::TdfFilter f = core::build_tdf(q, core::Scheme::kMrp);
  const ExecProgram p = compile(f);
  const std::size_t n = p.taps();
  const std::size_t block = ExecEngine::kBlock;
  const std::vector<std::size_t> sizes = {
      1, n - 1, n, block - 1, block, block + 1, 3 * block + 7, 1, n - 1};
  std::size_t total = 0;
  for (const std::size_t s : sizes) total += s;
  Rng rng(0xE8);
  const std::vector<i64> x = sim::uniform_stream(rng, total, 12);
  const std::vector<i64> expect =
      dsp::fir_filter_exact(f.coefficients(), f.alignment(), x);
  ASSERT_EQ(expect, f.run(x));

  // One persistent engine, pushes of every size back to back.
  ExecEngine engine(p);
  std::vector<i64> y(x.size());
  std::size_t at = 0;
  for (const std::size_t s : sizes) {
    engine.run(x.data() + at, y.data() + at, s);
    at += s;
  }
  EXPECT_EQ(y, expect);
  // Each size alone, from a reset engine, is the prefix of the stream.
  for (const std::size_t s : sizes) {
    engine.reset();
    std::vector<i64> part(s);
    engine.run(x.data(), part.data(), s);
    EXPECT_EQ(part, std::vector<i64>(expect.begin(),
                                     expect.begin() +
                                         static_cast<std::ptrdiff_t>(s)))
        << "size " << s;
  }
}

TEST(ExecEngine, StateCarriesAcrossRunCallsAndResets) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  Rng rng(0xE2);
  const std::vector<i64> x = sim::uniform_stream(rng, 100, 10);
  const std::vector<i64> expect = f.run(x);

  ExecEngine engine(p);
  std::vector<i64> y(x.size());
  // Uneven split: 1 + 13 + 86 samples through one persistent engine.
  engine.run(x.data(), y.data(), 1);
  engine.run(x.data() + 1, y.data() + 1, 13);
  engine.run(x.data() + 14, y.data() + 14, x.size() - 14);
  EXPECT_EQ(y, expect);

  // reset() must restore the fresh state exactly.
  engine.reset();
  std::vector<i64> replay(x.size());
  engine.run(x.data(), replay.data(), x.size());
  EXPECT_EQ(replay, expect);
  // exec_run accounting is monotone: ns grows, items count every sample.
  EXPECT_EQ(engine.timers().exec_run.items, 2 * x.size());
  EXPECT_GT(engine.timers().exec_run.ns, 0.0);
}

TEST(ExecEngine, ZeroAndTinyRunsAreSafe) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  ExecEngine engine(p);
  engine.run(nullptr, nullptr, 0);
  i64 x = 3, y = 0;
  engine.run(&x, &y, 1);
  EXPECT_EQ(y, f.run({3})[0]);
}

TEST(ExecEngine, RejectsSamplesOutsideTheProvenWidth) {
  const arch::TdfFilter f = make_filter(core::Scheme::kMrp, kOddSymmetric);
  const ExecProgram p = compile(f);
  const int bits = p.max_input_bits;
  ASSERT_GT(bits, 2);
  const i64 lim = i64{1} << (bits - 1);

  // The extreme accepted samples run exactly.
  const std::vector<i64> edge = {-lim + 1, lim - 1, 0, -lim + 1, 7};
  ExecEngine engine(p);
  std::vector<i64> y(edge.size());
  engine.run(edge.data(), y.data(), edge.size());
  EXPECT_EQ(y, dsp::fir_filter_exact(f.coefficients(), f.alignment(), edge));
  EXPECT_EQ(y, f.run(edge));

  // |x| = 2^(B-1) throws, naming the sample index and the proven width,
  // and leaves the engine's state as it was.
  for (const i64 wide : {lim, -lim}) {
    engine.reset();
    const std::vector<i64> x = {1, 2, wide, 3};
    std::vector<i64> out(x.size());
    try {
      engine.run(x.data(), out.data(), x.size());
      ADD_FAILURE() << "sample " << wide << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("sample 2"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(bits) + "-bit"), std::string::npos)
          << what;
    }
    std::vector<i64> after(edge.size());
    engine.run(edge.data(), after.data(), edge.size());
    EXPECT_EQ(after, y);
  }

  // run_batch checks every channel and names the offending one.
  const std::vector<std::vector<i64>> inputs = {{1, 2}, {3}, {4, lim}};
  try {
    run_batch(p, inputs);
    ADD_FAILURE() << "run_batch accepted a wide sample";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("channel 2"), std::string::npos)
        << e.what();
  }
}

TEST(ExecEngine, RunBatchMatchesSerialPerChannel) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  Rng rng(0xE3);
  std::vector<std::vector<i64>> inputs;
  for (int c = 0; c < 9; ++c) {
    inputs.push_back(sim::uniform_stream(rng, 40 + 170 * c, 11));
  }
  const std::vector<std::vector<i64>> outputs = run_batch(p, inputs);
  ASSERT_EQ(outputs.size(), inputs.size());
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    EXPECT_EQ(outputs[c], f.run(inputs[c])) << "channel " << c;
  }
}

TEST(StreamingFilter, ChunkedPushesEqualOneRun) {
  const arch::TdfFilter f = make_filter();
  Rng rng(0xE4);
  const std::vector<i64> x = sim::uniform_stream(rng, 150, 12);
  const std::vector<i64> expect = f.run(x);

  StreamingFilter sf(f);
  EXPECT_EQ(sf.mode(), ExecMode::kVector);
  std::vector<i64> got;
  std::size_t at = 0;
  while (at < x.size()) {
    const std::size_t take = std::min<std::size_t>(x.size() - at,
                                                   1 + rng.next_below(9));
    const std::vector<i64> out = sf.push(std::vector<i64>(
        x.begin() + static_cast<std::ptrdiff_t>(at),
        x.begin() + static_cast<std::ptrdiff_t>(at + take)));
    got.insert(got.end(), out.begin(), out.end());
    at += take;
  }
  EXPECT_EQ(got, expect);

  // reset == fresh: replay the stream whole.
  sf.reset();
  EXPECT_EQ(sf.push(x), expect);
  // Lifetime timers carry both stages.
  const core::StageTimers t = sf.timers();
  EXPECT_GT(t.exec_compile.ns, 0.0);
  EXPECT_EQ(t.exec_run.items, 2 * x.size());
}

TEST(StreamingFilter, WideInputFallsBackToCheckedInterpreter) {
  const arch::TdfFilter f = make_filter();
  ExecConfig config;
  config.input_bits = 63;  // beyond any provable unchecked width
  StreamingFilter sf(f, config);
  EXPECT_EQ(sf.mode(), ExecMode::kInterp);
  Rng rng(0xE5);
  const std::vector<i64> x = sim::uniform_stream(rng, 64, 12);
  EXPECT_EQ(sf.push(x), f.run(x));
}

TEST(StreamingFilter, ExplicitModesAreHonored) {
  const arch::TdfFilter f = make_filter();
  Rng rng(0xE6);
  const std::vector<i64> x = sim::uniform_stream(rng, 64, 12);
  const std::vector<i64> expect = f.run(x);
  for (const ExecMode m :
       {ExecMode::kOff, ExecMode::kInterp, ExecMode::kVector}) {
    ExecConfig config;
    config.mode = m;
    StreamingFilter sf(f, config);
    EXPECT_EQ(sf.mode(), m);
    EXPECT_EQ(sf.push(x), expect) << to_string(m);
  }
}

TEST(StreamingFilter, EveryCatalogFilterTakesTheVectorPathAt12Bits) {
  ExecConfig config;
  config.input_bits = 12;
  for (int i = 0; i < filter::catalog_size(); ++i) {
    const number::QuantizedCoefficients q =
        number::quantize_maximal(filter::catalog_coefficients(i), 16);
    for (const core::Scheme s : core::all_schemes()) {
      const StreamingFilter sf(core::build_tdf(q, s), config);
      EXPECT_EQ(sf.mode(), ExecMode::kVector)
          << "filter " << i << " " << core::to_string(s);
      EXPECT_TRUE(sf.program().folded)
          << "filter " << i << " " << core::to_string(s);
    }
  }
}

TEST(ExecEnv, KnobParsesAndMalformedValuesFallBackWithOneWarning) {
  ::unsetenv("MRPF_EXEC");
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kVector);

  ::setenv("MRPF_EXEC", "off", 1);
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kOff);
  ::setenv("MRPF_EXEC", "INTERP", 1);  // words are case-insensitive
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kInterp);
  ::setenv("MRPF_EXEC", "vector", 1);
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kVector);

  // Malformed values — including the retired "vector:N" lane pin — warn
  // once and keep the default.
  for (const char* bad : {"turbo", "vector:12", "interp:2"}) {
    ::setenv("MRPF_EXEC", bad, 1);
    EXPECT_EQ(exec_config_from_env().mode, ExecMode::kVector) << bad;
  }
  EXPECT_TRUE(env::warning_fired("MRPF_EXEC"));
  ::unsetenv("MRPF_EXEC");
}

TEST(ExecTimers, AccumulateIsMonotoneAndJsonNamesEveryStage) {
  core::StageTimers a;
  a.exec_compile.ns = 10;
  a.exec_compile.items = 2;
  a.optimize.ns = 5;
  core::StageTimers b;
  b.exec_compile.ns = 7;
  b.exec_compile.items = 3;
  b.exec_run.ns = 20;
  b.exec_run.items = 100;
  b.total_ns = 40;
  core::accumulate(a, b);
  EXPECT_DOUBLE_EQ(a.exec_compile.ns, 17.0);
  EXPECT_EQ(a.exec_compile.items, 5u);
  EXPECT_DOUBLE_EQ(a.exec_run.ns, 20.0);
  EXPECT_EQ(a.exec_run.items, 100u);
  EXPECT_DOUBLE_EQ(a.optimize.ns, 5.0);
  EXPECT_DOUBLE_EQ(a.total_ns, 40.0);
  // Repeated accumulation only grows.
  const double before = a.exec_run.ns;
  core::accumulate(a, b);
  EXPECT_GT(a.exec_run.ns, before);

  const std::string json = stage_timers_json(a, "");
  for (const char* key :
       {"\"primaries\"", "\"color_graph\"", "\"set_cover\"",
        "\"tree_growth\"", "\"seed_synthesis\"", "\"optimize\"",
        "\"lowering\"", "\"exec.compile\"", "\"exec.run\"",
        "\"total_ms\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace mrpf::exec
