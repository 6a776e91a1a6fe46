// RTL back-end verification: the Verilog we emit is parsed back and
// simulated with Verilog truncation semantics; outputs must match the C++
// architecture model bit-for-bit across schemes and random banks. Also
// unit-tests the lexer/parser/simulator in isolation.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "mrpf/arch/verilog.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/rtl/lexer.hpp"
#include "mrpf/rtl/parser.hpp"
#include "mrpf/rtl/simulator.hpp"
#include "mrpf/sim/workload.hpp"

namespace mrpf::rtl {
namespace {

TEST(RtlLexer, TokenKinds) {
  const auto tokens = tokenize("module m; assign a = (b <<< 3) - 12'sd0;");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "module");
  bool saw_shift = false;
  bool saw_sized = false;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kSymbol && t.text == "<<<") saw_shift = true;
    if (t.kind == TokenKind::kSizedLiteral) {
      saw_sized = true;
      EXPECT_EQ(t.width, 12);
      EXPECT_EQ(t.value, 0);
    }
  }
  EXPECT_TRUE(saw_shift);
  EXPECT_TRUE(saw_sized);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(RtlLexer, SkipsCommentsAndRejectsGarbage) {
  const auto tokens = tokenize("a // comment with $ symbols\nb");
  ASSERT_EQ(tokens.size(), 3u);  // a, b, end
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_THROW(tokenize("a $ b"), Error);
}

TEST(RtlLexer, RejectsOversizedPlainNumber) {
  EXPECT_NO_THROW(tokenize("assign p0 = 9223372036854775807;"));
  EXPECT_THROW(tokenize("assign p0 = 9223372036854775808;"), Error);
  EXPECT_THROW(parse_module("module m (output signed [7:0] p0);\n"
                            "  assign p0 = 99999999999999999999;\n"
                            "endmodule\n"),
               Error);
}

TEST(RtlLexer, RejectsOversizedSizedLiteral) {
  EXPECT_NO_THROW(tokenize("64'sd9223372036854775807"));
  EXPECT_THROW(tokenize("64'sd99999999999999999999"), Error);
  EXPECT_THROW(tokenize("99999999999999999999'sd1"), Error);
  EXPECT_THROW(tokenize("65'sd1"), Error);
  EXPECT_THROW(parse_module("module m (output signed [7:0] p0);\n"
                            "  assign p0 = 8'sd99999999999999999999;\n"
                            "endmodule\n"),
               Error);
}

constexpr const char* kTinyModule = R"(
// tiny test module
module tiny (
  input  signed [7:0] x,
  output signed [15:0] p0
);
  wire signed [15:0] x_ext;
  assign x_ext = x;
  wire signed [15:0] n1;
  assign n1 = x_ext + (x_ext <<< 2);
  assign p0 = (-(n1 >>> 1));
endmodule
)";

TEST(RtlParser, ParsesTinyModule) {
  const Module m = parse_module(kTinyModule);
  EXPECT_EQ(m.name, "tiny");
  ASSERT_EQ(m.ports.size(), 2u);
  EXPECT_EQ(m.ports[0].dir, PortDir::kInput);
  EXPECT_EQ(m.ports[0].net.width, 8);
  EXPECT_TRUE(m.ports[0].net.is_signed);
  EXPECT_EQ(m.nets.size(), 2u);
  EXPECT_EQ(m.assigns.size(), 3u);
  EXPECT_FALSE(m.has_clock());
  EXPECT_NE(m.find_net("n1"), nullptr);
  EXPECT_EQ(m.find_net("nope"), nullptr);
}

TEST(RtlParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_module("module m (input x; endmodule"), Error);
  EXPECT_THROW(parse_module("module m (); garbage endmodule"), Error);
  EXPECT_THROW(parse_module("module m (); assign a = ; endmodule"), Error);
}

TEST(RtlSimulator, EvaluatesTinyModule) {
  Simulator sim(parse_module(kTinyModule));
  sim.set_input("x", 10);
  sim.settle();
  // n1 = 10 + 40 = 50; p0 = -(50 >> 1) = -25.
  EXPECT_EQ(sim.get("n1"), 50);
  EXPECT_EQ(sim.get("p0"), -25);
  sim.set_input("x", -3);
  sim.settle();
  EXPECT_EQ(sim.get("n1"), -15);
  EXPECT_EQ(sim.get("p0"), 8);  // -((-15) >> 1) = -(-8) with floor shift
}

TEST(RtlSimulator, TruncatesToPortWidth) {
  Simulator sim(parse_module(kTinyModule));
  sim.set_input("x", 0x1FF);  // 9 bits into an 8-bit signed port → -1
  sim.settle();
  EXPECT_EQ(sim.get("x"), -1);
}

TEST(RtlSimulator, DetectsCombinationalCycle) {
  constexpr const char* cyclic = R"(
module bad (input signed [3:0] x, output signed [3:0] p0);
  wire signed [3:0] a;
  wire signed [3:0] b;
  assign a = b + x;
  assign b = a + x;
  assign p0 = a;
endmodule
)";
  EXPECT_THROW(Simulator sim(parse_module(cyclic)), Error);
}

/// The message of the mrpf::Error that constructing a simulator for
/// `source` throws, or "" when it does not throw.
std::string construction_error(const char* source) {
  try {
    Simulator sim(parse_module(source));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(RtlSimulator, RejectsDuplicateDeclarations) {
  const std::string twice = construction_error(R"(
module dup (input signed [7:0] x, output signed [7:0] p0);
  wire signed [7:0] t;
  wire signed [15:0] t;
  assign t = x;
  assign p0 = t;
endmodule
)");
  EXPECT_NE(twice.find("'t' declared twice"), std::string::npos) << twice;
  const std::string port = construction_error(R"(
module dup (input signed [7:0] x, output signed [7:0] p0);
  wire signed [3:0] x;
  assign p0 = x;
endmodule
)");
  EXPECT_NE(port.find("'x' declared twice"), std::string::npos) << port;
}

TEST(RtlSimulator, RejectsOutOfRangeShifts) {
  const std::string left = construction_error(R"(
module big (input signed [7:0] x, output signed [7:0] p0);
  assign p0 = x <<< 200;
endmodule
)");
  EXPECT_NE(left.find("shift amount 200"), std::string::npos) << left;
  const std::string right = construction_error(R"(
module big (input signed [7:0] x, output signed [7:0] p0);
  assign p0 = x >>> 64;
endmodule
)");
  EXPECT_NE(right.find("shift amount 64"), std::string::npos) << right;
  EXPECT_EQ(construction_error(R"(
module edge (input signed [7:0] x, output signed [7:0] p0);
  assign p0 = (x <<< 63) + (x >>> 63);
endmodule
)"),
            "");
}

TEST(RtlSimulator, RejectsMisplacedAssignments) {
  EXPECT_NE(construction_error(R"(
module m (input signed [7:0] x, output signed [7:0] p0);
  assign p0 = x;
  assign p0 = x + x;
endmodule
)").find("multiple assigns"),
            std::string::npos);
  EXPECT_NE(construction_error(R"(
module m (input signed [7:0] x, output signed [7:0] p0);
  assign p0 = q;
endmodule
)").find("undeclared net 'q'"),
            std::string::npos);
  EXPECT_NE(construction_error(R"(
module m (input clk, input rst, input signed [7:0] x,
          output signed [7:0] y);
  reg signed [7:0] r0;
  assign r0 = x;
  assign y = r0;
endmodule
)").find("continuous assign to a reg"),
            std::string::npos);
  EXPECT_NE(construction_error(R"(
module m (input clk, input rst, input signed [7:0] x,
          output signed [7:0] y);
  wire signed [7:0] w;
  always @(posedge clk) begin
    if (rst) begin
      w <= 0;
    end else begin
      w <= x;
    end
  end
  assign y = w;
endmodule
)").find("clocked assign to wire 'w'"),
            std::string::npos);
}

/// `v` truncated to `w` bits and sign-extended.
i64 sext(u64 v, int w) {
  return static_cast<i64>(v << (64 - w)) >> (64 - w);
}

TEST(RtlSimulator, TruncatesAtWidths62And63) {
  Simulator sim(parse_module(R"(
module widths (input signed [62:0] x, output signed [61:0] p0,
               output signed [62:0] p1, output [62:0] p2);
  assign p0 = x;
  assign p1 = x + x;
  assign p2 = x + x;
endmodule
)"));
  const i64 max63 = (i64{1} << 62) - 1;
  // An i64 input wider than the 63-bit port wraps into it.
  sim.set_input("x", std::numeric_limits<i64>::max());
  sim.settle();
  EXPECT_EQ(sim.get("x"), -1);
  EXPECT_EQ(sim.get("p0"), -1);
  for (const i64 x : {max63, -max63 - 1, i64{1} << 61, -(i64{1} << 61) - 1,
                      i64{-1}, i64{5}}) {
    sim.set_input("x", x);
    sim.settle();
    ASSERT_EQ(sim.get("x"), x);
    const u64 twice = static_cast<u64>(x) * 2;
    EXPECT_EQ(sim.get("p0"), sext(static_cast<u64>(x), 62)) << x;
    EXPECT_EQ(sim.get("p1"), sext(twice, 63)) << x;
    EXPECT_EQ(sim.get("p2"), static_cast<i64>(twice & ((u64{1} << 63) - 1)))
        << x;
  }
}

// Every operator overflows i64 here. The simulator wraps in u64 and
// truncates on write, so this must run clean under UBSan and match the
// same arithmetic done by hand.
TEST(RtlSimulator, HostileOverflowingModuleWraps) {
  Simulator sim(parse_module(R"(
module hostile (input signed [62:0] x, output signed [62:0] p0,
                output signed [62:0] p1, output signed [62:0] p2,
                output [62:0] p3);
  wire signed [62:0] t;
  assign t = (x <<< 63) - x - x - x - 9223372036854775807;
  assign p0 = x + x + x + 9223372036854775807 + 9223372036854775807;
  assign p1 = -(-(x <<< 62) - (x <<< 62)) - (0 - 9223372036854775807 - 1);
  assign p2 = (t >>> 61) + (t <<< 40) + 63'sd9223372036854775807;
  assign p3 = -x;
endmodule
)"));
  const u64 big = static_cast<u64>(std::numeric_limits<i64>::max());
  for (const i64 x : {(i64{1} << 62) - 1, -(i64{1} << 62), i64{-1}, i64{0},
                      i64{12345}}) {
    sim.set_input("x", x);
    sim.settle();
    const u64 ux = static_cast<u64>(x);
    const i64 t = sext((ux << 63) - ux - ux - ux - big, 63);
    const u64 ut = static_cast<u64>(t);
    EXPECT_EQ(sim.get("t"), t) << x;
    EXPECT_EQ(sim.get("p0"), sext(ux + ux + ux + big + big, 63)) << x;
    EXPECT_EQ(sim.get("p1"),
              sext((0 - ((0 - (ux << 62)) - (ux << 62))) - (0 - big - 1), 63))
        << x;
    EXPECT_EQ(sim.get("p2"),
              sext(static_cast<u64>(t >> 61) + (ut << 40) + big, 63))
        << x;
    EXPECT_EQ(sim.get("p3"), static_cast<i64>((0 - ux) & ((u64{1} << 63) - 1)))
        << x;
  }
}

TEST(RtlRoundTrip, MultiplierBlocksMatchAcrossSchemes) {
  Rng rng(0xBEEF);
  for (const auto scheme :
       {core::Scheme::kSimple, core::Scheme::kCse, core::Scheme::kMrp,
        core::Scheme::kMrpCse}) {
    std::vector<i64> bank;
    const int taps = static_cast<int>(rng.next_int(3, 14));
    for (int t = 0; t < taps; ++t) bank.push_back(rng.next_int(-2047, 2047));
    const core::SchemeResult r = core::optimize_bank(bank, scheme);
    const std::string verilog =
        arch::emit_multiplier_block(r.block, /*input_bits=*/12, "mb");
    Simulator sim(parse_module(verilog));
    for (const i64 x : {i64{1}, i64{-1}, i64{100}, i64{-2048 + 1},
                        i64{2047}}) {
      const std::vector<i64> rtl_products = sim.run_block(x);
      ASSERT_EQ(rtl_products.size(), bank.size());
      const std::vector<i64> values = r.block.graph.evaluate(x);
      for (std::size_t i = 0; i < bank.size(); ++i) {
        ASSERT_EQ(rtl_products[i], r.block.product(i, values))
            << core::to_string(scheme) << " x=" << x << " tap " << i;
      }
    }
  }
}

TEST(RtlRoundTrip, TdfFiltersMatchBitExact) {
  Rng rng(0xD00D);
  for (const auto scheme : {core::Scheme::kSimple, core::Scheme::kMrpCse}) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::size_t n = static_cast<std::size_t>(rng.next_int(3, 12));
      std::vector<i64> c;
      for (std::size_t k = 0; k < n; ++k) c.push_back(rng.next_int(-511, 511));
      const arch::TdfFilter filter = core::build_tdf(c, {}, scheme);
      const std::string verilog =
          arch::emit_tdf_filter(filter, /*input_bits=*/10, "fir");
      Simulator sim(parse_module(verilog));
      const std::vector<i64> x = sim::uniform_stream(rng, 64, 10);
      ASSERT_EQ(sim.run_filter(x), filter.run(x))
          << core::to_string(scheme) << " trial " << trial;
    }
  }
}

// Catalog sweep: the shipping filters' emitted RTL matches the C++ model.
class RtlCatalog : public ::testing::TestWithParam<int> {};

TEST_P(RtlCatalog, EmittedRtlMatchesModel) {
  const int index = GetParam();
  const auto& h = mrpf::filter::catalog_coefficients(index);
  const auto q = mrpf::number::quantize_uniform(h, 10);
  const arch::TdfFilter filter = core::build_tdf(q, core::Scheme::kMrpCse);
  Simulator sim(
      parse_module(arch::emit_tdf_filter(filter, 10, "fir_cat")));
  Rng rng(static_cast<std::uint64_t>(index));
  const std::vector<i64> x = sim::uniform_stream(rng, 48, 10);
  ASSERT_EQ(sim.run_filter(x), filter.run(x));
}

INSTANTIATE_TEST_SUITE_P(SmallCatalog, RtlCatalog,
                         ::testing::Values(0, 2, 4, 6));

// The benchmark's stream filters: every catalog design quantized with
// maximal scaling to W = 16, under mrpf and simple, re-simulated at 16-bit
// input on a stream long enough to fill each delay line several times.
class RtlW16Catalog
    : public ::testing::TestWithParam<std::tuple<int, core::Scheme>> {};

TEST_P(RtlW16Catalog, EmittedRtlMatchesExactFir) {
  const auto [index, scheme] = GetParam();
  const auto q = mrpf::number::quantize_maximal(
      mrpf::filter::catalog_coefficients(index), 16);
  const arch::TdfFilter filter = core::build_tdf(q, scheme);
  Simulator sim(parse_module(arch::emit_tdf_filter(filter, 16, "fir_w16")));
  Rng rng(static_cast<std::uint64_t>(index) * 2 + 1);
  const std::vector<i64> x = sim::uniform_stream(rng, 1024, 16);
  ASSERT_GT(x.size(), 4 * filter.coefficients().size());
  ASSERT_EQ(sim.run_filter(x),
            dsp::fir_filter_exact(filter.coefficients(), filter.alignment(),
                                  x));
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, RtlW16Catalog,
    ::testing::Combine(::testing::Range(0, mrpf::filter::catalog_size()),
                       ::testing::Values(core::Scheme::kMrp,
                                         core::Scheme::kSimple)),
    [](const auto& info) {
      return "Ex" + std::to_string(std::get<0>(info.param) + 1) + "_" +
             (std::get<1>(info.param) == core::Scheme::kMrp ? "mrpf"
                                                            : "simple");
    });

TEST(RtlRoundTrip, AlignedTdfFilterMatches) {
  // Maximal-scaling alignment shifts appear inside the tap expressions.
  const std::vector<i64> c = {100, -80, 100};
  const std::vector<int> align = {0, 2, 0};
  const arch::TdfFilter filter =
      core::build_tdf(c, align, core::Scheme::kMrp);
  Simulator sim(parse_module(arch::emit_tdf_filter(filter, 10, "fir_al")));
  Rng rng(4);
  const std::vector<i64> x = sim::uniform_stream(rng, 48, 10);
  EXPECT_EQ(sim.run_filter(x), filter.run(x));
}

}  // namespace
}  // namespace mrpf::rtl
