// The SolveSpec schema: every field reaches the solve key and tag
// equality, every encoding round-trips the specs the fuzzer generates
// (wire request, cache store, command-line flags), and every decoder
// rejects every out-of-range field.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "mrpf/cache/fingerprint.hpp"
#include "mrpf/cache/persist.hpp"
#include "mrpf/cache/solve_cache.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/hash.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/solve_spec.hpp"
#include "mrpf/io/serde_util.hpp"
#include "mrpf/serve/protocol.hpp"
#include "mrpf/verify/fuzz.hpp"
#include "spec_words.hpp"

namespace mrpf::core {
namespace {

const std::vector<i64> kPaperExample = {7, 66, 17, 9, 27, 41, 57, 11};

/// The specs of the 504 `mrpf_fuzz --ci` honest-pass cases.
std::vector<verify::FuzzCase> ci_cases() {
  std::vector<verify::FuzzCase> cases;
  for (std::size_t i = 0; i < 504; ++i) {
    cases.push_back(verify::generate_case(0xF022, i, {}));
  }
  return cases;
}

/// An in-range value of the field that differs from `v`.
template <class T>
T other_value(const SpecField& f, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v == f.hi ? f.lo : f.hi;
  } else {
    const auto hi = static_cast<long long>(f.hi);
    return static_cast<T>(static_cast<long long>(v) == hi
                              ? static_cast<long long>(f.lo)
                              : hi);
  }
}

SolveSpec parse_flags(const std::string& flags) {
  std::istringstream in(flags);
  const std::vector<std::string> argv{std::istream_iterator<std::string>(in),
                                      {}};
  SolveSpec spec;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const bool matched = apply_spec_flag(spec, argv[i], [&] {
      return argv.at(++i);
    });
    EXPECT_TRUE(matched) << argv[i];
  }
  return spec;
}

TEST(SolveSpecSchema, EveryFieldChangesTheKeyAndTheTag) {
  const cache::CanonicalBank cb = cache::canonicalize(kPaperExample);
  const cache::SolveOptionsTag base{Scheme::kMrp, SolveSpec{}};
  const u64 key = cache::solve_key(cb.content_hash, base);
  SolveSpec::visit([&](const SpecField& f, auto get) {
    cache::SolveOptionsTag changed = base;
    get(changed.spec) = other_value(f, get(base.spec));
    EXPECT_FALSE(changed == base) << f.name;
    EXPECT_NE(cache::solve_key(cb.content_hash, changed), key) << f.name;
  });
  cache::SolveOptionsTag other_scheme = base;
  other_scheme.scheme = Scheme::kMrpCse;
  EXPECT_NE(cache::solve_key(cb.content_hash, other_scheme), key);
}

TEST(SolveSpecSchema, BetaComparesByBitPattern) {
  SolveSpec a;
  SolveSpec b;
  a.beta = 0.0;
  b.beta = -0.0;
  EXPECT_FALSE(a == b);
  EXPECT_NE(hash_spec(a, kFnvOffset), hash_spec(b, kFnvOffset));
}

TEST(SolveSpecSchema, FuzzSpecsRoundTripThroughWireAndFlags) {
  for (const verify::FuzzCase& c : ci_cases()) {
    const SolveSpec& spec = c.options.spec();
    serve::SynthRequest req;
    req.bank = c.coefficients;
    req.scheme = c.scheme;
    req.spec = spec;
    const serve::SynthRequest back =
        serve::decode_synth_request(serve::encode_synth_request(req));
    EXPECT_EQ(back.bank, req.bank);
    EXPECT_EQ(back.scheme, req.scheme);
    EXPECT_TRUE(back.spec == spec);

    // cse_on_seed has no flag: the scheme sets it.
    SolveSpec parsed = parse_flags(to_flags(spec));
    parsed.cse_on_seed = spec.cse_on_seed;
    EXPECT_TRUE(parsed == spec) << to_flags(spec);
  }
}

TEST(SolveSpecSchema, FuzzSpecsRoundTripThroughTheStore) {
  const std::string path =
      ::testing::TempDir() + "mrpf_schema_roundtrip.mrpc";
  std::map<u64, cache::SolveOptionsTag> saved;
  {
    cache::SolveCache cache;
    MrpOptions opts;
    opts.cache = &cache;
    for (const verify::FuzzCase& c : ci_cases()) {
      opts.spec() = c.options.spec();
      (void)optimize_bank(optimization_bank(c.coefficients), c.scheme, opts);
    }
    cache.for_each([&saved](const cache::SolveCache::StoredSolve& e) {
      saved.emplace(e.key, e.tag);
    });
    ASSERT_GT(saved.size(), 100u);
    ASSERT_TRUE(cache::save_solve_cache(cache, path));
  }
  cache::SolveCache loaded;
  ASSERT_TRUE(cache::load_solve_cache(loaded, path));
  std::size_t seen = 0;
  loaded.for_each([&](const cache::SolveCache::StoredSolve& e) {
    const auto it = saved.find(e.key);
    ASSERT_NE(it, saved.end());
    EXPECT_TRUE(it->second == e.tag);
    ++seen;
  });
  EXPECT_EQ(seen, saved.size());
  std::remove(path.c_str());
}

TEST(SolveSpecSchema, FlagsRenderInSchemaOrderAndOmitDefaults) {
  EXPECT_EQ(to_flags(SolveSpec{}), "");
  SolveSpec spec;
  spec.beta = 0.3;
  spec.recursive_levels = 1;
  spec.passes.xform = true;
  spec.passes.xform_budget = 250'000;
  spec.rep = number::NumberRep::kSignMagnitude;
  EXPECT_EQ(to_flags(spec),
            " --beta 0.3 --recursive 1 --xform-budget 250000 --rep sm");
  spec.passes.xform_budget = 0;
  EXPECT_EQ(to_flags(spec), " --beta 0.3 --recursive 1 --xform --rep sm");

  // --xform-budget implies --xform.
  const SolveSpec budget = parse_flags("--xform-budget 60000");
  EXPECT_TRUE(budget.passes.xform);
  EXPECT_EQ(budget.passes.xform_budget, 60'000);
}

TEST(SolveSpecSchema, FlagParserIsStrictAndNamesTheFlag) {
  SolveSpec spec;
  const auto apply = [&spec](const char* flag, std::string text) {
    return apply_spec_flag(spec, flag, [&text] { return text; });
  };
  EXPECT_FALSE(apply("--taps", "31"));
  EXPECT_TRUE(apply("--rep", "csd"));
  EXPECT_EQ(spec.rep, number::NumberRep::kCsd);
  for (const auto& [flag, text] :
       std::vector<std::pair<const char*, const char*>>{
           {"--beta", "abc"},
           {"--beta", "1.5"},
           {"--beta", "0.5x"},
           {"--depth", "-1"},
           {"--recursive", "257"},
           {"--l-max", "64"},
           {"--opt-budget", "-1"},
           {"--xform-budget", "1e3"},
           {"--rep", "bogus"}}) {
    try {
      apply(flag, text);
      ADD_FAILURE() << flag << " accepted " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
}

TEST(SolveSpecSchema, SpecAndStoreDecodersRejectEveryOutOfRangeField) {
  std::vector<std::uint8_t> spec_bytes;
  io::ByteWriter spec_writer(spec_bytes);
  encode_spec(SolveSpec{}, spec_writer);
  // Store: 24-byte header, then the first entry's scheme byte and spec.
  const std::string path = ::testing::TempDir() + "mrpf_schema_bad.mrpc";
  {
    cache::SolveCache cache;
    MrpOptions opts;
    opts.cache = &cache;
    (void)optimize_bank(kPaperExample, Scheme::kMrp, opts);
    ASSERT_TRUE(cache::save_solve_cache(cache, path));
  }
  std::vector<std::uint8_t> store;
  {
    std::ifstream in(path, std::ios::binary);
    store.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto write_store = [&path](const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };

  for_each_bad_spec_word([&](std::size_t index, const SpecField& f,
                             u64 word) {
    std::vector<std::uint8_t> bytes = spec_bytes;
    put_word(bytes, 8 * index, word);
    io::ByteReader r(bytes.data(), bytes.size());
    EXPECT_THROW(decode_spec(r), Error) << f.name;

    bytes = store;
    put_word(bytes, 24 + 1 + 8 * index, word);
    put_word(bytes, bytes.size() - 8, fnv1a64(bytes.data(), bytes.size() - 8));
    write_store(bytes);
    cache::SolveCache cache;
    EXPECT_FALSE(cache::load_solve_cache(cache, path)) << f.name;
    EXPECT_EQ(cache.stats().entries, 0u) << f.name;
  });

  // The unmodified store still loads: the rejections above came from the
  // corrupted words alone.
  write_store(store);
  cache::SolveCache cache;
  EXPECT_TRUE(cache::load_solve_cache(cache, path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrpf::core
