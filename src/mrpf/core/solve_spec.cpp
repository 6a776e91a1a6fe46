#include "mrpf/core/solve_spec.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <type_traits>
#include <utility>
#include <vector>

#include "mrpf/common/env.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/hash.hpp"

namespace mrpf::core {

namespace {

/// The field's value as one 64-bit word: doubles by bit pattern, every
/// other kind sign-extended.
template <class T>
u64 to_word(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<u64>(v);
  } else {
    return static_cast<u64>(static_cast<i64>(v));
  }
}

/// Range check on the full word, before it is narrowed into the field.
template <class T>
void from_word(const SpecField& f, u64 word, T& out) {
  const auto as_int = static_cast<i64>(word);
  const double v = std::is_floating_point_v<T> ? std::bit_cast<double>(word)
                                               : static_cast<double>(as_int);
  MRPF_CHECK(v >= f.lo && v <= f.hi,
             std::string("solve spec: ") + f.name + " out of range");
  if constexpr (std::is_floating_point_v<T>) {
    out = v;
  } else {
    out = static_cast<T>(as_int);
  }
}

template <class T>
std::string render(const SpecField& f, T v) {
  if constexpr (std::is_enum_v<T>) {
    return f.names[static_cast<std::size_t>(v)];
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];  // the shortest form that parses back to v
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else {
    return std::to_string(static_cast<long long>(v));
  }
}

template <class T>
T parse(const SpecField& f, const std::string& text) {
  if constexpr (std::is_enum_v<T>) {
    std::string choices;
    for (std::size_t i = 0; i < f.names.size(); ++i) {
      if (text == f.names[i]) return static_cast<T>(i);
      choices += (i == 0 ? "" : "|") + std::string(f.names[i]);
    }
    throw Error(std::string(f.flag) + " expects one of " + choices +
                ", got \"" + text + "\"");
  } else if constexpr (std::is_floating_point_v<T>) {
    return env::double_flag(f.flag, text, f.lo, f.hi);
  } else {
    return static_cast<T>(env::int_flag(f.flag, text,
                                        static_cast<long long>(f.lo),
                                        static_cast<long long>(f.hi)));
  }
}

}  // namespace

bool SolveSpec::operator==(const SolveSpec& other) const {
  bool same = true;
  visit([&](const SpecField&, auto get) {
    same = same && to_word(get(*this)) == to_word(get(other));
  });
  return same;
}

u64 hash_spec(const SolveSpec& spec, u64 state) {
  SolveSpec::visit([&](const SpecField&, auto get) {
    state = fnv1a64_word(to_word(get(spec)), state);
  });
  return state;
}

void encode_spec(const SolveSpec& spec, io::ByteWriter& w) {
  SolveSpec::visit(
      [&](const SpecField&, auto get) { w.u64v(to_word(get(spec))); });
}

SolveSpec decode_spec(io::ByteReader& r) {
  SolveSpec spec;
  SolveSpec::visit(
      [&](const SpecField& f, auto get) { from_word(f, r.u64v(), get(spec)); });
  return spec;
}

std::string to_flags(const SolveSpec& spec) {
  static const SolveSpec defaults;
  const auto rendered = [&spec](const SpecField& f, auto get) {
    return f.flag != nullptr && to_word(get(spec)) != to_word(get(defaults));
  };
  std::vector<std::string_view> implied;
  SolveSpec::visit([&](const SpecField& f, auto get) {
    if (f.implies != nullptr && rendered(f, get)) implied.push_back(f.implies);
  });
  std::string out;
  SolveSpec::visit([&](const SpecField& f, auto get) {
    if (!rendered(f, get) || std::ranges::count(implied, f.flag) != 0) return;
    out += std::string(" ") + f.flag;
    if constexpr (!std::is_same_v<std::decay_t<decltype(get(spec))>, bool>) {
      out += " " + render(f, get(spec));
    }
  });
  return out;
}

bool apply_spec_flag(SolveSpec& spec, std::string_view flag,
                     const std::function<std::string()>& value) {
  bool matched = false;
  SolveSpec::visit([&](const SpecField& f, auto get) {
    if (matched || f.flag == nullptr || flag != f.flag) return;
    matched = true;
    using T = std::decay_t<decltype(get(spec))>;
    if constexpr (std::is_same_v<T, bool>) {
      get(spec) = true;
    } else {
      get(spec) = parse<T>(f, value());
    }
    if (f.implies != nullptr) apply_spec_flag(spec, f.implies, value);
  });
  return matched;
}

u64 schema_fingerprint() {
  u64 h = kFnvOffset;
  const auto text = [&h](std::string_view s) {
    h = fnv1a64_word(s.size(), fnv1a64(s.data(), s.size(), h));
  };
  SolveSpec::visit([&](const SpecField& f, auto get) {
    using T = std::decay_t<decltype(get(std::declval<SolveSpec&>()))>;
    text(f.name);
    h = fnv1a64_word(std::is_floating_point_v<T>, h);  // word = bit pattern
    h = fnv1a64_word(std::bit_cast<u64>(f.lo), h);
    h = fnv1a64_word(std::bit_cast<u64>(f.hi), h);
    for (const char* n : f.names) text(n);
  });
  return h;
}

}  // namespace mrpf::core
