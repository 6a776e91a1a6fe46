// Out-of-range SolveSpec words for decoder-strictness tests: for every
// schema field, encodings just outside its range plus, for fields whose
// range fits 32 bits, one whose low 32 bits are in range (a decoder that
// narrowed before checking would accept it). Shared by the wire
// (test_serve) and spec/store (test_solve_spec) decoder tests.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "mrpf/core/solve_spec.hpp"

namespace mrpf {

/// Calls fn(field index, field, word) for every out-of-range word of every
/// SolveSpec field; the field's word sits at byte 8 * index of an
/// encode_spec image.
template <class Fn>
void for_each_bad_spec_word(Fn&& fn) {
  std::size_t index = 0;
  core::SolveSpec::visit([&](const core::SpecField& f, auto get) {
    using T = std::decay_t<decltype(get(std::declval<core::SolveSpec&>()))>;
    std::vector<u64> words;
    if constexpr (std::is_floating_point_v<T>) {
      words = {std::bit_cast<u64>(f.hi + 1), std::bit_cast<u64>(f.lo - 1),
               std::bit_cast<u64>(std::numeric_limits<double>::quiet_NaN())};
    } else {
      const auto lo = static_cast<i64>(f.lo);
      const auto hi = static_cast<i64>(f.hi);
      words = {static_cast<u64>(hi + 1), static_cast<u64>(lo - 1)};
      if (lo + (i64{1} << 32) > hi) {
        words.push_back(static_cast<u64>(lo + (i64{1} << 32)));
      }
    }
    for (const u64 word : words) fn(index, f, word);
    ++index;
  });
}

/// Overwrites the little-endian word at byte offset `at`.
inline void put_word(std::vector<std::uint8_t>& bytes, std::size_t at,
                     u64 word) {
  for (int b = 0; b < 8; ++b) {
    bytes[at + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(word >> (8 * b));
  }
}

}  // namespace mrpf
