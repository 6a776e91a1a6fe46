// Strict command-line values shared by mrpf_synth, mrpf_fuzz and
// mrpf_serve, on top of env::int_flag / env::double_flag. Every number is
// parsed whole and range-checked; a bad value throws mrpf::Error naming
// the flag, which each tool's argument loop reports as a usage error
// (exit 2). SolveSpec flags go through the one schema parser,
// core::apply_spec_flag.
#pragma once

#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "mrpf/common/env.hpp"

namespace mrpf::cli {

/// A comma-separated list, each item checked like env::int_flag or
/// env::double_flag.
template <class T>
std::vector<T> list_flag(const std::string& flag, const std::string& csv,
                         T lo, T hi) {
  std::vector<T> out;
  std::stringstream items(csv);
  for (std::string item; std::getline(items, item, ',');) {
    if constexpr (std::is_floating_point_v<T>) {
      out.push_back(env::double_flag(flag, item, lo, hi));
    } else {
      out.push_back(static_cast<T>(env::int_flag(flag, item, lo, hi)));
    }
  }
  return out;
}

/// A coefficient bank: integers of magnitude below 2^63 - 1.
inline std::vector<i64> bank_flag(const std::string& flag,
                                  const std::string& csv) {
  constexpr i64 kMax = std::numeric_limits<i64>::max() - 1;
  return list_flag<i64>(flag, csv, -kMax, kMax);
}

}  // namespace mrpf::cli
