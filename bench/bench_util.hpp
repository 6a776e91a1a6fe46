// Shared helpers for the reproduction benches: catalog access, folded
// quantized banks, and consistent table formatting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mrpf/common/bits.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/number/quantize.hpp"

namespace mrpf::bench {

inline const std::vector<int> kWordlengths = {8, 12, 16, 20};

/// Folded (unique-half) integer bank of catalog filter `i`.
inline std::vector<i64> folded_bank(int i, int wordlength, bool maximal) {
  const auto& h = filter::catalog_coefficients(i);
  const number::QuantizedCoefficients q =
      maximal ? number::quantize_maximal(h, wordlength)
              : number::quantize_uniform(h, wordlength);
  return core::optimization_bank(q.values());
}

/// Parses the command line of a bench whose only flag is `--ci`. Any other
/// argument prints a usage line and exits 2, before the bench writes
/// anything.
inline bool parse_ci_flag(int argc, char** argv, const char* name) {
  bool ci_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") != 0) {
      std::fprintf(stderr, "usage: %s [--ci]\n", name);
      std::exit(2);
    }
    ci_mode = true;
  }
  return ci_mode;
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void print_paper_note(const char* note) {
  std::printf("PAPER:    %s\n", note);
}

inline void print_measured(const char* fmt, double value) {
  std::printf("MEASURED: ");
  std::printf(fmt, value);
  std::printf("\n");
}

}  // namespace mrpf::bench
