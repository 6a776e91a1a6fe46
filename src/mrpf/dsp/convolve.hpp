// Convolution and reference FIR filtering — the golden models every
// synthesized architecture is checked against.
#pragma once

#include <vector>

#include "mrpf/common/bits.hpp"

namespace mrpf::dsp {

/// Full linear convolution, size a.size() + b.size() - 1.
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Streaming FIR in doubles: y[n] = Σ h[k]·x[n-k], x[<0] = 0; |y| == |x|.
std::vector<double> fir_filter(const std::vector<double>& h,
                               const std::vector<double>& x);

/// Exact integer FIR with per-tap left alignment shifts (maximal scaling):
/// y[n] = Σ (c[k] << align[k]) · x[n-k], accumulated in 128-bit and checked
/// to fit int64. align may be empty (treated as all-zero).
///
/// The inner loop is split into a warm-up prologue (outputs whose history
/// window is still partial) and a steady-state body with no per-sample
/// bounds clamp and no per-tap empty-alignment branch, so this path is an
/// honest naive-throughput baseline for the perf benches.
std::vector<i64> fir_filter_exact(const std::vector<i64>& c,
                                  const std::vector<int>& align,
                                  const std::vector<i64>& x);

}  // namespace mrpf::dsp
