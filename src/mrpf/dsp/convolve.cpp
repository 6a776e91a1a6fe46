#include "mrpf/dsp/convolve.hpp"

#include <limits>

#include "mrpf/common/error.hpp"

namespace mrpf::dsp {

std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

std::vector<double> fir_filter(const std::vector<double>& h,
                               const std::vector<double>& x) {
  MRPF_CHECK(!h.empty(), "fir_filter: empty impulse response");
  std::vector<double> y(x.size(), 0.0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0.0;
    const std::size_t kmax = std::min(h.size() - 1, n);
    for (std::size_t k = 0; k <= kmax; ++k) {
      acc += h[k] * x[n - k];
    }
    y[n] = acc;
  }
  return y;
}

std::vector<i64> fir_filter_exact(const std::vector<i64>& c,
                                  const std::vector<int>& align,
                                  const std::vector<i64>& x) {
  MRPF_CHECK(!c.empty(), "fir_filter_exact: empty coefficient vector");
  MRPF_CHECK(align.empty() || align.size() == c.size(),
             "fir_filter_exact: alignment size mismatch");
  for (const int a : align) {
    MRPF_CHECK(a >= 0 && a < 63, "fir_filter_exact: bad alignment shift");
  }
  const std::size_t taps = c.size();
  // Hoist the per-tap empty-alignment branch: one aligned-coefficient pass
  // up front, then the loops read a single effective shift per tap.
  std::vector<int> shifts(taps, 0);
  if (!align.empty()) shifts.assign(align.begin(), align.end());

  std::vector<i64> y(x.size(), 0);
  const std::size_t warm = std::min(x.size(), taps - 1);
  // Prologue: the history window is still partial, so the tap range needs
  // the clamp.
  for (std::size_t n = 0; n < warm; ++n) {
    i128 acc = 0;
    for (std::size_t k = 0; k <= n; ++k) {
      acc += static_cast<i128>(c[k]) *
             (static_cast<i128>(x[n - k]) << shifts[k]);
    }
    MRPF_CHECK(acc <= std::numeric_limits<i64>::max() &&
                   acc >= std::numeric_limits<i64>::min(),
               "fir_filter_exact: accumulator overflows int64");
    y[n] = static_cast<i64>(acc);
  }
  // Steady state: every tap is in range — no per-sample window clamp.
  for (std::size_t n = warm; n < x.size(); ++n) {
    i128 acc = 0;
    const i64* window = x.data() + (n - (taps - 1));
    for (std::size_t k = 0; k < taps; ++k) {
      acc += static_cast<i128>(c[k]) *
             (static_cast<i128>(window[taps - 1 - k]) << shifts[k]);
    }
    MRPF_CHECK(acc <= std::numeric_limits<i64>::max() &&
                   acc >= std::numeric_limits<i64>::min(),
               "fir_filter_exact: accumulator overflows int64");
    y[n] = static_cast<i64>(acc);
  }
  return y;
}

}  // namespace mrpf::dsp
