// DSP substrate: FFT vs direct DFT, convolution (double and exact
// integer), frequency response, windows, linear algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/dsp/fft.hpp"
#include "mrpf/dsp/freq_response.hpp"
#include "mrpf/dsp/linalg.hpp"
#include "mrpf/dsp/window.hpp"

namespace mrpf::dsp {
namespace {

/// The pre-hoist reference implementation of fir_filter_exact: per-sample
/// window clamp and per-tap alignment branch inside the loop. The
/// differential baseline the hoisted production path is tested against.
std::vector<i64> fir_filter_exact_reference(const std::vector<i64>& c,
                                            const std::vector<int>& align,
                                            const std::vector<i64>& x) {
  std::vector<i64> y(x.size(), 0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    i128 acc = 0;
    const std::size_t kmax = std::min(c.size() - 1, n);
    for (std::size_t k = 0; k <= kmax; ++k) {
      const int sh = align.empty() ? 0 : align[k];
      acc += static_cast<i128>(c[k]) * (static_cast<i128>(x[n - k]) << sh);
    }
    MRPF_CHECK(acc <= std::numeric_limits<i64>::max() &&
                   acc >= std::numeric_limits<i64>::min(),
               "fir_filter_exact_reference: accumulator overflows int64");
    y[n] = static_cast<i64>(acc);
  }
  return y;
}

TEST(Fft, MatchesDirectDftOnRandomData) {
  Rng rng(3);
  for (const std::size_t n : {2u, 8u, 64u, 256u}) {
    std::vector<cplx> data;
    for (std::size_t i = 0; i < n; ++i) {
      data.emplace_back(rng.next_gaussian(), rng.next_gaussian());
    }
    std::vector<cplx> fast = data;
    fft_radix2(fast, false);
    const std::vector<cplx> slow = dft_direct(data, false);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-8) << n << " " << k;
    }
  }
}

TEST(Fft, ForwardInverseRoundTrip) {
  Rng rng(5);
  std::vector<cplx> data;
  for (int i = 0; i < 128; ++i) data.emplace_back(rng.next_double(), 0.0);
  std::vector<cplx> work = data;
  fft_radix2(work, false);
  fft_radix2(work, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(work[i] - data[i]), 0.0, 1e-10);
  }
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<cplx> data(16, cplx{0.0, 0.0});
  data[0] = 1.0;
  fft_radix2(data, false);
  for (const cplx& x : data) EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cplx> data(12, cplx{0.0, 0.0});
  EXPECT_THROW(fft_radix2(data, false), Error);
  // The real helpers fall back to the direct transform instead.
  EXPECT_EQ(forward_real(std::vector<double>(12, 1.0)).size(), 12u);
}

TEST(Convolve, KnownProduct) {
  // (1 + 2z)(3 + 4z) = 3 + 10z + 8z².
  const auto c = convolve({1, 2}, {3, 4});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
  EXPECT_DOUBLE_EQ(c[1], 10.0);
  EXPECT_DOUBLE_EQ(c[2], 8.0);
}

TEST(Convolve, FirFilterMatchesConvolutionPrefix) {
  Rng rng(17);
  std::vector<double> h;
  std::vector<double> x;
  for (int i = 0; i < 9; ++i) h.push_back(rng.next_gaussian());
  for (int i = 0; i < 40; ++i) x.push_back(rng.next_gaussian());
  const auto y = fir_filter(h, x);
  const auto full = convolve(h, x);
  for (std::size_t n = 0; n < x.size(); ++n) {
    EXPECT_NEAR(y[n], full[n], 1e-10);
  }
}

TEST(Convolve, ExactIntegerWithAlignment) {
  const std::vector<i64> c = {3, -5, 7};
  const std::vector<int> align = {0, 1, 2};
  const std::vector<i64> x = {1, 0, 0, 2};
  const auto y = fir_filter_exact(c, align, x);
  // Effective coefficients: 3, -10, 28.
  ASSERT_EQ(y.size(), 4u);
  EXPECT_EQ(y[0], 3);
  EXPECT_EQ(y[1], -10);
  EXPECT_EQ(y[2], 28);
  EXPECT_EQ(y[3], 6);
}

TEST(Convolve, ExactHoistedPathMatchesReferenceDifferentially) {
  // The production fir_filter_exact splits warm-up from steady state; the
  // retained pre-hoist reference keeps the per-sample clamp. Both must be
  // identical on every shape: short streams that never leave warm-up,
  // tap counts longer than the stream, alignment on and off.
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t taps = 1 + rng.next_below(12);
    const std::size_t samples = rng.next_below(30);
    std::vector<i64> c;
    for (std::size_t k = 0; k < taps; ++k) {
      c.push_back(rng.next_int(-4000, 4000));
    }
    std::vector<int> align;
    if (rng.next_below(2) == 0) {
      for (std::size_t k = 0; k < taps; ++k) {
        align.push_back(static_cast<int>(rng.next_below(4)));
      }
    }
    std::vector<i64> x;
    for (std::size_t n = 0; n < samples; ++n) {
      x.push_back(rng.next_int(-100000, 100000));
    }
    EXPECT_EQ(fir_filter_exact(c, align, x),
              fir_filter_exact_reference(c, align, x))
        << "trial " << trial << ": " << taps << " taps, " << samples
        << " samples";
  }
}

TEST(Convolve, ExactRejectsOverflowAndBadAlign) {
  EXPECT_THROW(
      fir_filter_exact({i64{1} << 40}, {}, {i64{1} << 40}), Error);
  EXPECT_THROW(fir_filter_exact({1, 2}, {0}, {1}), Error);
  EXPECT_THROW(fir_filter_exact({1}, {-1}, {1}), Error);
}

TEST(FreqResponse, DcAndNyquistOfMovingAverage) {
  const std::vector<double> h(4, 0.25);
  EXPECT_NEAR(std::abs(freq_response_at(h, 0.0)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(freq_response_at(h, 1.0)), 0.0, 1e-12);
}

TEST(FreqResponse, AmplitudeMatchesMagnitudeForSymmetricFilter) {
  const std::vector<double> h = {0.1, 0.25, 0.4, 0.25, 0.1};
  for (double f = 0.0; f <= 1.0; f += 0.05) {
    EXPECT_NEAR(std::fabs(amplitude_response_at(h, f)),
                std::abs(freq_response_at(h, f)), 1e-10)
        << f;
  }
}

TEST(FreqResponse, GroupDelayOfLinearPhaseIsConstant) {
  const std::vector<double> h = {0.1, 0.25, 0.4, 0.25, 0.1};  // N = 5
  for (double f = 0.0; f <= 0.6; f += 0.05) {
    EXPECT_NEAR(group_delay_at(h, f), 2.0, 1e-9) << f;
  }
  // Asymmetric filters have frequency-dependent group delay.
  const std::vector<double> g = {0.7, 0.2, 0.1};
  EXPECT_GT(std::fabs(group_delay_at(g, 0.1) - group_delay_at(g, 0.6)),
            1e-3);
  EXPECT_THROW(group_delay_at({}, 0.1), Error);
}

TEST(FreqResponse, GroupDelayAtNullReturnsLinearPhaseDelay) {
  // {0.25, 0.5, 0.25} nulls exactly at Nyquist (every half-band filter
  // does); the 0/0 ratio used to emit NaN. Linear phase → the analytic
  // limit (N−1)/2 must come back instead.
  EXPECT_DOUBLE_EQ(group_delay_at({0.25, 0.5, 0.25}, 1.0), 1.0);
  // Antisymmetric (type III/IV) filters null at DC.
  EXPECT_DOUBLE_EQ(group_delay_at({1.0, 0.0, -1.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(group_delay_at({1.0, -1.0}, 0.0), 0.5);
  // A null on a non-linear-phase filter has no limit: loud error, never
  // NaN. (1 + 0.5z⁻¹)(1 + z⁻²) zeroes f = 0.5 with an asymmetric h.
  EXPECT_THROW(group_delay_at({1.0, 0.5, 1.0, 0.5}, 0.5), Error);
}

TEST(FreqResponse, GroupDelayNanFreeOverDesignGrid) {
  // A half-band-structured filter swept across the full design grid,
  // nulls included, must stay finite everywhere.
  const std::vector<double> h = {-0.04, 0.0, 0.29, 0.5, 0.29, 0.0, -0.04};
  for (int i = 0; i <= 64; ++i) {
    const double f = static_cast<double>(i) / 64.0;
    const double tau = group_delay_at(h, f);
    EXPECT_TRUE(std::isfinite(tau)) << f;
    EXPECT_NEAR(tau, 3.0, 1e-6) << f;
  }
}

TEST(Windows, BasicShapeProperties) {
  for (const int n : {5, 16, 33}) {
    for (const auto& w : {window_hamming(n), window_hann(n),
                          window_blackman(n), window_kaiser(n, 6.0)}) {
      ASSERT_EQ(static_cast<int>(w.size()), n);
      double peak = 0.0;
      for (const double v : w) {
        EXPECT_GE(v, -1e-12);
        EXPECT_LE(v, 1.0 + 1e-12);
        peak = std::max(peak, v);
      }
      EXPECT_NEAR(peak, 1.0, 0.1);
      // Symmetry.
      for (int k = 0; k < n / 2; ++k) {
        EXPECT_NEAR(w[static_cast<std::size_t>(k)],
                    w[static_cast<std::size_t>(n - 1 - k)], 1e-12);
      }
    }
  }
}

TEST(Windows, BesselI0KnownValues) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-15);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658777520084, 1e-12);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871823604442, 1e-9);
}

TEST(Windows, KaiserSpecHelpers) {
  EXPECT_NEAR(kaiser_beta_for_attenuation(60.0), 0.1102 * 51.3, 1e-12);
  EXPECT_EQ(kaiser_beta_for_attenuation(15.0), 0.0);
  EXPECT_GT(kaiser_length_for_spec(60.0, 0.05),
            kaiser_length_for_spec(40.0, 0.05));
  EXPECT_GT(kaiser_length_for_spec(60.0, 0.02),
            kaiser_length_for_spec(60.0, 0.1));
  EXPECT_THROW(kaiser_length_for_spec(60.0, 0.0), Error);
}

TEST(Linalg, SolveKnownSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const auto x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linalg, SolveRandomSystemsAgainstResidual) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    Matrix a(n, n);
    std::vector<double> b(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      b[static_cast<std::size_t>(i)] = rng.next_gaussian();
      for (int j = 0; j < n; ++j) a.at(i, j) = rng.next_gaussian();
      a.at(i, i) += 4.0;  // keep well-conditioned
    }
    const auto x = solve_linear(a, b);
    const auto ax = a * x;
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(ax[static_cast<std::size_t>(i)],
                  b[static_cast<std::size_t>(i)], 1e-8);
    }
  }
}

TEST(Linalg, SingularSystemThrows) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_THROW(solve_linear(a, {1.0, 2.0}), Error);
}

TEST(Linalg, LeastSquaresFitsOverdeterminedLine) {
  // Fit y = 2 + 3t on noisy-free samples: LS must recover exactly.
  Matrix a(5, 2);
  std::vector<double> b;
  for (int i = 0; i < 5; ++i) {
    a.at(i, 0) = 1.0;
    a.at(i, 1) = static_cast<double>(i);
    b.push_back(2.0 + 3.0 * static_cast<double>(i));
  }
  const auto x = solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

}  // namespace
}  // namespace mrpf::dsp
