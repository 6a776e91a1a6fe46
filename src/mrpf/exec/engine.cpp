#include "mrpf/exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "mrpf/common/error.hpp"
#include "mrpf/common/format.hpp"
#include "mrpf/common/parallel.hpp"

namespace mrpf::exec {

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Index of the first sample with |x| >= 2^(bits-1), or n when none is:
/// x + lim lands in [0, 2·lim] (unsigned) exactly when |x| <= lim.
std::size_t first_wide_sample(const i64* x, std::size_t n, int bits) {
  const u64 lim = bits > 1 ? (u64{1} << (bits - 1)) - 1 : 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<u64>(x[i]) + lim > 2 * lim) return i;
  }
  return n;
}

/// y[i] = Σ_k h[k] · w[i + N-1 - k] for i in [0, m): w holds N-1 history
/// samples followed by the m new ones. Wrap arithmetic; exact by the
/// program's width proof.
void mac_block(const ExecProgram& program, const i64* w, i64* y,
               std::size_t m) {
  const i64* h = program.coeffs.data();
  const std::size_t last = program.coeffs.size() - 1;
  if (program.folded) {
    // h[k] == h[N-1-k]: add the mirrored samples, multiply once per pair.
    const std::size_t half = program.coeffs.size() / 2;
    const u64 mid = program.coeffs.size() % 2 != 0 ? h[half] : 0;
    for (std::size_t i = 0; i < m; ++i) {
      const i64* win = w + i;
      u64 acc = mid * static_cast<u64>(win[half]);
      for (std::size_t k = 0; k < half; ++k) {
        acc += static_cast<u64>(h[k]) *
               (static_cast<u64>(win[last - k]) + static_cast<u64>(win[k]));
      }
      y[i] = static_cast<i64>(acc);
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const i64* win = w + i;
    u64 acc = 0;
    for (std::size_t k = 0; k <= last; ++k) {
      acc += static_cast<u64>(h[k]) * static_cast<u64>(win[last - k]);
    }
    y[i] = static_cast<i64>(acc);
  }
}

}  // namespace

ExecEngine::ExecEngine(const ExecProgram& program) : program_(&program) {
  MRPF_CHECK(!program.coeffs.empty(), "ExecEngine: program has no taps");
  window_.assign(program.coeffs.size() - 1 + kBlock, 0);
}

void ExecEngine::reset() { std::fill(window_.begin(), window_.end(), 0); }

void ExecEngine::run(const i64* x, i64* y, std::size_t n) {
  const int bits = program_->max_input_bits;
  const std::size_t bad = first_wide_sample(x, n, bits);
  if (bad < n) {
    throw Error(str_format(
        "exec: input sample %zu (%lld) is outside the proven %d-bit input "
        "width (|x| < 2^%d)",
        bad, static_cast<long long>(x[bad]), bits, bits - 1));
  }
  const double t0 = now_ns();
  timers_.exec_run.items += n;
  const std::size_t history = window_.size() - kBlock;  // N-1
  i64* w = window_.data();
  while (n > 0) {
    const std::size_t m = std::min(n, kBlock);
    std::memcpy(w + history, x, m * sizeof(i64));
    mac_block(*program_, w, y, m);
    std::memmove(w, w + m, history * sizeof(i64));
    x += m;
    y += m;
    n -= m;
  }
  timers_.exec_run.ns += now_ns() - t0;
}

std::vector<std::vector<i64>> run_batch(
    const ExecProgram& program, const std::vector<std::vector<i64>>& inputs,
    int threads) {
  // Outputs are sized here, not in the workers: a buffer a pool thread
  // allocates lands in that thread's malloc arena, which keeps the pages
  // after the caller frees them (about 1.5 MB more peak RSS on stream_run).
  std::vector<std::vector<i64>> outputs;
  outputs.reserve(inputs.size());
  for (const std::vector<i64>& x : inputs) outputs.emplace_back(x.size());
  parallel_for(
      inputs.size(),
      [&](std::size_t i) {
        ExecEngine engine(program);
        try {
          engine.run(inputs[i].data(), outputs[i].data(), inputs[i].size());
        } catch (const Error& e) {
          throw Error(str_format("run_batch channel %zu: %s", i, e.what()));
        }
      },
      threads);
  return outputs;
}

}  // namespace mrpf::exec
