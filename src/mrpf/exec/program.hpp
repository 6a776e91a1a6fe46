// The compiled execution program: a verified arch::TdfFilter reduced to
// what a CPU needs to run it fast. The adder graph exists to save
// hardware multipliers; a CPU multiplies in one instruction, so the
// program keeps only the filter's effective direct-form coefficients
//
//   h[k] = c[k] << align[k],      y[n] = Σ_k h[k] · x[n-k],
//
// folded when h is palindromic (every linear-phase catalog filter), so
// the engine pays ⌈N/2⌉ multiplies per output instead of N. compile()
// proves the adder graph realizes these coefficients before it drops the
// graph, and proves the widest input for which unchecked 64-bit wrap
// arithmetic is exact.
//
// The program is pure data, so one compile serves any number of
// concurrent streams — each ExecEngine owns only its history window.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mrpf/common/bits.hpp"
#include "mrpf/core/stage_timers.hpp"

namespace mrpf::exec {

/// A compiled direct-form multiply-accumulate program.
struct ExecProgram {
  /// Effective coefficients h[k] = c[k] << align[k] (mod 2^64), one per
  /// tap position, zero taps included.
  std::vector<i64> coeffs;
  /// h[k] == h[N-1-k] for every k: the engine adds mirrored samples first
  /// and multiplies once per pair.
  bool folded = false;

  /// Largest signed input width (bits) for which every intermediate —
  /// live adder-graph node value, tap product, output partial sum —
  /// provably fits in int64. Engines accept samples with
  /// |x| < 2^(max_input_bits-1) and throw on anything wider.
  int max_input_bits = 0;

  /// exec_compile filled by compile(); engines account exec_run locally.
  core::StageTimers timers;

  std::size_t taps() const { return coeffs.size(); }
  /// Multiplies per output sample: ⌈N/2⌉ when folded, N otherwise.
  std::size_t macs_per_sample() const {
    return folded ? (coeffs.size() + 1) / 2 : coeffs.size();
  }
};

/// The per-stage JSON fragment the throughput bench embeds in
/// BENCH_throughput.json: every StageTimers sample keyed by stage name
/// ("exec.compile", "exec.run", "optimize", ...) with ms and item counts.
std::string stage_timers_json(const core::StageTimers& timers,
                              const std::string& indent);

}  // namespace mrpf::exec
