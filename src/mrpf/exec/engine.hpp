// Direct-form multiply-accumulate execution of a compiled ExecProgram.
//
// One engine owns the per-stream state: a bounded history window holding
// the last N-1 input samples followed by room for one kernel block of new
// ones, so memory stays O(N + block) however large a run() call is. A
// block step is
//   copy up to kBlock inputs behind the history  ->  one MAC per tap (or
//   per mirrored tap pair when the program is folded) for each output  ->
//   slide the last N-1 samples to the front.
// All arithmetic is unsigned 64-bit wrap, exact because compile() proved
// every true value fits int64 for inputs of up to program.max_input_bits
// bits, and run() rejects any sample outside that width. Outputs are
// bit-identical to arch::TdfFilter::run sample for sample, across any
// split of the stream into run() calls.
#pragma once

#include <cstddef>
#include <vector>

#include "mrpf/exec/program.hpp"

namespace mrpf::exec {

class ExecEngine {
 public:
  /// Samples the kernel processes per block (the window holds N-1 more).
  static constexpr std::size_t kBlock = 512;

  /// The program must outlive the engine (the engine keeps a pointer —
  /// one compiled program serves many engines).
  explicit ExecEngine(const ExecProgram& program);

  /// Zeroes the history — identical to a freshly constructed engine.
  void reset();

  /// Streams n samples: y[i] is the filter output for x[i], continuing
  /// from the state previous run() calls left behind. Any n (including 0)
  /// is exact. Throws mrpf::Error, before touching any state, when a
  /// sample has |x| >= 2^(program.max_input_bits-1).
  void run(const i64* x, i64* y, std::size_t n);

  const ExecProgram& program() const { return *program_; }
  /// Accumulated exec_run time (items = samples processed).
  const core::StageTimers& timers() const { return timers_; }

 private:
  const ExecProgram* program_;
  std::vector<i64> window_;  // N-1 history samples, then up to kBlock new
  core::StageTimers timers_;
};

/// Batch-channel execution: one compiled program, many independent
/// streams. Channels fan out over the nesting-safe shared ThreadPool
/// (threads <= 0 — the default — routes through MRPF_THREADS); each
/// channel gets its own engine, so outputs are bit-identical to a serial
/// loop regardless of thread count. A sample outside the proven width
/// throws mrpf::Error naming its channel and index.
std::vector<std::vector<i64>> run_batch(
    const ExecProgram& program, const std::vector<std::vector<i64>>& inputs,
    int threads = 0);

}  // namespace mrpf::exec
