// The plan compiler: arch::TdfFilter (any scheme, post-lowering, folded
// taps already expanded) -> ExecProgram. See program.hpp for the program
// shape. compile() is deterministic; it throws mrpf::Error when the
// filter's adder graph does not realize its coefficients, and a filter
// whose magnitudes rule out unchecked int64 execution simply reports a
// small max_input_bits so the caller falls back to the checked
// interpreter.
#pragma once

#include "mrpf/arch/tdf.hpp"
#include "mrpf/exec/program.hpp"

namespace mrpf::exec {

/// Compiles the filter's effective coefficients, fold flag and proven
/// input width. Records timers.exec_compile (items = multiplies per
/// output sample).
ExecProgram compile(const arch::TdfFilter& filter);

}  // namespace mrpf::exec
