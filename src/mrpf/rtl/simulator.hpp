// Event-free two-phase simulator for parsed modules: continuous assigns
// settle in dependency order, registers update on an explicit clock edge,
// every write truncates to the declared net width with Verilog signed
// semantics. Its job is to certify the emitted Verilog against the C++
// architecture model, so it runs every sample of a stream: the constructor
// resolves every name once, giving each port and net a dense index and
// compiling each assign into a flat postfix program over those indices, so
// simulating a sample does no string work. Arithmetic wraps in u64 and
// truncates on write, which equals i64 evaluation wherever that does not
// overflow.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mrpf/rtl/ast.hpp"

namespace mrpf::rtl {

class Simulator {
 public:
  /// Resolves and compiles `module`. Throws mrpf::Error on a net declared
  /// twice, a reference or assignment to an undeclared net, a net driven
  /// by two assigns, a continuous assign to a reg, a clocked assign to a
  /// wire, a shift amount outside [0, 63] or a combinational cycle.
  explicit Simulator(const Module& module);

  /// Drives an input port (value truncated to the port width).
  void set_input(const std::string& name, i64 value);

  /// Re-evaluates all continuous assigns (topological order).
  void settle();

  /// One posedge: all registers take their clocked (or reset) value
  /// simultaneously, then combinational logic settles.
  void clock_edge(bool reset);

  /// Current value of any net/port.
  i64 get(const std::string& name) const;

  /// Convenience for emitted TDF filters (ports clk/rst/x/y): applies a
  /// reset edge, then feeds x sample by sample, returning y after each
  /// clock edge. Matches arch::TdfFilter::run bit-for-bit.
  std::vector<i64> run_filter(const std::vector<i64>& x);

  /// Convenience for emitted multiplier blocks (ports x/p0..pN): sets x,
  /// settles, and returns every p output in index order.
  std::vector<i64> run_block(i64 x);

 private:
  enum class Op : std::uint8_t { kConst, kRef, kNeg, kShl, kShr, kAdd, kSub };
  struct Instr {
    Op op;
    u64 arg;  // kConst: value bits; kRef: net index; kShl/kShr: amount
  };
  /// One compiled assignment: code_[begin, end) leaves the rhs on the
  /// stack, and the result is written to net `lhs`.
  struct Program {
    int lhs;
    std::uint32_t begin;
    std::uint32_t end;
  };
  /// Truncation of one net: keep `mask`, sign-extend from `sign` (0 for
  /// an unsigned net).
  struct Slot {
    u64 mask;
    u64 sign;
  };

  int index_of(const std::string& name) const;
  Program compile(int lhs, const Expr& rhs, std::vector<int>* refs);
  void emit(const Expr& e, int depth, std::vector<int>* refs);
  u64 eval(const Program& p);
  void write(int net, u64 value);

  std::unordered_map<std::string, int> index_;
  std::vector<Slot> slots_;
  std::vector<i64> values_;
  std::vector<bool> is_input_;
  std::vector<Instr> code_;
  std::vector<Program> assigns_;  // topological order
  std::vector<Program> reset_;
  std::vector<Program> clock_;
  std::vector<u64> stack_;
  std::vector<u64> next_;  // clock_edge's register values before commit
};

}  // namespace mrpf::rtl
