#include "mrpf/rtl/simulator.hpp"

#include <queue>

#include "mrpf/common/error.hpp"
#include "mrpf/common/format.hpp"

namespace mrpf::rtl {

Simulator::Simulator(const Module& module) {
  // Dense indices: ports first, then internal nets, in declaration order.
  std::vector<bool> is_reg;
  const auto declare = [&](const Net& net, bool is_input) {
    MRPF_CHECK(index_.emplace(net.name, static_cast<int>(slots_.size()))
                   .second,
               str_format("rtl sim: net '%s' declared twice",
                          net.name.c_str()));
    MRPF_CHECK(net.width >= 1 && net.width <= 64,
               str_format("rtl sim: net '%s' width out of range",
                          net.name.c_str()));
    const u64 mask = net.width == 64 ? ~u64{0} : (u64{1} << net.width) - 1;
    const u64 sign = net.is_signed ? u64{1} << (net.width - 1) : 0;
    slots_.push_back({mask, sign});
    is_input_.push_back(is_input);
    is_reg.push_back(net.is_reg);
  };
  for (const Port& p : module.ports) declare(p.net, p.dir == PortDir::kInput);
  for (const Net& n : module.nets) declare(n, false);
  values_.assign(slots_.size(), 0);

  // Topological order of continuous assigns: an assign depends on another
  // assign whose lhs it references. Registers and ports are state.
  const std::size_t n_assigns = module.assigns.size();
  std::vector<int> producer(slots_.size(), -1);
  std::vector<Program> compiled;
  std::vector<std::vector<int>> refs(n_assigns);
  for (std::size_t i = 0; i < n_assigns; ++i) {
    const Assign& a = module.assigns[i];
    const int lhs = index_of(a.lhs);
    MRPF_CHECK(producer[static_cast<std::size_t>(lhs)] < 0,
               "rtl sim: net driven by multiple assigns");
    MRPF_CHECK(!is_reg[static_cast<std::size_t>(lhs)],
               "rtl sim: continuous assign to a reg");
    producer[static_cast<std::size_t>(lhs)] = static_cast<int>(i);
    compiled.push_back(compile(lhs, *a.rhs, &refs[i]));
  }
  std::vector<std::vector<int>> consumers(n_assigns);
  std::vector<int> indegree(n_assigns, 0);
  for (std::size_t i = 0; i < n_assigns; ++i) {
    for (const int r : refs[i]) {
      const int p = producer[static_cast<std::size_t>(r)];
      if (p >= 0) {
        consumers[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
        ++indegree[i];
      }
    }
  }
  std::queue<int> ready;
  for (std::size_t i = 0; i < n_assigns; ++i) {
    if (indegree[i] == 0) ready.push(static_cast<int>(i));
  }
  while (!ready.empty()) {
    const int a = ready.front();
    ready.pop();
    assigns_.push_back(compiled[static_cast<std::size_t>(a)]);
    for (const int c : consumers[static_cast<std::size_t>(a)]) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) ready.push(c);
    }
  }
  MRPF_CHECK(assigns_.size() == n_assigns,
             "rtl sim: combinational cycle in continuous assigns");

  for (const SeqAssign& sa : module.seq) {
    const int lhs = index_of(sa.lhs);
    MRPF_CHECK(is_reg[static_cast<std::size_t>(lhs)],
               str_format("rtl sim: clocked assign to wire '%s'",
                          sa.lhs.c_str()));
    reset_.push_back(compile(lhs, *sa.reset_rhs, nullptr));
    clock_.push_back(compile(lhs, *sa.clock_rhs, nullptr));
  }
  next_.resize(module.seq.size());
}

int Simulator::index_of(const std::string& name) const {
  const auto it = index_.find(name);
  MRPF_CHECK(it != index_.end(),
             str_format("rtl sim: reference to undeclared net '%s'",
                        name.c_str()));
  return it->second;
}

Simulator::Program Simulator::compile(int lhs, const Expr& rhs,
                                      std::vector<int>* refs) {
  const auto begin = static_cast<std::uint32_t>(code_.size());
  emit(rhs, 0, refs);
  return {lhs, begin, static_cast<std::uint32_t>(code_.size())};
}

void Simulator::emit(const Expr& e, int depth, std::vector<int>* refs) {
  // `depth` values are on the stack below this expression's result.
  if (stack_.size() < static_cast<std::size_t>(depth) + 1) {
    stack_.resize(static_cast<std::size_t>(depth) + 1);
  }
  switch (e.kind) {
    case ExprKind::kConst:
      code_.push_back({Op::kConst, static_cast<u64>(e.value)});
      return;
    case ExprKind::kRef: {
      const int net = index_of(e.name);
      if (refs != nullptr) refs->push_back(net);
      code_.push_back({Op::kRef, static_cast<u64>(net)});
      return;
    }
    case ExprKind::kNegate:
      emit(*e.a, depth, refs);
      code_.push_back({Op::kNeg, 0});
      return;
    case ExprKind::kShiftLeft:
    case ExprKind::kShiftRight:
      MRPF_CHECK(e.value >= 0 && e.value < 64,
                 str_format("rtl sim: shift amount %lld outside [0, 63]",
                            static_cast<long long>(e.value)));
      emit(*e.a, depth, refs);
      code_.push_back({e.kind == ExprKind::kShiftLeft ? Op::kShl : Op::kShr,
                       static_cast<u64>(e.value)});
      return;
    case ExprKind::kAdd:
    case ExprKind::kSub:
      emit(*e.a, depth, refs);
      emit(*e.b, depth + 1, refs);
      code_.push_back({e.kind == ExprKind::kAdd ? Op::kAdd : Op::kSub, 0});
      return;
  }
  throw Error("rtl sim: unknown expression kind");
}

u64 Simulator::eval(const Program& p) {
  u64* sp = stack_.data();
  const Instr* const end = code_.data() + p.end;
  for (const Instr* in = code_.data() + p.begin; in != end; ++in) {
    switch (in->op) {
      case Op::kConst:
        *sp++ = in->arg;
        break;
      case Op::kRef:
        *sp++ = static_cast<u64>(values_[in->arg]);
        break;
      case Op::kNeg:
        sp[-1] = 0 - sp[-1];
        break;
      case Op::kShl:
        sp[-1] <<= in->arg;
        break;
      case Op::kShr:  // arithmetic
        sp[-1] = static_cast<u64>(static_cast<i64>(sp[-1]) >> in->arg);
        break;
      case Op::kAdd:
        --sp;
        sp[-1] += *sp;
        break;
      case Op::kSub:
        --sp;
        sp[-1] -= *sp;
        break;
    }
  }
  return sp[-1];
}

void Simulator::write(int net, u64 value) {
  const Slot& s = slots_[static_cast<std::size_t>(net)];
  values_[static_cast<std::size_t>(net)] =
      static_cast<i64>(((value & s.mask) ^ s.sign) - s.sign);
}

void Simulator::set_input(const std::string& name, i64 value) {
  const auto it = index_.find(name);
  MRPF_CHECK(it != index_.end() &&
                 is_input_[static_cast<std::size_t>(it->second)],
             str_format("rtl sim: no input port '%s'", name.c_str()));
  write(it->second, static_cast<u64>(value));
}

void Simulator::settle() {
  for (const Program& p : assigns_) write(p.lhs, eval(p));
}

void Simulator::clock_edge(bool reset) {
  // Non-blocking semantics: evaluate all rhs first, then commit.
  const std::vector<Program>& programs = reset ? reset_ : clock_;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    next_[i] = eval(programs[i]);
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    write(programs[i].lhs, next_[i]);
  }
  settle();
}

i64 Simulator::get(const std::string& name) const {
  return values_[static_cast<std::size_t>(index_of(name))];
}

std::vector<i64> Simulator::run_filter(const std::vector<i64>& x) {
  MRPF_CHECK(!clock_.empty(), "rtl sim: module has no clocked block");
  set_input("x", 0);
  const int x_net = index_of("x");
  const auto y_net = static_cast<std::size_t>(index_of("y"));
  settle();
  clock_edge(/*reset=*/true);
  std::vector<i64> y;
  y.reserve(x.size());
  for (const i64 sample : x) {
    write(x_net, static_cast<u64>(sample));
    settle();
    clock_edge(/*reset=*/false);
    y.push_back(values_[y_net]);
  }
  return y;
}

std::vector<i64> Simulator::run_block(i64 x) {
  set_input("x", x);
  settle();
  std::vector<i64> out;
  for (std::size_t i = 0;; ++i) {
    const auto it = index_.find(str_format("p%zu", i));
    if (it == index_.end()) break;
    out.push_back(values_[static_cast<std::size_t>(it->second)]);
  }
  return out;
}

}  // namespace mrpf::rtl
