// Dispatch loop for compiled programs. Every operation here must stay
// bit-identical to the tree-walker (see the header contract); the
// scalar math is shared via eval_ops.hpp.
#include <algorithm>
#include <cmath>
#include <string>

#include "autocfd/interp/bytecode.hpp"
#include "autocfd/interp/eval_ops.hpp"

namespace autocfd::interp::bytecode {

namespace {

[[noreturn]] void throw_oob(int dim, long long value, long long lo,
                            long long hi) {
  // Same format as ArrayValue::index so the engines fail identically.
  throw autocfd::CompileError(
      "array subscript out of bounds: dim " + std::to_string(dim + 1) +
      " value " + std::to_string(value) + " not in [" + std::to_string(lo) +
      ", " + std::to_string(hi) + "]");
}

[[noreturn]] void throw_non_finite(const fortran::Stmt& s, double v) {
  throw autocfd::CompileError("non-finite value (" + std::to_string(v) +
                              ") assigned to array '" + s.lhs->name +
                              "' at " + s.loc.str() +
                              ": the computation diverged");
}

/// Elements a walk from `cur` by `stride` touches in `count` steps.
struct Span {
  long long lo, hi;
};

Span span_of(long long cur, long long stride, long long count) {
  const long long end = cur + (count - 1) * stride;
  return stride >= 0 ? Span{cur, end} : Span{end, cur};
}

/// True when two walks over `count` iterations never touch a common
/// element. Exact for equal strides; otherwise their element ranges
/// must not overlap.
bool walks_disjoint(long long a, long long b, long long stride_a,
                    long long stride_b, long long count) {
  if (stride_a == stride_b && stride_a != 0) {
    const long long diff = b - a;
    return diff % stride_a != 0 || diff / stride_a >= count ||
           diff / stride_a <= -count;
  }
  const Span sa = span_of(a, stride_a, count);
  const Span sb = span_of(b, stride_b, count);
  return sa.hi < sb.lo || sb.hi < sa.lo;
}

}  // namespace

ExecSignal BytecodeEngine::run(const Program& p, Env& env, double& flops) {
  ++stats_.kernel_runs;
  const auto need = static_cast<std::size_t>(p.lane_regs_) *
                    static_cast<std::size_t>(kStripWidth);
  if (lanes_.size() < need) lanes_.resize(need, 0.0);
  return p.execute(env, flops, lanes_, stats_);
}

bool Program::strips_are_safe(const LoopDesc& ld, const LoopState& ls) const {
  const long long count = (ls.last - ls.v) / ls.step + 1;
  for (const auto& [st, other] : ld.alias_pairs) {
    const WalkState& a = walk_state_[static_cast<std::size_t>(st)];
    const WalkState& b = walk_state_[static_cast<std::size_t>(other)];
    // A zero stride revisits one element every iteration, carrying a
    // value across iterations even between identical walks.
    const bool identical =
        a.cur == b.cur && a.stride == b.stride && a.stride != 0;
    if (!identical &&
        !walks_disjoint(a.cur, b.cur, a.stride, b.stride, count)) {
      return false;
    }
  }
  return true;
}

void Program::run_strips(const LoopDesc& ld, const LoopState& ls, Env& env,
                         double& flops, double* lanes) const {
  double* const scalars = env.scalars.data();
  ArrayValue* const arrays = env.arrays.data();
  const auto lane = [&](int reg) {
    return lanes + static_cast<std::size_t>(reg - ld.reg_lo) * kStripWidth;
  };
  const auto temp_reg = [&](int slot) {
    for (const LaneTemp& t : ld.temps) {
      if (t.slot == slot) return t.reg;
    }
    return -1;
  };
  const long long count = (ls.last - ls.v) / ls.step + 1;
  int n = 0;
  for (long long t0 = 0; t0 < count; t0 += kStripWidth) {
    n = static_cast<int>(std::min<long long>(kStripWidth, count - t0));
    const fortran::Stmt* bad_stmt = nullptr;
    double bad_value = 0.0;
    for (int pc = ld.body_pc; pc < ld.exit_pc - 1; ++pc) {
      const Instr& in = code_[static_cast<std::size_t>(pc)];
      if (in.op == Op::AddFlops) {
        flops += in.imm * n;
        continue;
      }
      double* const r = lane(in.a);
      const auto binary = [&](auto op) {
        const double* const x = lane(in.b);
        const double* const y = lane(in.c);
        for (int k = 0; k < n; ++k) r[k] = op(x[k], y[k]);
      };
      switch (in.op) {
        case Op::Imm:
          std::fill(r, r + n, in.imm);
          break;
        case Op::LoadScalar:
          if (in.b == ld.var_slot) {
            const long long v0 = ls.v + t0 * ls.step;
            for (int k = 0; k < n; ++k) {
              r[k] = static_cast<double>(v0 + k * ls.step);
            }
          } else if (const int t = temp_reg(in.b); t >= 0) {
            std::copy(lane(t), lane(t) + n, r);
          } else {
            std::fill(r, r + n, scalars[in.b]);
          }
          break;
        case Op::StoreScalar:  // every scalar the body assigns is a temp
          std::copy(r, r + n, lane(temp_reg(in.b)));
          break;
        case Op::LoadWalk:
        case Op::StoreWalk: {
          const WalkState& ws = walk_state_[static_cast<std::size_t>(in.c)];
          double* const base =
              arrays[in.b].data.data() + ws.cur + t0 * ws.stride;
          if (in.op == Op::LoadWalk) {
            for (int k = 0; k < n; ++k) r[k] = base[k * ws.stride];
          } else {
            for (int k = 0; k < n; ++k) base[k * ws.stride] = r[k];
          }
          break;
        }
        case Op::CheckFinite:
          for (int k = 0; k < n; ++k) {
            if (!std::isfinite(r[k])) {
              bad_stmt = stmts_[static_cast<std::size_t>(in.b)];
              bad_value = r[k];
              n = k;
            }
          }
          break;
        case Op::Neg: {
          const double* const x = lane(in.b);
          for (int k = 0; k < n; ++k) r[k] = -x[k];
          break;
        }
        case Op::Not: {
          const double* const x = lane(in.b);
          for (int k = 0; k < n; ++k) r[k] = x[k] != 0.0 ? 0.0 : 1.0;
          break;
        }
        case Op::Add:
          binary([](double x, double y) { return x + y; });
          break;
        case Op::Sub:
          binary([](double x, double y) { return x - y; });
          break;
        case Op::Mul:
          binary([](double x, double y) { return x * y; });
          break;
        case Op::Div:
          binary([](double x, double y) { return x / y; });
          break;
        case Op::Pow:
          binary([](double x, double y) { return eval_pow(x, y); });
          break;
        case Op::Lt:
          binary([](double x, double y) { return x < y ? 1.0 : 0.0; });
          break;
        case Op::Le:
          binary([](double x, double y) { return x <= y ? 1.0 : 0.0; });
          break;
        case Op::Gt:
          binary([](double x, double y) { return x > y ? 1.0 : 0.0; });
          break;
        case Op::Ge:
          binary([](double x, double y) { return x >= y ? 1.0 : 0.0; });
          break;
        case Op::CmpEq:
          binary([](double x, double y) { return x == y ? 1.0 : 0.0; });
          break;
        case Op::CmpNe:
          binary([](double x, double y) { return x != y ? 1.0 : 0.0; });
          break;
        case Op::Intrin: {
          double args[8] = {};
          for (int k = 0; k < n; ++k) {
            for (int j = 0; j < in.d; ++j) args[j] = lane(in.c + j)[k];
            r[k] = apply_intrinsic(static_cast<Intrinsic>(in.b), args,
                                   static_cast<std::size_t>(in.d));
          }
          break;
        }
        default:  // excluded by the compile-time strip rule
          throw autocfd::CompileError("bytecode: op not valid in a strip body");
      }
    }
    if (bad_stmt != nullptr) throw_non_finite(*bad_stmt, bad_value);
  }
  for (const LaneTemp& t : ld.temps) {
    scalars[t.slot] = lane(t.reg)[n - 1];
  }
  scalars[ld.var_slot] = static_cast<double>(ls.last);
}

ExecSignal Program::execute(Env& env, double& flops,
                            std::vector<double>& lanes,
                            EngineStats& stats) const {
  if (regs_.size() < static_cast<std::size_t>(num_regs_)) {
    regs_.resize(static_cast<std::size_t>(num_regs_), 0.0);
  }
  if (loop_state_.size() < loops_.size()) loop_state_.resize(loops_.size());
  if (walk_state_.size() < walks_.size()) walk_state_.resize(walks_.size());

  double* const regs = regs_.data();
  double* const scalars = env.scalars.data();
  ArrayValue* const arrays = env.arrays.data();
  const Instr* const code = code_.data();

  std::size_t pc = 0;
  for (;;) {
    const Instr& in = code[pc];
    switch (in.op) {
      case Op::Imm:
        regs[in.a] = in.imm;
        ++pc;
        break;
      case Op::LoadScalar:
        regs[in.a] = scalars[in.b];
        ++pc;
        break;
      case Op::StoreScalar:
        scalars[in.b] = regs[in.a];
        ++pc;
        break;
      case Op::LoadElem: {
        const ArrayValue& av = arrays[in.b];
        long long subs[8];
        for (int k = 0; k < in.d; ++k) {
          subs[k] = static_cast<long long>(std::llround(regs[in.c + k]));
        }
        regs[in.a] = av.data[static_cast<std::size_t>(
            av.index({subs, static_cast<std::size_t>(in.d)}))];
        ++pc;
        break;
      }
      case Op::StoreElem: {
        ArrayValue& av = arrays[in.b];
        long long subs[8];
        for (int k = 0; k < in.d; ++k) {
          subs[k] = static_cast<long long>(std::llround(regs[in.c + k]));
        }
        av.data[static_cast<std::size_t>(
            av.index({subs, static_cast<std::size_t>(in.d)}))] = regs[in.a];
        ++pc;
        break;
      }
      case Op::LoadWalk:
        regs[in.a] = arrays[in.b].data[static_cast<std::size_t>(
            walk_state_[static_cast<std::size_t>(in.c)].cur)];
        ++pc;
        break;
      case Op::StoreWalk:
        arrays[in.b].data[static_cast<std::size_t>(
            walk_state_[static_cast<std::size_t>(in.c)].cur)] = regs[in.a];
        ++pc;
        break;
      case Op::CheckFinite: {
        const double v = regs[in.a];
        if (!std::isfinite(v)) {
          throw_non_finite(*stmts_[static_cast<std::size_t>(in.b)], v);
        }
        ++pc;
        break;
      }
      case Op::Neg:
        regs[in.a] = -regs[in.b];
        ++pc;
        break;
      case Op::Not:
        regs[in.a] = regs[in.b] != 0.0 ? 0.0 : 1.0;
        ++pc;
        break;
      case Op::Add:
        regs[in.a] = regs[in.b] + regs[in.c];
        ++pc;
        break;
      case Op::Sub:
        regs[in.a] = regs[in.b] - regs[in.c];
        ++pc;
        break;
      case Op::Mul:
        regs[in.a] = regs[in.b] * regs[in.c];
        ++pc;
        break;
      case Op::Div:
        regs[in.a] = regs[in.b] / regs[in.c];
        ++pc;
        break;
      case Op::Pow:
        regs[in.a] = eval_pow(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Lt:
        regs[in.a] = regs[in.b] < regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::Le:
        regs[in.a] = regs[in.b] <= regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::Gt:
        regs[in.a] = regs[in.b] > regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::Ge:
        regs[in.a] = regs[in.b] >= regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::CmpEq:
        regs[in.a] = regs[in.b] == regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::CmpNe:
        regs[in.a] = regs[in.b] != regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::Intrin:
        regs[in.a] = apply_intrinsic(static_cast<Intrinsic>(in.b),
                                     regs + in.c,
                                     static_cast<std::size_t>(in.d));
        ++pc;
        break;
      case Op::AddFlops:
        flops += in.imm;
        ++pc;
        break;
      case Op::Jump:
        pc = static_cast<std::size_t>(in.a);
        break;
      case Op::JumpIfZero:
        pc = regs[in.a] == 0.0 ? static_cast<std::size_t>(in.b) : pc + 1;
        break;
      case Op::JumpIfNotZero:
        pc = regs[in.a] != 0.0 ? static_cast<std::size_t>(in.b) : pc + 1;
        break;
      case Op::LoopBegin: {
        const LoopDesc& ld = loops_[static_cast<std::size_t>(in.a)];
        const auto lo = static_cast<long long>(std::llround(regs[in.b]));
        const auto hi = static_cast<long long>(std::llround(regs[in.c]));
        const auto step = static_cast<long long>(std::llround(regs[in.d]));
        if (step == 0) {
          throw autocfd::CompileError("do loop with zero step");
        }
        long long count = 0;
        if (step > 0) {
          count = lo <= hi ? (hi - lo) / step + 1 : 0;
        } else {
          count = lo >= hi ? (lo - hi) / (-step) + 1 : 0;
        }
        if (count == 0) {
          pc = static_cast<std::size_t>(ld.exit_pc);
          break;
        }
        loop_state_[static_cast<std::size_t>(in.a)] =
            LoopState{lo, lo + (count - 1) * step, step};
        scalars[ld.var_slot] = static_cast<double>(lo);
        ++pc;
        break;
      }
      case Op::LoopNext: {
        LoopState& ls = loop_state_[static_cast<std::size_t>(in.a)];
        if (ls.v == ls.last) {
          ++pc;  // falls through to exit_pc
          break;
        }
        ls.v += ls.step;
        const LoopDesc& ld = loops_[static_cast<std::size_t>(in.a)];
        scalars[ld.var_slot] = static_cast<double>(ls.v);
        for (const int w : ld.walks) {
          WalkState& ws = walk_state_[static_cast<std::size_t>(w)];
          ws.cur += ws.stride;
        }
        pc = static_cast<std::size_t>(ld.body_pc);
        break;
      }
      case Op::WalkInit: {
        const WalkDesc& wd = walks_[static_cast<std::size_t>(in.a)];
        const ArrayValue& av = arrays[wd.array_slot];
        if (static_cast<int>(wd.dims.size()) != av.rank()) {
          throw autocfd::CompileError("subscript rank mismatch");
        }
        const LoopState& ls = loop_state_[static_cast<std::size_t>(wd.loop)];
        long long idx = 0;
        long long stride = 0;
        long long dimstride = 1;
        for (std::size_t d = 0; d < wd.dims.size(); ++d) {
          const WalkDim& dim = wd.dims[d];
          long long first = 0;
          long long last = 0;
          if (dim.affine) {
            first = ls.v + dim.offset;
            last = ls.last + dim.offset;
          } else {
            first = static_cast<long long>(std::llround(regs[dim.reg]));
            last = first;
          }
          const long long lo = av.lower[d];
          const long long hi = av.upper(static_cast<int>(d));
          // The check is hoisted over the whole iteration range; report
          // the value of the *first failing iteration*, exactly what
          // the per-iteration check of the tree-walker would report.
          if (first < lo || first > hi) throw_oob(static_cast<int>(d), first, lo, hi);
          if (last < lo || last > hi) {
            long long bad = 0;
            if (ls.step > 0) {
              bad = first + ((hi - first) / ls.step + 1) * ls.step;
            } else {
              bad = first - ((first - lo) / (-ls.step) + 1) * (-ls.step);
            }
            throw_oob(static_cast<int>(d), bad, lo, hi);
          }
          idx += (first - lo) * dimstride;
          if (dim.affine) stride += ls.step * dimstride;
          dimstride *= av.extent[d];
        }
        walk_state_[static_cast<std::size_t>(in.a)] = WalkState{idx, stride};
        ++pc;
        break;
      }
      case Op::StripRun: {
        const LoopDesc& ld = loops_[static_cast<std::size_t>(in.a)];
        const LoopState& ls = loop_state_[static_cast<std::size_t>(in.a)];
        if (!strips_are_safe(ld, ls)) {
          ++stats.strip_fallbacks;
          ++pc;  // the per-element body
          break;
        }
        run_strips(ld, ls, env, flops, lanes.data());
        pc = static_cast<std::size_t>(ld.exit_pc);
        break;
      }
      case Op::Ret:
        return ExecSignal::Return;
      case Op::StopProg:
        return ExecSignal::Stop;
      case Op::Halt:
        return ExecSignal::Normal;
    }
  }
}

}  // namespace autocfd::interp::bytecode
