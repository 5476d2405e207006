// Compiles Assign statements and DO-loop nests into flat register
// programs (see bytecode.hpp for the execution model and the exact
// equivalence contract with the tree-walker).
#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "autocfd/interp/bytecode.hpp"

namespace autocfd::interp::bytecode {

using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;

namespace {

/// Statements the compiler accepts. Everything else (io, calls, goto,
/// parallel extension statements) stays on the tree-walker, which
/// still routes nested compilable loops back through the engine.
bool compilable_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::RealLit:
    case ExprKind::LogicalLit:
      return true;
    case ExprKind::StrLit:
      return false;  // strings only appear in io statements
    case ExprKind::VarRef:
      return e.slot >= 0;
    case ExprKind::ArrayRef:
      if (e.slot < 0 || e.args.empty() || e.args.size() > 8) return false;
      break;
    case ExprKind::Unary:
    case ExprKind::Binary:
      break;
    case ExprKind::Intrinsic: {
      if (e.slot < 0) return false;
      const auto op = static_cast<Intrinsic>(e.slot);
      const bool binary = op == Intrinsic::Atan2 || op == Intrinsic::Mod ||
                          op == Intrinsic::Sign;
      if (binary && e.args.size() < 2) return false;
      break;
    }
  }
  for (const auto& a : e.args) {
    if (!a || !compilable_expr(*a)) return false;
  }
  return true;
}

bool compilable_stmt(const Stmt& s);

bool compilable_body(const fortran::StmtList& body) {
  for (const auto& st : body) {
    if (!st || !compilable_stmt(*st)) return false;
  }
  return true;
}

bool compilable_stmt(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Assign: {
      if (!s.lhs || !s.rhs || !compilable_expr(*s.rhs)) return false;
      if (s.lhs->kind == ExprKind::VarRef) return s.lhs->slot >= 0;
      return s.lhs->kind == ExprKind::ArrayRef && compilable_expr(*s.lhs);
    }
    case StmtKind::Do:
      return s.slot >= 0 && s.lo && compilable_expr(*s.lo) && s.hi &&
             compilable_expr(*s.hi) && (!s.step || compilable_expr(*s.step)) &&
             compilable_body(s.body);
    case StmtKind::If:
      return s.cond && compilable_expr(*s.cond) && compilable_body(s.body) &&
             compilable_body(s.else_body);
    case StmtKind::Continue:
    case StmtKind::Return:
    case StmtKind::Stop:
      return true;
    default:
      return false;
  }
}

/// True when the subtree can end an iteration early (RETURN/STOP):
/// strength reduction is disabled for such loops because a hoisted
/// bounds check could fire for iterations that never execute.
bool has_early_exit(const fortran::StmtList& body) {
  for (const auto& st : body) {
    if (st->kind == StmtKind::Return || st->kind == StmtKind::Stop) {
      return true;
    }
    if (has_early_exit(st->body) || has_early_exit(st->else_body)) {
      return true;
    }
  }
  return false;
}

/// Collects every scalar slot assigned anywhere in `body` (assignment
/// targets and nested DO induction variables) — the set a subscript
/// must avoid to count as loop-invariant.
void collect_assigned(const fortran::StmtList& body, std::set<int>& out) {
  for (const auto& st : body) {
    if (st->kind == StmtKind::Assign &&
        st->lhs->kind == ExprKind::VarRef) {
      out.insert(st->lhs->slot);
    }
    if (st->kind == StmtKind::Do) out.insert(st->slot);
    collect_assigned(st->body, out);
    collect_assigned(st->else_body, out);
  }
}

/// Matches `v`, `v + c`, `c + v`, `v - c` against induction slot `v`.
bool affine_in(const Expr& e, int var_slot, long long* offset) {
  if (e.kind == ExprKind::VarRef && e.slot == var_slot) {
    *offset = 0;
    return true;
  }
  if (e.kind != ExprKind::Binary) return false;
  if (e.bin_op != BinOp::Add && e.bin_op != BinOp::Sub) return false;
  const Expr& l = *e.args[0];
  const Expr& r = *e.args[1];
  if (l.kind == ExprKind::VarRef && l.slot == var_slot &&
      r.kind == ExprKind::IntLit) {
    *offset = e.bin_op == BinOp::Add ? r.int_value : -r.int_value;
    return true;
  }
  if (e.bin_op == BinOp::Add && r.kind == ExprKind::VarRef &&
      r.slot == var_slot && l.kind == ExprKind::IntLit) {
    *offset = l.int_value;
    return true;
  }
  return false;
}

/// Pure w.r.t. the loop: no array reads, no banned scalars.
bool invariant_expr(const Expr& e, const std::set<int>& banned) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::RealLit:
    case ExprKind::LogicalLit:
      return true;
    case ExprKind::StrLit:
    case ExprKind::ArrayRef:
      return false;
    case ExprKind::VarRef:
      return banned.count(e.slot) == 0;
    case ExprKind::Unary:
    case ExprKind::Binary:
    case ExprKind::Intrinsic:
      break;
  }
  for (const auto& a : e.args) {
    if (!invariant_expr(*a, banned)) return false;
  }
  return true;
}

/// The expression part of the strip eligibility rule (bytecode.hpp):
/// every array reference is a walk (whose subscripts run in the
/// preheader, not the body), no short-circuit logicals, no intrinsic
/// wider than the strip executor's argument buffer, and no read of a
/// body-assigned scalar before the iteration has written it.
bool strip_expr_ok(const Expr& e,
                   const std::unordered_map<const Expr*, int>& walk_of,
                   const std::set<int>& assigned,
                   const std::set<int>& written) {
  switch (e.kind) {
    case ExprKind::ArrayRef:
      return walk_of.count(&e) != 0;
    case ExprKind::VarRef:
      return assigned.count(e.slot) == 0 || written.count(e.slot) != 0;
    case ExprKind::Binary:
      if (e.bin_op == BinOp::And || e.bin_op == BinOp::Or) return false;
      break;
    case ExprKind::Intrinsic:
      if (e.args.size() > 8) return false;
      break;
    default:
      break;
  }
  for (const auto& a : e.args) {
    if (!strip_expr_ok(*a, walk_of, assigned, written)) return false;
  }
  return true;
}

void for_each_array_ref(const Expr& e,
                        const std::function<void(const Expr&)>& fn) {
  if (e.kind == ExprKind::ArrayRef) fn(e);
  for (const auto& a : e.args) {
    if (a) for_each_array_ref(*a, fn);
  }
}

}  // namespace

/// One compilation of one statement (friend of Program).
class Compiler {
 public:
  Compiler(const ProgramImage* image, EngineStats* stats)
      : image_(image), stats_(stats) {}

  std::unique_ptr<Program> compile(const Stmt& s) {
    if (!compilable_stmt(s) ||
        (s.kind != StmtKind::Do && s.kind != StmtKind::Assign)) {
      return nullptr;
    }
    prog_ = std::make_unique<Program>();
    if (s.kind == StmtKind::Do) {
      emit_do(s);
      ++stats_->kernels_compiled;
    } else {
      emit_assign(s);
      ++stats_->stmts_compiled;
    }
    emit(Op::Halt);
    prog_->num_regs_ = nregs_;
    prog_->lane_regs_ = lane_regs_;
    stats_->instrs_emitted += static_cast<long long>(prog_->code_.size());
    return std::move(prog_);
  }

 private:
  int alloc(int n = 1) {
    const int r = nregs_;
    nregs_ += n;
    return r;
  }

  int emit(Op op, int a = 0, int b = 0, int c = 0, int d = 0,
           double imm = 0.0) {
    prog_->code_.push_back(Instr{op, a, b, c, d, imm});
    return static_cast<int>(prog_->code_.size()) - 1;
  }

  int here() const { return static_cast<int>(prog_->code_.size()); }

  // --- expressions --------------------------------------------------

  void emit_expr(const Expr& e, int dst) {
    switch (e.kind) {
      case ExprKind::IntLit:
        emit(Op::Imm, dst, 0, 0, 0, static_cast<double>(e.int_value));
        return;
      case ExprKind::RealLit:
        emit(Op::Imm, dst, 0, 0, 0, e.real_value);
        return;
      case ExprKind::LogicalLit:
        emit(Op::Imm, dst, 0, 0, 0, e.bool_value ? 1.0 : 0.0);
        return;
      case ExprKind::StrLit:
        emit(Op::Imm, dst, 0, 0, 0, 0.0);  // unreachable (rejected)
        return;
      case ExprKind::VarRef:
        emit(Op::LoadScalar, dst, e.slot);
        return;
      case ExprKind::ArrayRef: {
        if (const auto it = walk_of_.find(&e); it != walk_of_.end()) {
          emit(Op::LoadWalk, dst, e.slot, it->second);
          return;
        }
        const int n = static_cast<int>(e.args.size());
        const int base = alloc(n);
        for (int k = 0; k < n; ++k) {
          emit_expr(*e.args[static_cast<std::size_t>(k)], base + k);
        }
        emit(Op::LoadElem, dst, e.slot, base, n);
        return;
      }
      case ExprKind::Unary: {
        if (e.un_op == fortran::UnOp::Plus) {
          emit_expr(*e.args[0], dst);
          return;
        }
        const int t = alloc();
        emit_expr(*e.args[0], t);
        emit(e.un_op == fortran::UnOp::Neg ? Op::Neg : Op::Not, dst, t);
        return;
      }
      case ExprKind::Binary:
        emit_binary(e, dst);
        return;
      case ExprKind::Intrinsic: {
        const int n = static_cast<int>(e.args.size());
        const int base = alloc(n);
        for (int k = 0; k < n; ++k) {
          emit_expr(*e.args[static_cast<std::size_t>(k)], base + k);
        }
        emit(Op::Intrin, dst, e.slot, base, n);
        return;
      }
    }
  }

  void emit_binary(const Expr& e, int dst) {
    // Short-circuit logicals become branches, exactly mirroring the
    // tree-walker (the right operand of .and. must not be evaluated —
    // it may index an array out of bounds).
    if (e.bin_op == BinOp::And) {
      const int t = alloc();
      emit_expr(*e.args[0], t);
      const int j0 = emit(Op::JumpIfZero, t);
      emit_expr(*e.args[1], t);
      const int j1 = emit(Op::JumpIfZero, t);
      emit(Op::Imm, dst, 0, 0, 0, 1.0);
      const int j2 = emit(Op::Jump);
      prog_->code_[static_cast<std::size_t>(j0)].b = here();
      prog_->code_[static_cast<std::size_t>(j1)].b = here();
      emit(Op::Imm, dst, 0, 0, 0, 0.0);
      prog_->code_[static_cast<std::size_t>(j2)].a = here();
      return;
    }
    if (e.bin_op == BinOp::Or) {
      const int t = alloc();
      emit_expr(*e.args[0], t);
      const int j0 = emit(Op::JumpIfNotZero, t);
      emit_expr(*e.args[1], t);
      const int j1 = emit(Op::JumpIfNotZero, t);
      emit(Op::Imm, dst, 0, 0, 0, 0.0);
      const int j2 = emit(Op::Jump);
      prog_->code_[static_cast<std::size_t>(j0)].b = here();
      prog_->code_[static_cast<std::size_t>(j1)].b = here();
      emit(Op::Imm, dst, 0, 0, 0, 1.0);
      prog_->code_[static_cast<std::size_t>(j2)].a = here();
      return;
    }
    const int t1 = alloc();
    const int t2 = alloc();
    emit_expr(*e.args[0], t1);
    emit_expr(*e.args[1], t2);
    Op op = Op::Add;
    switch (e.bin_op) {
      case BinOp::Add: op = Op::Add; break;
      case BinOp::Sub: op = Op::Sub; break;
      case BinOp::Mul: op = Op::Mul; break;
      case BinOp::Div: op = Op::Div; break;
      case BinOp::Pow: op = Op::Pow; break;
      case BinOp::Lt: op = Op::Lt; break;
      case BinOp::Le: op = Op::Le; break;
      case BinOp::Gt: op = Op::Gt; break;
      case BinOp::Ge: op = Op::Ge; break;
      case BinOp::Eq: op = Op::CmpEq; break;
      case BinOp::Ne: op = Op::CmpNe; break;
      default: break;  // And/Or handled above
    }
    emit(op, dst, t1, t2);
  }

  // --- statements ---------------------------------------------------

  void emit_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign:
        emit_assign(s);
        return;
      case StmtKind::Do:
        emit_do(s);
        return;
      case StmtKind::If: {
        const int rc = alloc();
        emit_expr(*s.cond, rc);
        const int jz = emit(Op::JumpIfZero, rc);
        for (const auto& st : s.body) emit_stmt(*st);
        if (s.else_body.empty()) {
          prog_->code_[static_cast<std::size_t>(jz)].b = here();
        } else {
          const int j = emit(Op::Jump);
          prog_->code_[static_cast<std::size_t>(jz)].b = here();
          for (const auto& st : s.else_body) emit_stmt(*st);
          prog_->code_[static_cast<std::size_t>(j)].a = here();
        }
        return;
      }
      case StmtKind::Continue:
        return;
      case StmtKind::Return:
        emit(Op::Ret);
        return;
      case StmtKind::Stop:
        emit(Op::StopProg);
        return;
      default:
        return;  // unreachable: rejected by compilable_stmt
    }
  }

  void emit_assign(const Stmt& s) {
    const Expr& lhs = *s.lhs;
    const int rv = alloc();
    emit_expr(*s.rhs, rv);
    if (s.flops != 0.0) emit(Op::AddFlops, 0, 0, 0, 0, s.flops);
    if (lhs.kind == ExprKind::VarRef) {
      emit(Op::StoreScalar, rv, lhs.slot);
      return;
    }
    prog_->stmts_.push_back(&s);
    emit(Op::CheckFinite, rv,
         static_cast<int>(prog_->stmts_.size()) - 1);
    if (const auto it = walk_of_.find(&lhs); it != walk_of_.end()) {
      emit(Op::StoreWalk, rv, lhs.slot, it->second);
      return;
    }
    const int n = static_cast<int>(lhs.args.size());
    const int base = alloc(n);
    for (int k = 0; k < n; ++k) {
      emit_expr(*lhs.args[static_cast<std::size_t>(k)], base + k);
    }
    emit(Op::StoreElem, rv, lhs.slot, base, n);
  }

  /// Registers strength-reducible array references of the loop's
  /// straight-line assignments (not inside If branches — those may not
  /// execute every iteration, so their bounds checks cannot be
  /// hoisted).
  void collect_walks(const Stmt& s, int loop_index,
                     const std::set<int>& banned,
                     std::vector<const Expr*>* refs) {
    if (has_early_exit(s.body)) return;
    const auto consider = [&](const Expr& e) {
      if (e.slot < 0 || e.args.empty() || e.args.size() > 8) return;
      if (walk_of_.count(&e)) return;
      WalkDesc desc;
      desc.array_slot = e.slot;
      desc.loop = loop_index;
      for (const auto& sub : e.args) {
        WalkDim dim;
        if (affine_in(*sub, s.slot, &dim.offset)) {
          dim.affine = true;
        } else if (invariant_expr(*sub, banned)) {
          dim.affine = false;
        } else {
          return;  // general per-iteration access
        }
        desc.dims.push_back(dim);
      }
      walk_of_[&e] = static_cast<int>(prog_->walks_.size());
      refs->push_back(&e);
      prog_->walks_.push_back(std::move(desc));
      prog_->loops_[static_cast<std::size_t>(loop_index)].walks.push_back(
          walk_of_[&e]);
      ++stats_->walks_reduced;
    };
    for (const auto& st : s.body) {
      if (st->kind != StmtKind::Assign) continue;
      for_each_array_ref(*st->rhs, consider);
      for_each_array_ref(*st->lhs, consider);
    }
  }

  void emit_do(const Stmt& s) {
    const int r_lo = alloc();
    emit_expr(*s.lo, r_lo);
    const int r_hi = alloc();
    emit_expr(*s.hi, r_hi);
    const int r_step = alloc();
    if (s.step) {
      emit_expr(*s.step, r_step);
    } else {
      emit(Op::Imm, r_step, 0, 0, 0, 1.0);
    }
    const int li = static_cast<int>(prog_->loops_.size());
    LoopDesc desc;
    desc.var_slot = s.slot;
    prog_->loops_.push_back(std::move(desc));
    emit(Op::LoopBegin, li, r_lo, r_hi, r_step);

    // Loop preheader: invariant subscript values, then the hoisted
    // index setup of every walk. Skipped entirely on zero-trip loops.
    std::set<int> assigned;
    collect_assigned(s.body, assigned);
    std::set<int> banned = assigned;
    banned.insert(s.slot);
    std::vector<const Expr*> refs;
    collect_walks(s, li, banned, &refs);
    for (std::size_t r = 0; r < refs.size(); ++r) {
      const Expr& e = *refs[r];
      const int w = walk_of_.at(&e);
      auto& desc = prog_->walks_[static_cast<std::size_t>(w)];
      for (std::size_t d = 0; d < desc.dims.size(); ++d) {
        if (desc.dims[d].affine) continue;
        const int reg = alloc();
        emit_expr(*e.args[d], reg);
        desc.dims[d].reg = reg;
      }
      emit(Op::WalkInit, w);
    }

    const bool strip = strip_eligible(s, assigned);
    if (strip) emit(Op::StripRun, li);
    const int reg_lo = nregs_;
    std::vector<LaneTemp> temps;
    if (strip) {
      for (const int slot : assigned) temps.push_back(LaneTemp{slot, alloc()});
    }
    prog_->loops_[static_cast<std::size_t>(li)].body_pc = here();
    for (const auto& st : s.body) emit_stmt(*st);
    emit(Op::LoopNext, li);
    auto& ld = prog_->loops_[static_cast<std::size_t>(li)];
    ld.exit_pc = here();
    if (strip) finish_strip(ld, reg_lo, std::move(temps));
  }

  /// Compile-time half of the strip rule (see bytecode.hpp); `assigned`
  /// holds every scalar the body assigns.
  bool strip_eligible(const Stmt& s, const std::set<int>& assigned) const {
    if (assigned.count(s.slot) != 0) return false;
    std::set<int> written;
    for (const auto& st : s.body) {
      if (st->kind == StmtKind::Continue) continue;
      if (st->kind != StmtKind::Assign) return false;
      if (!strip_expr_ok(*st->rhs, walk_of_, assigned, written)) return false;
      if (st->lhs->kind == ExprKind::VarRef) {
        written.insert(st->lhs->slot);
      } else if (walk_of_.count(st->lhs.get()) == 0) {
        return false;
      }
    }
    return true;
  }

  /// Records the strip body's register range, lane temporaries and the
  /// walk pairs StripRun must check for aliasing.
  void finish_strip(LoopDesc& ld, int reg_lo, std::vector<LaneTemp> temps) {
    ld.reg_lo = reg_lo;
    ld.reg_hi = nregs_;
    ld.temps = std::move(temps);
    const auto& walks = prog_->walks_;
    for (int pc = ld.body_pc; pc < ld.exit_pc; ++pc) {
      const Instr& in = prog_->code_[static_cast<std::size_t>(pc)];
      if (in.op != Op::StoreWalk) continue;
      for (const int w : ld.walks) {
        if (w != in.c && walks[static_cast<std::size_t>(w)].array_slot ==
                             walks[static_cast<std::size_t>(in.c)].array_slot) {
          ld.alias_pairs.emplace_back(in.c, w);
        }
      }
    }
    lane_regs_ = std::max(lane_regs_, ld.reg_hi - ld.reg_lo);
    ++stats_->strip_loops;
  }

  const ProgramImage* image_;
  EngineStats* stats_;
  std::unique_ptr<Program> prog_;
  int nregs_ = 0;
  int lane_regs_ = 0;
  std::unordered_map<const Expr*, int> walk_of_;
};

const Program* BytecodeEngine::compiled(const Stmt& s) {
  if (const auto it = cache_.find(&s); it != cache_.end()) {
    if (it->second) ++stats_.cache_hits;
    return it->second.get();
  }
  auto prog = Compiler(image_, &stats_).compile(s);
  if (!prog) ++stats_.compile_rejects;
  const auto* p = prog.get();
  cache_.emplace(&s, std::move(prog));
  return p;
}

}  // namespace autocfd::interp::bytecode
