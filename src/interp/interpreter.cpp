#include "autocfd/interp/interpreter.hpp"

#include <cmath>
#include <sstream>

#include "autocfd/fortran/parser.hpp"
#include "autocfd/interp/eval_ops.hpp"

namespace autocfd::interp {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;

EngineKind parse_engine_kind(std::string_view name) {
  if (name == "tree") return EngineKind::Tree;
  if (name == "bytecode") return EngineKind::Bytecode;
  throw autocfd::CompileError("unknown engine '" + std::string(name) +
                              "' (expected tree or bytecode)");
}

Interpreter::Interpreter(const ProgramImage& image, Hooks hooks,
                         EngineKind engine)
    : image_(&image), hooks_(std::move(hooks)), engine_(engine) {
  if (engine_ == EngineKind::Bytecode) {
    bc_ = std::make_unique<bytecode::BytecodeEngine>(image);
  }
}

void Interpreter::run(Env& env) {
  const auto* main = image_->main();
  if (!main) throw autocfd::CompileError("no main program to run");
  run_unit(*main, env);
}

void Interpreter::run_unit(const fortran::ProgramUnit& unit, Env& env) {
  const auto sig = exec_list(unit.body, env);
  if (sig == Signal::Goto) {
    throw autocfd::CompileError("goto to unknown label " +
                                std::to_string(pending_goto_) + " in unit '" +
                                unit.name + "'");
  }
}

double Interpreter::eval(const Expr& e, Env& env) const {
  switch (e.kind) {
    case ExprKind::IntLit:
      return static_cast<double>(e.int_value);
    case ExprKind::RealLit:
      return e.real_value;
    case ExprKind::LogicalLit:
      return e.bool_value ? 1.0 : 0.0;
    case ExprKind::StrLit:
      return 0.0;  // strings only appear in io statements
    case ExprKind::VarRef:
      return env.scalar(e.slot);
    case ExprKind::ArrayRef: {
      const auto& av = env.arrays[static_cast<std::size_t>(e.slot)];
      long long subs[8];
      const auto n = e.args.size();
      for (std::size_t d = 0; d < n; ++d) {
        subs[d] = static_cast<long long>(
            std::llround(eval(*e.args[d], env)));
      }
      return av.data[static_cast<std::size_t>(
          av.index({subs, n}))];
    }
    case ExprKind::Unary: {
      const double v = eval(*e.args[0], env);
      switch (e.un_op) {
        case fortran::UnOp::Neg: return -v;
        case fortran::UnOp::Plus: return v;
        case fortran::UnOp::Not: return v != 0.0 ? 0.0 : 1.0;
      }
      return v;
    }
    case ExprKind::Binary: {
      // Short-circuit logical operators.
      if (e.bin_op == fortran::BinOp::And) {
        return eval(*e.args[0], env) != 0.0 && eval(*e.args[1], env) != 0.0
                   ? 1.0
                   : 0.0;
      }
      if (e.bin_op == fortran::BinOp::Or) {
        return eval(*e.args[0], env) != 0.0 || eval(*e.args[1], env) != 0.0
                   ? 1.0
                   : 0.0;
      }
      const double a = eval(*e.args[0], env);
      const double b = eval(*e.args[1], env);
      switch (e.bin_op) {
        case fortran::BinOp::Add: return a + b;
        case fortran::BinOp::Sub: return a - b;
        case fortran::BinOp::Mul: return a * b;
        case fortran::BinOp::Div: return a / b;
        case fortran::BinOp::Pow:
          return eval_pow(a, b);
        case fortran::BinOp::Lt: return a < b ? 1.0 : 0.0;
        case fortran::BinOp::Le: return a <= b ? 1.0 : 0.0;
        case fortran::BinOp::Gt: return a > b ? 1.0 : 0.0;
        case fortran::BinOp::Ge: return a >= b ? 1.0 : 0.0;
        case fortran::BinOp::Eq: return a == b ? 1.0 : 0.0;
        case fortran::BinOp::Ne: return a != b ? 1.0 : 0.0;
        default: return 0.0;
      }
    }
    case ExprKind::Intrinsic: {
      // Arguments evaluate left to right, then the shared scalar
      // kernel applies the operation (identical to the VM's Intrin).
      const std::size_t n = e.args.size();
      double buf[8] = {};
      std::vector<double> big;
      double* vals = buf;
      if (n > 8) {
        big.resize(n);
        vals = big.data();
      }
      for (std::size_t i = 0; i < n; ++i) vals[i] = eval(*e.args[i], env);
      return apply_intrinsic(static_cast<Intrinsic>(e.slot), vals, n);
    }
  }
  return 0.0;
}

Interpreter::Signal Interpreter::exec_list(const fortran::StmtList& list,
                                           Env& env) {
  std::size_t i = 0;
  while (i < list.size()) {
    const auto sig = exec_stmt(*list[i], env);
    if (sig == Signal::Goto) {
      bool found = false;
      for (std::size_t j = 0; j < list.size(); ++j) {
        if (list[j]->label == pending_goto_) {
          i = j;
          found = true;
          break;
        }
      }
      if (!found) return Signal::Goto;  // propagate to enclosing list
      pending_goto_ = 0;
      continue;  // re-execute from the labeled statement
    }
    if (sig != Signal::Normal) return sig;
    ++i;
  }
  return Signal::Normal;
}

namespace {

/// Pure-compute statement: may appear inside an attribution unit.
/// Control flow (If/Goto/Return/Stop) is compute-ish; anything that
/// does io, calls a subroutine or talks to the cluster is not.
bool pure_compute_stmt(const Stmt& s);

bool pure_compute_body(const fortran::StmtList& body) {
  for (const auto& st : body) {
    if (!st || !pure_compute_stmt(*st)) return false;
  }
  return true;
}

bool pure_compute_stmt(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Assign:
    case StmtKind::Continue:
    case StmtKind::Goto:
    case StmtKind::Return:
    case StmtKind::Stop:
      return true;
    case StmtKind::Do:
      return pure_compute_body(s.body);
    case StmtKind::If:
      return pure_compute_body(s.body) && pure_compute_body(s.else_body);
    default:
      return false;  // io, calls, parallel extension statements
  }
}

}  // namespace

bool is_attribution_unit(const Stmt& s) {
  if (s.kind == StmtKind::Assign) return true;
  return s.kind == StmtKind::Do && pure_compute_body(s.body);
}

Interpreter::Signal Interpreter::exec_stmt(const Stmt& s, Env& env) {
  if (prof_ != nullptr && prof_owner_ == nullptr) {
    auto [it, fresh] = unit_cache_.try_emplace(&s, false);
    if (fresh) it->second = is_attribution_unit(s);
    if (it->second) {
      // Charge everything this unit executes — including nested loops
      // and, in bytecode mode, whole compiled kernels — to `s`.
      prof_owner_ = &s;
      const double before = flops_;
      const Signal sig = exec_stmt_impl(s, env);
      auto& cost = prof_->units[&s];
      cost.flops += flops_ - before;
      ++cost.count;
      prof_owner_ = nullptr;
      return sig;
    }
  }
  return exec_stmt_impl(s, env);
}

Interpreter::Signal Interpreter::exec_stmt_impl(const Stmt& s, Env& env) {
  switch (s.kind) {
    case StmtKind::Assign:
      if (bc_) {
        if (const auto* prog = bc_->compiled(s)) {
          bc_->run(*prog, env, flops_);  // a lone Assign always halts Normal
          return Signal::Normal;
        }
      }
      exec_assign(s, env);
      return Signal::Normal;
    case StmtKind::Do:
      if (bc_) {
        if (const auto* prog = bc_->compiled(s)) {
          switch (bc_->run(*prog, env, flops_)) {
            case bytecode::ExecSignal::Normal: return Signal::Normal;
            case bytecode::ExecSignal::Return: return Signal::Return;
            case bytecode::ExecSignal::Stop: return Signal::Stop;
          }
        }
      }
      return exec_do(s, env);
    case StmtKind::If: {
      if (eval(*s.cond, env) != 0.0) {
        return exec_list(s.body, env);
      }
      return exec_list(s.else_body, env);
    }
    case StmtKind::Goto:
      pending_goto_ = s.goto_target;
      return Signal::Goto;
    case StmtKind::Continue:
      return Signal::Normal;
    case StmtKind::Call: {
      const auto* callee = image_->unit(s.callee);
      if (!callee) {
        throw autocfd::CompileError("call to unknown subroutine '" +
                                    s.callee + "'");
      }
      const auto sig = exec_list(callee->body, env);
      if (sig == Signal::Goto) {
        throw autocfd::CompileError("goto to unknown label in subroutine '" +
                                    s.callee + "'");
      }
      // Return inside the callee ends the callee only.
      return sig == Signal::Stop ? Signal::Stop : Signal::Normal;
    }
    case StmtKind::Return:
      return Signal::Return;
    case StmtKind::Stop:
      return Signal::Stop;
    case StmtKind::Read:
      exec_read(s, env);
      return Signal::Normal;
    case StmtKind::Write:
      exec_write(s, env);
      return Signal::Normal;
    case StmtKind::HaloExchange:
    case StmtKind::AllReduce:
    case StmtKind::PipelineStart:
    case StmtKind::PipelineEnd:
    case StmtKind::Barrier:
      if (hooks_.on_extension) hooks_.on_extension(s, env);
      return Signal::Normal;
  }
  return Signal::Normal;
}

void Interpreter::exec_assign(const Stmt& s, Env& env) {
  const double value = eval(*s.rhs, env);
  flops_ += s.flops;
  const Expr& lhs = *s.lhs;
  if (lhs.kind == ExprKind::VarRef) {
    env.set_scalar(lhs.slot, value);
    return;
  }
  if (!std::isfinite(value)) {
    // A NaN/Inf written into a status array silently poisons every
    // downstream frame (and, parallelized, every rank it is halo-
    // exchanged to). Fail at the first write with the array and the
    // statement that produced it.
    throw autocfd::CompileError(
        "non-finite value (" + std::to_string(value) +
        ") assigned to array '" + lhs.name + "' at " + s.loc.str() +
        ": the computation diverged");
  }
  auto& av = env.arrays[static_cast<std::size_t>(lhs.slot)];
  long long subs[8];
  const auto n = lhs.args.size();
  for (std::size_t d = 0; d < n; ++d) {
    subs[d] = static_cast<long long>(std::llround(eval(*lhs.args[d], env)));
  }
  av.data[static_cast<std::size_t>(av.index({subs, n}))] = value;
}

Interpreter::Signal Interpreter::exec_do(const Stmt& s, Env& env) {
  const auto lo = static_cast<long long>(std::llround(eval(*s.lo, env)));
  const auto hi = static_cast<long long>(std::llround(eval(*s.hi, env)));
  const long long step =
      s.step ? static_cast<long long>(std::llround(eval(*s.step, env))) : 1;
  if (step == 0) {
    throw autocfd::CompileError("do loop with zero step");
  }
  for (long long v = lo; step > 0 ? v <= hi : v >= hi; v += step) {
    env.set_scalar(s.slot, static_cast<double>(v));
    const auto sig = exec_list(s.body, env);
    if (sig == Signal::Goto) {
      // A goto inside the body targeting a label in this body was
      // already handled by exec_list; anything else exits the loop.
      return Signal::Goto;
    }
    if (sig == Signal::Return || sig == Signal::Stop) return sig;
  }
  return Signal::Normal;
}

void Interpreter::exec_read(const Stmt& s, Env& env) {
  for (const auto& item : s.args) {
    if (item->kind == ExprKind::VarRef) {
      double v = 0.0;
      if (hooks_.on_read) {
        const auto data = hooks_.on_read(item->name);
        if (!data.empty()) v = data[0];
      }
      env.set_scalar(item->slot, v);
    } else if (item->kind == ExprKind::ArrayRef && item->args.empty()) {
      // Whole-array read: read(5,*) v
      auto& av = env.arrays[static_cast<std::size_t>(item->slot)];
      std::vector<double> data;
      if (hooks_.on_read) data = hooks_.on_read(item->name);
      for (std::size_t i = 0; i < av.data.size(); ++i) {
        av.data[i] = i < data.size() ? data[i] : 0.0;
      }
    } else if (item->kind == ExprKind::ArrayRef) {
      // Element read.
      double v = 0.0;
      if (hooks_.on_read) {
        const auto data = hooks_.on_read(item->name);
        if (!data.empty()) v = data[0];
      }
      auto& av = env.arrays[static_cast<std::size_t>(item->slot)];
      long long subs[8];
      for (std::size_t d = 0; d < item->args.size(); ++d) {
        subs[d] =
            static_cast<long long>(std::llround(eval(*item->args[d], env)));
      }
      av.data[static_cast<std::size_t>(av.index({subs, item->args.size()}))] =
          v;
    }
  }
}

void Interpreter::exec_write(const Stmt& s, Env& env) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : s.args) {
    if (!first) os << ' ';
    first = false;
    if (item->kind == ExprKind::StrLit) {
      os << item->str_value;
    } else if (item->kind == ExprKind::ArrayRef && item->args.empty()) {
      const auto& av = env.arrays[static_cast<std::size_t>(item->slot)];
      for (std::size_t i = 0; i < av.data.size(); ++i) {
        if (i) os << ' ';
        os << av.data[i];
      }
    } else {
      os << eval(*item, env);
    }
  }
  if (hooks_.on_write) {
    hooks_.on_write(os.str());
  } else {
    output_.push_back(os.str());
  }
}

std::unique_ptr<SequentialResult> run_sequential(std::string_view source,
                                                 EngineKind engine) {
  auto result = std::make_unique<SequentialResult>();
  result->file = fortran::parse_source(source);
  DiagnosticEngine diags;
  result->image = ProgramImage::build(result->file, diags);
  throw_if_errors(diags, "image build");
  result->env = Env(result->image);
  result->env.allocate_arrays(result->image, diags);
  throw_if_errors(diags, "array allocation");
  Interpreter interp(result->image, {}, engine);
  interp.run(result->env);
  result->flops = interp.flops();
  result->output = interp.output();
  return result;
}

}  // namespace autocfd::interp
