#include "autocfd/interp/image.hpp"

#include <algorithm>
#include <set>

namespace autocfd::interp {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;

namespace {

int intrinsic_opcode(std::string_view name) {
  if (name == "abs") return static_cast<int>(Intrinsic::Abs);
  if (name == "sqrt") return static_cast<int>(Intrinsic::Sqrt);
  if (name == "exp") return static_cast<int>(Intrinsic::Exp);
  if (name == "log") return static_cast<int>(Intrinsic::Log);
  if (name == "sin") return static_cast<int>(Intrinsic::Sin);
  if (name == "cos") return static_cast<int>(Intrinsic::Cos);
  if (name == "tan") return static_cast<int>(Intrinsic::Tan);
  if (name == "atan") return static_cast<int>(Intrinsic::Atan);
  if (name == "atan2") return static_cast<int>(Intrinsic::Atan2);
  if (name == "max" || name == "amax1") return static_cast<int>(Intrinsic::Max);
  if (name == "min" || name == "amin1") return static_cast<int>(Intrinsic::Min);
  if (name == "mod") return static_cast<int>(Intrinsic::Mod);
  if (name == "int") return static_cast<int>(Intrinsic::Int);
  if (name == "nint") return static_cast<int>(Intrinsic::Nint);
  if (name == "float") return static_cast<int>(Intrinsic::Float);
  if (name == "real") return static_cast<int>(Intrinsic::Real);
  if (name == "dble") return static_cast<int>(Intrinsic::Dble);
  if (name == "sign") return static_cast<int>(Intrinsic::Sign);
  return -1;
}

struct Resolver {
  ProgramImage* image;
  fortran::SourceFile* file;
  DiagnosticEngine* diags;
  std::unordered_map<std::string, int>* scalar_by_key;
  std::unordered_map<std::string, int>* array_by_key;
  std::vector<ArraySlotInfo>* arrays;
  int* num_scalars;
  /// Every name any unit lists in a common block. A variable is global
  /// if ANY unit lists it (the subset requires consistent usage), so
  /// the set is built once per image, not scanned per lookup.
  std::set<std::string, std::less<>> common_names;

  const fortran::ProgramUnit* unit = nullptr;

  std::string key_for(std::string_view name, bool is_common) const {
    if (is_common) return std::string(name);
    return unit->name + "::" + std::string(name);
  }

  bool is_common_var(std::string_view name) const {
    return common_names.contains(name);
  }

  int scalar_slot(std::string_view name) {
    const auto key = key_for(name, is_common_var(name));
    const auto it = scalar_by_key->find(key);
    if (it != scalar_by_key->end()) return it->second;
    const int slot = (*num_scalars)++;
    (*scalar_by_key)[key] = slot;
    return slot;
  }

  int array_slot(std::string_view name, const fortran::VarDecl* decl) {
    const auto key = key_for(name, is_common_var(name));
    const auto it = array_by_key->find(key);
    if (it != array_by_key->end()) {
      auto& info = (*arrays)[static_cast<std::size_t>(it->second)];
      if (!info.decl && decl) info.decl = decl;
      return it->second;
    }
    const int slot = static_cast<int>(arrays->size());
    arrays->push_back(ArraySlotInfo{std::string(name), decl});
    (*array_by_key)[key] = slot;
    return slot;
  }

  void resolve_expr(Expr& e) {
    switch (e.kind) {
      case ExprKind::VarRef: {
        // A bare array name (whole-array read/write item) becomes a
        // subscript-less ArrayRef so io statements can address the
        // storage; everything else is a scalar.
        const auto* decl = unit->find_decl(e.name);
        if (decl && decl->is_array()) {
          e.kind = ExprKind::ArrayRef;
          e.slot = array_slot(e.name, decl);
        } else {
          e.slot = scalar_slot(e.name);
        }
        break;
      }
      case ExprKind::ArrayRef:
        e.slot = array_slot(e.name, unit->find_decl(e.name));
        break;
      case ExprKind::Intrinsic:
        e.slot = intrinsic_opcode(e.name);
        if (e.slot < 0) {
          diags->error(e.loc, "unknown intrinsic '" + e.name + "'");
        }
        break;
      default:
        break;
    }
    for (auto& a : e.args) {
      if (a) resolve_expr(*a);
    }
  }

  void resolve_stmts(fortran::StmtList& stmts) {
    for (auto& s : stmts) {
      if (s->lhs) resolve_expr(*s->lhs);
      if (s->rhs) resolve_expr(*s->rhs);
      if (s->lo) resolve_expr(*s->lo);
      if (s->hi) resolve_expr(*s->hi);
      if (s->step) resolve_expr(*s->step);
      if (s->cond) resolve_expr(*s->cond);
      for (auto& a : s->args) {
        if (a) resolve_expr(*a);
      }
      switch (s->kind) {
        case StmtKind::Do:
          s->slot = scalar_slot(s->do_var);
          break;
        case StmtKind::Assign:
          s->flops = ProgramImage::flop_cost(*s->rhs);
          // Subscript arithmetic on the left-hand side is work too.
          for (const auto& sub : s->lhs->args) {
            s->flops += ProgramImage::flop_cost(*sub);
          }
          break;
        case StmtKind::AllReduce:
          s->slot = scalar_slot(s->reduce_var);
          break;
        case StmtKind::Call: {
          const auto* callee = file->find_unit(s->callee);
          if (callee && !callee->formal_args.empty()) {
            diags->error(s->loc,
                         "the interpreter supports only argument-less "
                         "subroutines (use common blocks); '" +
                             s->callee + "' has formal arguments");
          }
          break;
        }
        default:
          break;
      }
      resolve_stmts(s->body);
      resolve_stmts(s->else_body);
    }
  }

  void resolve_unit(fortran::ProgramUnit& u) {
    unit = &u;
    // Array dim bounds may reference parameters or rank scalars.
    for (auto& d : u.decls) {
      for (auto& dim : d.dims) {
        if (dim.lower) resolve_expr(*dim.lower);
        resolve_expr(*dim.upper);
      }
      // Ensure every declared array has a slot even if never accessed.
      if (d.is_array()) (void)array_slot(d.name, &d);
    }
    for (auto& p : u.params) {
      resolve_expr(*p.value);
    }
    resolve_stmts(u.body);
  }
};

}  // namespace

double ProgramImage::flop_cost(const Expr& e) {
  double cost = 0.0;
  switch (e.kind) {
    case ExprKind::Binary:
      cost = e.bin_op == fortran::BinOp::Pow ? 8.0 : 1.0;
      break;
    case ExprKind::Unary:
      cost = 1.0;
      break;
    case ExprKind::Intrinsic: {
      switch (static_cast<Intrinsic>(std::max(e.slot, 0))) {
        case Intrinsic::Sqrt:
        case Intrinsic::Exp:
        case Intrinsic::Log:
        case Intrinsic::Sin:
        case Intrinsic::Cos:
        case Intrinsic::Tan:
        case Intrinsic::Atan:
        case Intrinsic::Atan2:
          cost = 10.0;
          break;
        default:
          cost = 1.0;
          break;
      }
      break;
    }
    case ExprKind::ArrayRef: {
      // Index linearization arithmetic.
      cost = static_cast<double>(e.args.size());
      break;
    }
    default:
      break;
  }
  for (const auto& a : e.args) {
    if (a) cost += flop_cost(*a);
  }
  return cost;
}

ProgramImage ProgramImage::build(fortran::SourceFile& file,
                                 DiagnosticEngine& diags) {
  ProgramImage image;
  image.file_ = &file;
  for (const auto& u : file.units) {
    if (u.kind == fortran::UnitKind::Program) image.main_ = &u;
  }
  if (!image.main_) {
    diags.error({}, "program image needs a main program unit");
  }
  // Note: common-shape consistency is a front-end check
  // (GlobalSymbols); it cannot run here because restructured programs
  // declare arrays with run-time (acfd_*) bounds.
  Resolver r{&image,          &file,
             &diags,          &image.scalar_by_key_,
             &image.array_by_key_, &image.arrays_,
             &image.num_scalars_, {}};
  for (const auto& u : file.units) {
    for (const auto& blk : u.commons) {
      r.common_names.insert(blk.vars.begin(), blk.vars.end());
    }
  }
  for (auto& u : file.units) {
    r.resolve_unit(u);
  }

  // Parameter presets (evaluated once; parameters are compile-time).
  for (const auto& u : file.units) {
    fortran::ConstEvaluator eval(u);
    for (const auto& p : u.params) {
      const int slot = image.scalar_slot(u.name, p.name);
      if (slot < 0) continue;
      if (const auto v = eval.eval_real(*p.value)) {
        image.presets_.emplace_back(slot, *v);
      } else {
        diags.error(p.loc, "parameter '" + p.name + "' is not constant");
      }
    }
  }
  return image;
}

const fortran::ProgramUnit* ProgramImage::unit(std::string_view name) const {
  return file_->find_unit(name);
}

int ProgramImage::scalar_slot(std::string_view unit,
                              std::string_view name) const {
  // Try common (global) key first, then unit-local.
  if (const auto it = scalar_by_key_.find(std::string(name));
      it != scalar_by_key_.end()) {
    return it->second;
  }
  const auto key = std::string(unit) + "::" + std::string(name);
  const auto it = scalar_by_key_.find(key);
  return it == scalar_by_key_.end() ? -1 : it->second;
}

int ProgramImage::array_slot(std::string_view unit,
                             std::string_view name) const {
  if (const auto it = array_by_key_.find(std::string(name));
      it != array_by_key_.end()) {
    return it->second;
  }
  const auto key = std::string(unit) + "::" + std::string(name);
  const auto it = array_by_key_.find(key);
  return it == array_by_key_.end() ? -1 : it->second;
}

int ProgramImage::find_array_slot(std::string_view name) const {
  if (const auto it = array_by_key_.find(std::string(name));
      it != array_by_key_.end()) {
    return it->second;
  }
  int found = -1;
  const auto suffix = "::" + std::string(name);
  for (const auto& [key, slot] : array_by_key_) {
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      if (found >= 0 && found != slot) return -1;  // ambiguous
      found = slot;
    }
  }
  return found;
}

}  // namespace autocfd::interp
