#include "autocfd/fortran/ast.hpp"

namespace autocfd::fortran {

std::string_view type_kind_name(TypeKind k) {
  switch (k) {
    case TypeKind::Integer: return "integer";
    case TypeKind::Real: return "real";
    case TypeKind::DoublePrecision: return "double precision";
    case TypeKind::Logical: return "logical";
  }
  return "?";
}

std::string_view bin_op_spelling(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Pow: return "**";
    case BinOp::Lt: return ".lt.";
    case BinOp::Le: return ".le.";
    case BinOp::Gt: return ".gt.";
    case BinOp::Ge: return ".ge.";
    case BinOp::Eq: return ".eq.";
    case BinOp::Ne: return ".ne.";
    case BinOp::And: return ".and.";
    case BinOp::Or: return ".or.";
  }
  return "?";
}

ExprPtr Expr::clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->loc = loc;
  out->int_value = int_value;
  out->real_value = real_value;
  out->bool_value = bool_value;
  out->str_value = str_value;
  out->name = name;
  out->bin_op = bin_op;
  out->un_op = un_op;
  out->args.reserve(args.size());
  for (const auto& a : args) out->args.push_back(a->clone());
  out->slot = slot;
  return out;
}

ExprPtr make_int(long long v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::IntLit;
  e->int_value = v;
  e->loc = loc;
  return e;
}

ExprPtr make_real(double v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::RealLit;
  e->real_value = v;
  e->loc = loc;
  return e;
}

ExprPtr make_var(std::string name, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::VarRef;
  e->name = std::move(name);
  e->loc = loc;
  return e;
}

ExprPtr make_array_ref(std::string name, std::vector<ExprPtr> subscripts,
                       SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::ArrayRef;
  e->name = std::move(name);
  e->args = std::move(subscripts);
  e->loc = loc;
  return e;
}

ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Binary;
  e->bin_op = op;
  e->loc = lhs ? lhs->loc : SourceLoc{};
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr make_unary(UnOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Unary;
  e->un_op = op;
  e->loc = operand ? operand->loc : SourceLoc{};
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr make_intrinsic(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Intrinsic;
  e->name = std::move(name);
  e->args = std::move(args);
  return e;
}

StmtPtr Stmt::clone() const {
  auto out = std::make_unique<Stmt>();
  out->kind = kind;
  out->loc = loc;
  out->label = label;
  out->id = id;
  if (lhs) out->lhs = lhs->clone();
  if (rhs) out->rhs = rhs->clone();
  out->do_var = do_var;
  if (lo) out->lo = lo->clone();
  if (hi) out->hi = hi->clone();
  if (step) out->step = step->clone();
  out->body = clone_stmts(body);
  if (cond) out->cond = cond->clone();
  out->else_body = clone_stmts(else_body);
  out->goto_target = goto_target;
  out->callee = callee;
  out->args.reserve(args.size());
  for (const auto& a : args) out->args.push_back(a->clone());
  out->str_value = str_value;
  out->halo_arrays = halo_arrays;
  out->pipeline_dim = pipeline_dim;
  out->pipeline_dir = pipeline_dir;
  out->reduce_var = reduce_var;
  out->comm_tags = comm_tags;
  out->sync_site = sync_site;
  out->slot = slot;
  out->flops = flops;
  return out;
}

StmtPtr make_stmt(StmtKind kind, SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->loc = loc;
  return s;
}

StmtList clone_stmts(const StmtList& stmts) {
  StmtList out;
  out.reserve(stmts.size());
  for (const auto& s : stmts) out.push_back(s->clone());
  return out;
}

DimBound DimBound::clone() const {
  DimBound out;
  if (lower) out.lower = lower->clone();
  out.upper = upper->clone();
  return out;
}

VarDecl VarDecl::clone() const {
  VarDecl out;
  out.name = name;
  out.type = type;
  out.loc = loc;
  out.dims.reserve(dims.size());
  for (const auto& d : dims) out.dims.push_back(d.clone());
  return out;
}

const VarDecl* ProgramUnit::find_decl(std::string_view var) const {
  for (const auto& d : decls) {
    if (d.name == var) return &d;
  }
  return nullptr;
}

bool ProgramUnit::in_common(std::string_view var) const {
  for (const auto& c : commons) {
    for (const auto& v : c.vars) {
      if (v == var) return true;
    }
  }
  return false;
}

const ProgramUnit* SourceFile::find_unit(std::string_view name) const {
  for (const auto& u : units) {
    if (u.name == name) return &u;
  }
  return nullptr;
}

ProgramUnit* SourceFile::find_unit(std::string_view name) {
  for (auto& u : units) {
    if (u.name == name) return &u;
  }
  return nullptr;
}

const ProgramUnit* SourceFile::main_program() const {
  for (const auto& u : units) {
    if (u.kind == UnitKind::Program) return &u;
  }
  return nullptr;
}

namespace {
int assign_ids_rec(StmtList& stmts, int next) {
  for (auto& s : stmts) {
    s->id = next++;
    next = assign_ids_rec(s->body, next);
    next = assign_ids_rec(s->else_body, next);
  }
  return next;
}
}  // namespace

int assign_stmt_ids(ProgramUnit& unit, int first_id) {
  return assign_ids_rec(unit.body, first_id) - first_id;
}

int assign_stmt_ids(SourceFile& file) {
  int next = 1;
  for (auto& u : file.units) {
    next = assign_ids_rec(u.body, next);
  }
  return next - 1;
}

void for_each_stmt(const StmtList& stmts,
                   const std::function<void(const Stmt&, int)>& fn,
                   int depth) {
  for (const auto& s : stmts) {
    fn(*s, depth);
    for_each_stmt(s->body, fn, depth + 1);
    for_each_stmt(s->else_body, fn, depth + 1);
  }
}

void for_each_stmt_mut(StmtList& stmts,
                       const std::function<void(Stmt&, int)>& fn, int depth) {
  for (auto& s : stmts) {
    fn(*s, depth);
    for_each_stmt_mut(s->body, fn, depth + 1);
    for_each_stmt_mut(s->else_body, fn, depth + 1);
  }
}

void for_each_expr(const Expr& expr,
                   const std::function<void(const Expr&)>& fn) {
  fn(expr);
  for (const auto& a : expr.args) {
    if (a) for_each_expr(*a, fn);
  }
}

void for_each_expr(const Stmt& stmt,
                   const std::function<void(const Expr&)>& fn) {
  const auto visit = [&](const ExprPtr& e) {
    if (e) for_each_expr(*e, fn);
  };
  visit(stmt.lhs);
  visit(stmt.rhs);
  visit(stmt.lo);
  visit(stmt.hi);
  visit(stmt.step);
  visit(stmt.cond);
  for (const auto& a : stmt.args) visit(a);
}

}  // namespace autocfd::fortran
