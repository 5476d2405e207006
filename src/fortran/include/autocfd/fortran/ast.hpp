// Abstract syntax tree for the Fortran-77 subset plus the parallel
// extension statements emitted by the SPMD restructurer.
//
// Expressions and statements are each one struct with a kind tag rather
// than a class hierarchy: the analyses in ir/, depend/ and sync/ walk
// the tree constantly and a flat representation keeps the walkers (and
// clone()) simple. Fields are only meaningful for the kinds documented
// next to them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autocfd/support/diagnostics.hpp"

namespace autocfd::fortran {

enum class TypeKind { Integer, Real, DoublePrecision, Logical };

[[nodiscard]] std::string_view type_kind_name(TypeKind k);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntLit,
  RealLit,
  StrLit,
  LogicalLit,
  VarRef,    // scalar variable
  ArrayRef,  // array element v(e1, e2, ...)
  Unary,
  Binary,
  Intrinsic,  // abs/max/min/sqrt/... call
};

enum class BinOp { Add, Sub, Mul, Div, Pow, Lt, Le, Gt, Ge, Eq, Ne, And, Or };
enum class UnOp { Neg, Plus, Not };

[[nodiscard]] std::string_view bin_op_spelling(BinOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::IntLit;
  SourceLoc loc;

  long long int_value = 0;   // IntLit
  double real_value = 0.0;   // RealLit
  bool bool_value = false;   // LogicalLit
  std::string str_value;     // StrLit
  std::string name;          // VarRef / ArrayRef / Intrinsic (lowercase)
  BinOp bin_op = BinOp::Add;  // Binary
  UnOp un_op = UnOp::Neg;     // Unary
  // ArrayRef: subscripts. Intrinsic: arguments.
  // Binary: {lhs, rhs}. Unary: {operand}.
  std::vector<ExprPtr> args;

  /// Interpreter annotation, assigned by interp::ProgramImage::build:
  /// scalar slot (VarRef), array slot (ArrayRef) or opcode (Intrinsic).
  int slot = -1;

  [[nodiscard]] ExprPtr clone() const;
};

// Convenience constructors used heavily by the restructurer.
[[nodiscard]] ExprPtr make_int(long long v, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_real(double v, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_var(std::string name, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_array_ref(std::string name,
                                     std::vector<ExprPtr> subscripts,
                                     SourceLoc loc = {});
[[nodiscard]] ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs);
[[nodiscard]] ExprPtr make_unary(UnOp op, ExprPtr operand);
[[nodiscard]] ExprPtr make_intrinsic(std::string name,
                                     std::vector<ExprPtr> args);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  Assign,
  Do,
  If,
  Goto,
  Continue,
  Call,
  Return,
  Stop,
  Read,   // read(unit,*) items — bound to a synthetic dataset at run time
  Write,  // write(unit,*) items — captured by the interpreter

  // --- Parallel extension statements (emitted by codegen, never parsed) ---
  HaloExchange,   // exchange ghost layers of `halo_arrays` with neighbors
  AllReduce,      // reduce scalar `reduce_var` across ranks (op in `callee`)
  PipelineStart,  // blocking receive of an updated boundary (mirror-image)
  PipelineEnd,    // send of an updated boundary to the downstream neighbor
  Barrier,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Data for one array participating in a halo exchange: which status
/// dimensions to exchange on and how wide the halo is on each side.
struct HaloSpec {
  std::string array;
  // Per grid dimension d (0-based): how many layers are needed from the
  // "low" neighbor and from the "high" neighbor.
  std::vector<int> lo_width;
  std::vector<int> hi_width;

  friend bool operator==(const HaloSpec&, const HaloSpec&) = default;
};

struct Stmt {
  StmtKind kind = StmtKind::Continue;
  SourceLoc loc;
  int label = 0;  // numeric statement label, 0 if none
  int id = 0;     // unique id assigned by assign_stmt_ids()

  // Assign
  ExprPtr lhs;  // VarRef or ArrayRef
  ExprPtr rhs;

  // Do
  std::string do_var;
  ExprPtr lo, hi, step;  // step may be null (defaults to 1)
  StmtList body;         // Do body / If then-branch

  // If
  ExprPtr cond;
  StmtList else_body;

  // Goto
  int goto_target = 0;

  // Call / Intrinsic-style statements / AllReduce op name
  std::string callee;
  std::vector<ExprPtr> args;

  // Read / Write: io items (exprs; for Read they must be var/array names)
  // reuse `args`; `str_value` holds an optional format/dataset tag.
  std::string str_value;

  // HaloExchange / PipelineStart / PipelineEnd
  std::vector<HaloSpec> halo_arrays;
  int pipeline_dim = -1;   // grid dimension the pipeline sweeps along
  int pipeline_dir = +1;   // +1 sweeping low->high, -1 high->low
  std::string reduce_var;  // AllReduce target scalar
  /// Wire tags assigned by the restructurer (sync::TagRegistry ids):
  /// HaloExchange holds one per grid dimension (-1 for uncut dims);
  /// PipelineStart/PipelineEnd hold a single shared tag. Empty for
  /// programs not produced by the restructurer (legacy fixed tags).
  std::vector<int> comm_tags;
  /// Sync-plan site of an AllReduce/Barrier (collectives carry no wire
  /// tag); -1 when unattributed.
  int sync_site = -1;

  /// Interpreter annotations (interp::ProgramImage::build): the slot of
  /// the Do variable / AllReduce scalar, and the floating-point work of
  /// an Assign statement.
  int slot = -1;
  double flops = 0.0;

  [[nodiscard]] StmtPtr clone() const;
};

[[nodiscard]] StmtPtr make_stmt(StmtKind kind, SourceLoc loc = {});
[[nodiscard]] StmtList clone_stmts(const StmtList& stmts);

// ---------------------------------------------------------------------------
// Declarations and program units
// ---------------------------------------------------------------------------

/// One dimension declarator: `lower:upper`, or just `upper` (lower == 1).
struct DimBound {
  ExprPtr lower;  // null means 1
  ExprPtr upper;

  [[nodiscard]] DimBound clone() const;
};

struct VarDecl {
  std::string name;
  TypeKind type = TypeKind::Real;
  std::vector<DimBound> dims;  // empty for scalars
  SourceLoc loc;

  [[nodiscard]] bool is_array() const { return !dims.empty(); }
  [[nodiscard]] VarDecl clone() const;
};

/// `parameter (name = value)` compile-time constant.
struct ParamConst {
  std::string name;
  ExprPtr value;
  SourceLoc loc;
};

/// `common /block/ a, b, c` — storage shared across program units.
/// Our subset matches common variables by name, so every unit naming a
/// variable in a common block refers to the same storage.
struct CommonBlock {
  std::string block_name;
  std::vector<std::string> vars;
};

enum class UnitKind { Program, Subroutine };

struct ProgramUnit {
  UnitKind kind = UnitKind::Program;
  std::string name;
  std::vector<std::string> formal_args;
  std::vector<VarDecl> decls;
  std::vector<ParamConst> params;
  std::vector<CommonBlock> commons;
  StmtList body;
  SourceLoc loc;

  [[nodiscard]] const VarDecl* find_decl(std::string_view var) const;
  [[nodiscard]] bool in_common(std::string_view var) const;
};

struct SourceFile {
  std::vector<ProgramUnit> units;

  [[nodiscard]] const ProgramUnit* find_unit(std::string_view name) const;
  [[nodiscard]] ProgramUnit* find_unit(std::string_view name);
  [[nodiscard]] const ProgramUnit* main_program() const;
};

/// Assigns a unique, document-ordered id to every statement in the unit
/// (ids are used by the sync-region machinery as program positions).
/// Returns the number of statements visited.
int assign_stmt_ids(ProgramUnit& unit, int first_id = 1);
int assign_stmt_ids(SourceFile& file);

/// Walks all statements in document order, including nested bodies.
/// The callback receives (stmt, depth).
void for_each_stmt(const StmtList& stmts,
                   const std::function<void(const Stmt&, int)>& fn,
                   int depth = 0);
void for_each_stmt_mut(StmtList& stmts,
                       const std::function<void(Stmt&, int)>& fn,
                       int depth = 0);

/// Walks all expressions in a statement (not descending into child stmts).
void for_each_expr(const Stmt& stmt,
                   const std::function<void(const Expr&)>& fn);
void for_each_expr(const Expr& expr,
                   const std::function<void(const Expr&)>& fn);

}  // namespace autocfd::fortran
