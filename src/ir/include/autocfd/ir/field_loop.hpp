// Field-loop analysis: finds the loops that scan the flow field and
// classifies them per status array into the paper's four types
// (Figure 1): A-type (assignment-only), R-type (reference-only),
// C-type (combined) and O-type (unrelated).
//
// The analysis also extracts the stencil of every access — per-dimension
// subscript patterns with offsets — which is what the partition-aware
// dependency analysis (section 4.2) consumes, including the paper's
// special cases: direction-limited references (case 2), boundary code
// sections (case 3), packed status arrays with extended dimensions
// (case 4) and dependency distances larger than 1 (case 5).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autocfd/fortran/ast.hpp"
#include "autocfd/ir/loop_tree.hpp"
#include "autocfd/obs/provenance.hpp"
#include "autocfd/support/diagnostics.hpp"

namespace autocfd::ir {

/// What the user directives tell us about the flow field.
struct FieldConfig {
  int grid_rank = 2;  // number of flow-field dimensions
  std::vector<std::string> status_arrays;

  [[nodiscard]] bool is_status(std::string_view array) const;
  /// Number of status dimensions of `array_rank`-dimensional status
  /// array: min(rank, grid_rank). Trailing dimensions beyond the grid
  /// rank are "extended" (packed) dimensions (paper section 4.2 case 4).
  [[nodiscard]] int status_dims(int array_rank) const;
};

/// Pattern of one subscript expression relative to the loop variables
/// of the enclosing field-loop nest.
struct SubscriptPattern {
  enum class Kind {
    LoopIndex,  // var, var+c or var-c for an enclosing loop variable
    Invariant,  // constant or loop-invariant expression
    Complex,    // indirect (g(i)) or multi-variable — analysis gives up
  };
  Kind kind = Kind::Invariant;
  std::string loop_var;  // LoopIndex only
  long long offset = 0;  // LoopIndex only: v(i+offset)
  std::optional<long long> const_value;  // Invariant with known value

  friend bool operator==(const SubscriptPattern&,
                         const SubscriptPattern&) = default;
};

/// One read or write of a status array inside a field loop.
struct ArrayAccess {
  const fortran::Stmt* stmt = nullptr;  // assignment holding the access
  bool is_write = false;
  std::vector<SubscriptPattern> subs;  // one per array dimension
};

/// Per-array access summary within one field loop.
struct ArrayInfo {
  std::string name;
  std::vector<ArrayAccess> writes;
  std::vector<ArrayAccess> reads;

  [[nodiscard]] bool assigned() const { return !writes.empty(); }
  [[nodiscard]] bool referenced() const { return !reads.empty(); }
};

enum class LoopType { A, R, C, O };
[[nodiscard]] std::string_view loop_type_name(LoopType t);

/// Reduction-shaped update recognized inside a field loop
/// (errmax = max(errmax, ...) or s = s + ...).
///
/// The scalar is *private* when an unconditional `var = e` (e not
/// mentioning var) comes before, in the same iteration, every read of
/// var in the nest: earlier in the same statement list, or in a list
/// enclosing the read. Each iteration then starts from a fresh value,
/// so nothing crosses ranks. Otherwise it is a true reduction.
struct ReductionInfo {
  std::string var;
  std::string op;  // "max", "min" or "sum"
  const fortran::Stmt* stmt = nullptr;
  /// The killing `var = e` of a private scalar; null for a true
  /// reduction.
  const fortran::Stmt* kill = nullptr;
  /// Private scalars: the Do loops between the kill and `stmt`,
  /// outermost first. The update is a partial sum over these loops.
  std::vector<const fortran::Stmt*> partial_loops;
  /// Private scalars: var may be read after the nest (it is in COMMON,
  /// a dummy argument, or has an upward-exposed read later on).
  bool live_after = false;
};

/// A field loop: the outermost Do of a nest scanning the flow field.
struct FieldLoop {
  const fortran::Stmt* loop = nullptr;
  const fortran::ProgramUnit* unit = nullptr;

  /// loop variable -> 0-based grid dimension it scans.
  std::map<std::string, int> var_dims;
  /// loop variable -> +1 (ascending) or -1 (descending).
  std::map<std::string, int> var_dirs;
  /// Per status array touched in the nest.
  std::map<std::string, ArrayInfo> arrays;
  std::vector<ReductionInfo> reductions;

  [[nodiscard]] LoopType type_for(std::string_view array) const;
  /// Grid dimensions scanned by this nest, ascending.
  [[nodiscard]] std::vector<int> scanned_dims() const;
  [[nodiscard]] int dir_of_dim(int dim) const;  // 0 if dim not scanned
};

/// Analyzes one unit. All loops whose variables index status dimensions
/// are found; for each maximal such nest a FieldLoop is produced.
/// With a provenance log, one LoopClassification entry is recorded per
/// (field loop, status array) stating the A/R/C/O verdict and why, and
/// one ScalarClassification entry per (field loop, reduction-shaped
/// scalar) stating private or reduction and why.
[[nodiscard]] std::vector<FieldLoop> analyze_field_loops(
    const fortran::ProgramUnit& unit, const FieldConfig& config,
    DiagnosticEngine& diags, obs::ProvenanceLog* prov = nullptr);

/// Classifies one subscript expression. `var_dims` gives the loop
/// variables in scope (any map value works; only keys are used).
[[nodiscard]] SubscriptPattern classify_subscript(
    const fortran::Expr& sub, const std::map<std::string, int>& loop_vars);

}  // namespace autocfd::ir
