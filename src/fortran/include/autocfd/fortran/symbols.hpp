// Symbol resolution for the Fortran subset: compile-time constant
// evaluation (parameter statements), concrete array shapes, and the
// cross-unit view of common-block storage the later analyses need.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autocfd/fortran/ast.hpp"
#include "autocfd/support/diagnostics.hpp"

namespace autocfd::fortran {

/// Evaluates expressions made of literals, parameters and arithmetic to
/// a compile-time constant. Returns nullopt for anything run-time.
class ConstEvaluator {
 public:
  explicit ConstEvaluator(const ProgramUnit& unit);

  [[nodiscard]] std::optional<long long> eval_int(const Expr& e) const;
  [[nodiscard]] std::optional<double> eval_real(const Expr& e) const;

 private:
  std::map<std::string, const Expr*> params_;
};

/// Concrete (evaluated) shape of one array: inclusive bounds per dim.
struct ArrayShape {
  struct Dim {
    long long lower = 1;
    long long upper = 1;
    [[nodiscard]] long long extent() const { return upper - lower + 1; }
    friend bool operator==(const Dim&, const Dim&) = default;
  };
  std::vector<Dim> dims;

  [[nodiscard]] int rank() const { return static_cast<int>(dims.size()); }
  [[nodiscard]] long long element_count() const;
  friend bool operator==(const ArrayShape&, const ArrayShape&) = default;
};

/// Per-unit symbol table with evaluated shapes.
class SymbolTable {
 public:
  static SymbolTable build(const ProgramUnit& unit, DiagnosticEngine& diags);

  [[nodiscard]] const ArrayShape* shape(std::string_view array) const;
  [[nodiscard]] const VarDecl* decl(std::string_view name) const;
  [[nodiscard]] bool is_array(std::string_view name) const {
    return shape(name) != nullptr;
  }
  [[nodiscard]] const std::map<std::string, ArrayShape>& arrays() const {
    return shapes_;
  }

 private:
  std::map<std::string, ArrayShape> shapes_;
  std::map<std::string, const VarDecl*> decls_;
};

/// Whole-file view: which variables are global (appear in a common
/// block anywhere) and their agreed shape. The subset requires a
/// variable to have a consistent shape in every unit that declares it
/// in common.
class GlobalSymbols {
 public:
  static GlobalSymbols build(const SourceFile& file, DiagnosticEngine& diags);

  [[nodiscard]] bool is_global(std::string_view name) const;
  [[nodiscard]] const ArrayShape* global_shape(std::string_view name) const;
  [[nodiscard]] const std::map<std::string, ArrayShape>& globals() const {
    return global_arrays_;
  }

  [[nodiscard]] const SymbolTable* unit_table(std::string_view unit) const;

 private:
  std::map<std::string, ArrayShape> global_arrays_;
  std::vector<std::string> global_scalars_;
  std::map<std::string, SymbolTable> unit_tables_;
};

}  // namespace autocfd::fortran
