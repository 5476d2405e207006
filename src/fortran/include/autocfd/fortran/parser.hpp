// Recursive-descent parser for the Fortran-77 subset.
//
// Fortran has no reserved words, so statement keywords are recognized
// from position and context (e.g. `do` starts a DO statement only when
// followed by `[label] var =`). The parser resolves names against the
// current unit's declarations as it goes: a parenthesized name is an
// ArrayRef when declared with dimensions, an Intrinsic when in the
// intrinsic table, and an error otherwise (the subset has no user
// functions; procedures are subroutines).
#pragma once

#include <string_view>
#include <vector>

#include "autocfd/fortran/ast.hpp"
#include "autocfd/fortran/token.hpp"
#include "autocfd/support/diagnostics.hpp"

namespace autocfd::fortran {

[[nodiscard]] bool is_intrinsic_name(std::string_view name);

class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticEngine& diags);

  /// Parses a whole source file (one or more program units).
  [[nodiscard]] SourceFile parse_file();

 private:
  // token stream
  const Token& peek(int ahead = 0) const;
  const Token& advance();
  bool accept(TokenKind kind);
  bool accept_word(std::string_view word);
  const Token* expect(TokenKind kind, std::string_view what);
  void skip_to_eos();
  bool at_eos() const;

  // units and declarations
  ProgramUnit parse_unit();
  bool parse_declaration(ProgramUnit& unit);
  void parse_type_decl(ProgramUnit& unit, TypeKind type);
  void parse_dimension(ProgramUnit& unit);
  void parse_parameter(ProgramUnit& unit);
  void parse_common(ProgramUnit& unit);
  std::vector<DimBound> parse_dim_list(ProgramUnit& unit);

  // statements
  enum class BlockEnd { UnitEnd, EndDo, EndIf, Else, ElseIf, Label };
  struct BlockResult {
    BlockEnd end;
    int label = 0;  // for BlockEnd::Label
  };
  BlockResult parse_stmt_list(StmtList& out, int until_label);
  StmtPtr parse_statement(int label);
  StmtPtr parse_do(SourceLoc loc);
  StmtPtr parse_if(SourceLoc loc);
  StmtPtr parse_call(SourceLoc loc);
  StmtPtr parse_io(SourceLoc loc, StmtKind kind);
  StmtPtr parse_assignment(SourceLoc loc);

  // expressions (precedence climbing)
  ExprPtr parse_expr();
  ExprPtr parse_or();
  ExprPtr parse_and();
  ExprPtr parse_not();
  ExprPtr parse_relational();
  ExprPtr parse_additive();
  ExprPtr parse_multiplicative();
  ExprPtr parse_unary();
  ExprPtr parse_power();
  ExprPtr parse_primary();

  bool looks_like_do() const;
  bool is_declared_array(std::string_view name) const;

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  DiagnosticEngine* diags_;
  ProgramUnit* current_unit_ = nullptr;
};

/// Convenience: lex + parse + assign statement ids; throws CompileError
/// on any diagnostic error.
[[nodiscard]] SourceFile parse_source(std::string_view source);

/// Non-throwing variant collecting diagnostics.
[[nodiscard]] SourceFile parse_source(std::string_view source,
                                      DiagnosticEngine& diags);

}  // namespace autocfd::fortran
