#include "autocfd/fortran/parser.hpp"

#include <array>
#include <algorithm>

#include "autocfd/fortran/lexer.hpp"

namespace autocfd::fortran {

namespace {

constexpr std::array kIntrinsics = {
    "abs",   "sqrt", "exp",  "log",  "sin",  "cos",   "tan",
    "atan",  "max",  "min",  "mod",  "int",  "nint",  "float",
    "real",  "dble", "sign", "amax1", "amin1", "atan2",
};

}  // namespace

bool is_intrinsic_name(std::string_view name) {
  return std::find(kIntrinsics.begin(), kIntrinsics.end(), name) !=
         kIntrinsics.end();
}

Parser::Parser(std::vector<Token> tokens, DiagnosticEngine& diags)
    : tokens_(std::move(tokens)), diags_(&diags) {}

const Token& Parser::peek(int ahead) const {
  const auto idx = std::min(pos_ + static_cast<std::size_t>(ahead),
                            tokens_.size() - 1);
  return tokens_[idx];
}

const Token& Parser::advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::accept(TokenKind kind) {
  if (peek().kind == kind) {
    advance();
    return true;
  }
  return false;
}

bool Parser::accept_word(std::string_view word) {
  if (peek().is_word(word)) {
    advance();
    return true;
  }
  return false;
}

const Token* Parser::expect(TokenKind kind, std::string_view what) {
  if (peek().kind == kind) return &advance();
  diags_->error(peek().loc, "expected " + std::string(what) + ", found " +
                                peek().str());
  return nullptr;
}

void Parser::skip_to_eos() {
  while (!peek().is(TokenKind::EndOfStatement) &&
         !peek().is(TokenKind::EndOfFile)) {
    advance();
  }
  accept(TokenKind::EndOfStatement);
}

bool Parser::at_eos() const {
  return peek().is(TokenKind::EndOfStatement) ||
         peek().is(TokenKind::EndOfFile);
}

// ---------------------------------------------------------------------------
// File and unit structure
// ---------------------------------------------------------------------------

SourceFile Parser::parse_file() {
  SourceFile file;
  while (!peek().is(TokenKind::EndOfFile)) {
    if (accept(TokenKind::EndOfStatement)) continue;
    file.units.push_back(parse_unit());
  }
  return file;
}

ProgramUnit Parser::parse_unit() {
  ProgramUnit unit;
  unit.loc = peek().loc;
  current_unit_ = &unit;

  if (accept_word("program")) {
    unit.kind = UnitKind::Program;
    if (const auto* t = expect(TokenKind::Identifier, "program name")) {
      unit.name = t->text;
    }
    skip_to_eos();
  } else if (accept_word("subroutine")) {
    unit.kind = UnitKind::Subroutine;
    if (const auto* t = expect(TokenKind::Identifier, "subroutine name")) {
      unit.name = t->text;
    }
    if (accept(TokenKind::LParen)) {
      if (!accept(TokenKind::RParen)) {
        do {
          if (const auto* a = expect(TokenKind::Identifier, "argument name")) {
            unit.formal_args.push_back(a->text);
          }
        } while (accept(TokenKind::Comma));
        expect(TokenKind::RParen, "')'");
      }
    }
    skip_to_eos();
  } else {
    diags_->error(peek().loc,
                  "expected 'program' or 'subroutine', found " + peek().str());
    skip_to_eos();
  }

  // Declarations come before executable statements.
  while (parse_declaration(unit)) {
  }

  auto res = parse_stmt_list(unit.body, /*until_label=*/0);
  if (res.end != BlockEnd::UnitEnd) {
    diags_->error(peek().loc, "unexpected block terminator in unit '" +
                                  unit.name + "'");
  }
  current_unit_ = nullptr;
  return unit;
}

bool Parser::parse_declaration(ProgramUnit& unit) {
  while (accept(TokenKind::EndOfStatement)) {
  }
  const Token& t = peek();
  if (!t.is(TokenKind::Identifier)) return false;

  // `real x(...)` is a declaration, but `real(...)` as a statement start
  // cannot occur; `real = 3` would be an assignment to a variable named
  // real, which the subset rejects for sanity.
  if (t.text == "integer" && !peek(1).is(TokenKind::Equals)) {
    advance();
    parse_type_decl(unit, TypeKind::Integer);
    return true;
  }
  if (t.text == "real" && !peek(1).is(TokenKind::Equals)) {
    advance();
    parse_type_decl(unit, TypeKind::Real);
    return true;
  }
  if (t.text == "logical" && !peek(1).is(TokenKind::Equals)) {
    advance();
    parse_type_decl(unit, TypeKind::Logical);
    return true;
  }
  if (t.text == "double" && peek(1).is_word("precision")) {
    advance();
    advance();
    parse_type_decl(unit, TypeKind::DoublePrecision);
    return true;
  }
  if (t.text == "dimension") {
    advance();
    parse_dimension(unit);
    return true;
  }
  if (t.text == "parameter") {
    advance();
    parse_parameter(unit);
    return true;
  }
  if (t.text == "common") {
    advance();
    parse_common(unit);
    return true;
  }
  return false;
}

void Parser::parse_type_decl(ProgramUnit& unit, TypeKind type) {
  do {
    VarDecl decl;
    decl.type = type;
    decl.loc = peek().loc;
    if (const auto* t = expect(TokenKind::Identifier, "variable name")) {
      decl.name = t->text;
    } else {
      skip_to_eos();
      return;
    }
    if (peek().is(TokenKind::LParen)) {
      advance();
      decl.dims = parse_dim_list(unit);
    }
    if (auto* existing = [&]() -> VarDecl* {
          for (auto& d : unit.decls) {
            if (d.name == decl.name) return &d;
          }
          return nullptr;
        }()) {
      // `dimension v(...)` may have come first; merge the type in.
      existing->type = type;
      if (!decl.dims.empty()) existing->dims = std::move(decl.dims);
    } else {
      unit.decls.push_back(std::move(decl));
    }
  } while (accept(TokenKind::Comma));
  skip_to_eos();
}

void Parser::parse_dimension(ProgramUnit& unit) {
  do {
    const auto* t = expect(TokenKind::Identifier, "array name");
    if (!t) break;
    const std::string name = t->text;
    if (!expect(TokenKind::LParen, "'('")) break;
    auto dims = parse_dim_list(unit);
    if (auto* existing = [&]() -> VarDecl* {
          for (auto& d : unit.decls) {
            if (d.name == name) return &d;
          }
          return nullptr;
        }()) {
      existing->dims = std::move(dims);
    } else {
      VarDecl decl;
      decl.name = name;
      decl.type = TypeKind::Real;
      decl.dims = std::move(dims);
      decl.loc = t->loc;
      unit.decls.push_back(std::move(decl));
    }
  } while (accept(TokenKind::Comma));
  skip_to_eos();
}

std::vector<DimBound> Parser::parse_dim_list(ProgramUnit& unit) {
  // parse_dim_list is called mid-declaration; expressions in bounds may
  // reference parameters that are already declared.
  (void)unit;
  std::vector<DimBound> dims;
  do {
    DimBound b;
    b.upper = parse_expr();
    if (accept(TokenKind::Colon)) {
      b.lower = std::move(b.upper);
      b.upper = parse_expr();
    }
    dims.push_back(std::move(b));
  } while (accept(TokenKind::Comma));
  expect(TokenKind::RParen, "')' after dimensions");
  return dims;
}

void Parser::parse_parameter(ProgramUnit& unit) {
  if (!expect(TokenKind::LParen, "'(' after parameter")) {
    skip_to_eos();
    return;
  }
  do {
    ParamConst p;
    p.loc = peek().loc;
    if (const auto* t = expect(TokenKind::Identifier, "parameter name")) {
      p.name = t->text;
    } else {
      break;
    }
    if (!expect(TokenKind::Equals, "'='")) break;
    p.value = parse_expr();
    unit.params.push_back(std::move(p));
  } while (accept(TokenKind::Comma));
  expect(TokenKind::RParen, "')'");
  skip_to_eos();
}

void Parser::parse_common(ProgramUnit& unit) {
  CommonBlock blk;
  if (accept(TokenKind::Slash)) {
    if (const auto* t = expect(TokenKind::Identifier, "common block name")) {
      blk.block_name = t->text;
    }
    expect(TokenKind::Slash, "'/'");
  }
  do {
    if (const auto* t = expect(TokenKind::Identifier, "variable name")) {
      blk.vars.push_back(t->text);
      // Arrays may carry their dimensions in the common statement.
      if (peek().is(TokenKind::LParen)) {
        advance();
        auto dims = parse_dim_list(unit);
        if (auto* existing = [&]() -> VarDecl* {
              for (auto& d : unit.decls) {
                if (d.name == t->text) return &d;
              }
              return nullptr;
            }()) {
          existing->dims = std::move(dims);
        } else {
          VarDecl decl;
          decl.name = t->text;
          decl.type = TypeKind::Real;
          decl.dims = std::move(dims);
          decl.loc = t->loc;
          unit.decls.push_back(std::move(decl));
        }
      }
    } else {
      break;
    }
  } while (accept(TokenKind::Comma));
  unit.commons.push_back(std::move(blk));
  skip_to_eos();
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Parser::BlockResult Parser::parse_stmt_list(StmtList& out, int until_label) {
  while (true) {
    while (accept(TokenKind::EndOfStatement)) {
    }
    if (peek().is(TokenKind::EndOfFile)) {
      if (until_label != 0) {
        diags_->error(peek().loc, "unterminated labeled do loop");
      }
      return {BlockEnd::UnitEnd, 0};
    }

    int label = 0;
    if (peek().is(TokenKind::Label)) {
      label = static_cast<int>(advance().int_value);
    }

    const Token& t = peek();
    if (t.is(TokenKind::Identifier)) {
      if (t.text == "end") {
        if (peek(1).is_word("do")) {
          advance();
          advance();
          skip_to_eos();
          return {BlockEnd::EndDo, 0};
        }
        if (peek(1).is_word("if")) {
          advance();
          advance();
          skip_to_eos();
          return {BlockEnd::EndIf, 0};
        }
        if (peek(1).is(TokenKind::EndOfStatement) ||
            peek(1).is(TokenKind::EndOfFile)) {
          advance();
          skip_to_eos();
          return {BlockEnd::UnitEnd, 0};
        }
        // `enddo` / `endif` spellings
      }
      if (t.text == "enddo") {
        advance();
        skip_to_eos();
        return {BlockEnd::EndDo, 0};
      }
      if (t.text == "endif") {
        advance();
        skip_to_eos();
        return {BlockEnd::EndIf, 0};
      }
      if (t.text == "else") {
        advance();
        if (peek().is_word("if")) {
          advance();
          return {BlockEnd::ElseIf, 0};
        }
        skip_to_eos();
        return {BlockEnd::Else, 0};
      }
      if (t.text == "elseif") {
        advance();
        return {BlockEnd::ElseIf, 0};
      }
    }

    auto stmt = parse_statement(label);
    const bool is_terminator = until_label != 0 && label == until_label;
    if (stmt) {
      stmt->label = label;
      out.push_back(std::move(stmt));
    }
    if (is_terminator) return {BlockEnd::Label, label};
  }
}

StmtPtr Parser::parse_statement(int label) {
  (void)label;
  const Token& t = peek();
  const SourceLoc loc = t.loc;

  if (!t.is(TokenKind::Identifier)) {
    diags_->error(loc, "expected statement, found " + t.str());
    skip_to_eos();
    return nullptr;
  }

  if (t.text == "do" && looks_like_do()) {
    advance();
    return parse_do(loc);
  }
  if (t.text == "if" && peek(1).is(TokenKind::LParen)) {
    advance();
    return parse_if(loc);
  }
  if (t.text == "goto") {
    advance();
    auto s = make_stmt(StmtKind::Goto, loc);
    if (const auto* n = expect(TokenKind::IntLiteral, "label")) {
      s->goto_target = static_cast<int>(n->int_value);
    }
    skip_to_eos();
    return s;
  }
  if (t.text == "go" && peek(1).is_word("to")) {
    advance();
    advance();
    auto s = make_stmt(StmtKind::Goto, loc);
    if (const auto* n = expect(TokenKind::IntLiteral, "label")) {
      s->goto_target = static_cast<int>(n->int_value);
    }
    skip_to_eos();
    return s;
  }
  if (t.text == "continue") {
    advance();
    skip_to_eos();
    return make_stmt(StmtKind::Continue, loc);
  }
  if (t.text == "call") {
    advance();
    return parse_call(loc);
  }
  if (t.text == "return") {
    advance();
    skip_to_eos();
    return make_stmt(StmtKind::Return, loc);
  }
  if (t.text == "stop") {
    advance();
    skip_to_eos();
    return make_stmt(StmtKind::Stop, loc);
  }
  if (t.text == "read" && peek(1).is(TokenKind::LParen)) {
    advance();
    return parse_io(loc, StmtKind::Read);
  }
  if (t.text == "write" && peek(1).is(TokenKind::LParen)) {
    advance();
    return parse_io(loc, StmtKind::Write);
  }
  if (t.text == "print") {
    advance();
    auto s = make_stmt(StmtKind::Write, loc);
    accept(TokenKind::Star);
    while (accept(TokenKind::Comma)) {
      s->args.push_back(parse_expr());
    }
    skip_to_eos();
    return s;
  }

  return parse_assignment(loc);
}

bool Parser::looks_like_do() const {
  // `do [label] var =` begins a DO statement.
  int i = 1;
  if (peek(i).is(TokenKind::IntLiteral)) ++i;
  return peek(i).is(TokenKind::Identifier) && peek(i + 1).is(TokenKind::Equals);
}

StmtPtr Parser::parse_do(SourceLoc loc) {
  auto s = make_stmt(StmtKind::Do, loc);
  int end_label = 0;
  if (peek().is(TokenKind::IntLiteral)) {
    end_label = static_cast<int>(advance().int_value);
  }
  if (const auto* v = expect(TokenKind::Identifier, "loop variable")) {
    s->do_var = v->text;
  }
  expect(TokenKind::Equals, "'='");
  s->lo = parse_expr();
  expect(TokenKind::Comma, "','");
  s->hi = parse_expr();
  if (accept(TokenKind::Comma)) {
    s->step = parse_expr();
  }
  skip_to_eos();

  auto res = parse_stmt_list(s->body, end_label);
  if (end_label != 0) {
    if (res.end != BlockEnd::Label || res.label != end_label) {
      diags_->error(loc, "do loop terminator label " +
                             std::to_string(end_label) + " not found");
    }
  } else if (res.end != BlockEnd::EndDo) {
    diags_->error(loc, "expected 'end do'");
  }
  return s;
}

StmtPtr Parser::parse_if(SourceLoc loc) {
  auto s = make_stmt(StmtKind::If, loc);
  expect(TokenKind::LParen, "'('");
  s->cond = parse_expr();
  expect(TokenKind::RParen, "')'");

  if (!accept_word("then")) {
    // Logical IF: `if (cond) stmt` — one statement in the then-branch.
    auto inner = parse_statement(0);
    if (inner) s->body.push_back(std::move(inner));
    return s;
  }
  skip_to_eos();

  auto res = parse_stmt_list(s->body, 0);
  if (res.end == BlockEnd::ElseIf) {
    // Chain `else if (cond) then ... end if` as a nested If in the else
    // branch; the nested parse consumes up to the closing `end if`.
    s->else_body.push_back(parse_if(peek().loc));
    return s;
  }
  if (res.end == BlockEnd::Else) {
    res = parse_stmt_list(s->else_body, 0);
  }
  if (res.end != BlockEnd::EndIf) {
    diags_->error(loc, "expected 'end if'");
  }
  return s;
}

StmtPtr Parser::parse_call(SourceLoc loc) {
  auto s = make_stmt(StmtKind::Call, loc);
  if (const auto* t = expect(TokenKind::Identifier, "subroutine name")) {
    s->callee = t->text;
  }
  if (accept(TokenKind::LParen)) {
    if (!accept(TokenKind::RParen)) {
      do {
        s->args.push_back(parse_expr());
      } while (accept(TokenKind::Comma));
      expect(TokenKind::RParen, "')'");
    }
  }
  skip_to_eos();
  return s;
}

StmtPtr Parser::parse_io(SourceLoc loc, StmtKind kind) {
  auto s = make_stmt(kind, loc);
  expect(TokenKind::LParen, "'('");
  // unit: number or '*'
  if (peek().is(TokenKind::IntLiteral)) {
    s->str_value = "unit" + std::to_string(advance().int_value);
  } else {
    accept(TokenKind::Star);
  }
  if (accept(TokenKind::Comma)) {
    if (!accept(TokenKind::Star)) {
      if (peek().is(TokenKind::StringLiteral)) {
        s->str_value = advance().text;
      } else if (peek().is(TokenKind::IntLiteral)) {
        advance();  // format label, ignored by the subset
      }
    }
  }
  expect(TokenKind::RParen, "')'");
  if (!at_eos()) {
    do {
      s->args.push_back(parse_expr());
    } while (accept(TokenKind::Comma));
  }
  skip_to_eos();
  return s;
}

StmtPtr Parser::parse_assignment(SourceLoc loc) {
  auto s = make_stmt(StmtKind::Assign, loc);
  s->lhs = parse_primary();
  if (!s->lhs || (s->lhs->kind != ExprKind::VarRef &&
                  s->lhs->kind != ExprKind::ArrayRef)) {
    diags_->error(loc, "left-hand side of assignment must be a variable or "
                       "array element");
    skip_to_eos();
    return nullptr;
  }
  if (!expect(TokenKind::Equals, "'=' in assignment")) {
    skip_to_eos();
    return nullptr;
  }
  s->rhs = parse_expr();
  skip_to_eos();
  return s;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ExprPtr Parser::parse_expr() { return parse_or(); }

ExprPtr Parser::parse_or() {
  auto lhs = parse_and();
  while (accept(TokenKind::DotOr)) {
    lhs = make_binary(BinOp::Or, std::move(lhs), parse_and());
  }
  return lhs;
}

ExprPtr Parser::parse_and() {
  auto lhs = parse_not();
  while (accept(TokenKind::DotAnd)) {
    lhs = make_binary(BinOp::And, std::move(lhs), parse_not());
  }
  return lhs;
}

ExprPtr Parser::parse_not() {
  if (accept(TokenKind::DotNot)) {
    return make_unary(UnOp::Not, parse_not());
  }
  return parse_relational();
}

ExprPtr Parser::parse_relational() {
  auto lhs = parse_additive();
  const auto op = [&]() -> BinOp {
    switch (peek().kind) {
      case TokenKind::DotLt: return BinOp::Lt;
      case TokenKind::DotLe: return BinOp::Le;
      case TokenKind::DotGt: return BinOp::Gt;
      case TokenKind::DotGe: return BinOp::Ge;
      case TokenKind::DotEq: return BinOp::Eq;
      case TokenKind::DotNe: return BinOp::Ne;
      default: return BinOp::Add;  // sentinel
    }
  }();
  if (op != BinOp::Add) {
    advance();
    return make_binary(op, std::move(lhs), parse_additive());
  }
  return lhs;
}

ExprPtr Parser::parse_additive() {
  auto lhs = parse_multiplicative();
  while (true) {
    if (accept(TokenKind::Plus)) {
      lhs = make_binary(BinOp::Add, std::move(lhs), parse_multiplicative());
    } else if (accept(TokenKind::Minus)) {
      lhs = make_binary(BinOp::Sub, std::move(lhs), parse_multiplicative());
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::parse_multiplicative() {
  auto lhs = parse_unary();
  while (true) {
    if (accept(TokenKind::Star)) {
      lhs = make_binary(BinOp::Mul, std::move(lhs), parse_unary());
    } else if (accept(TokenKind::Slash)) {
      lhs = make_binary(BinOp::Div, std::move(lhs), parse_unary());
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::parse_unary() {
  if (accept(TokenKind::Minus)) {
    return make_unary(UnOp::Neg, parse_unary());
  }
  if (accept(TokenKind::Plus)) {
    return parse_unary();
  }
  return parse_power();
}

ExprPtr Parser::parse_power() {
  auto base = parse_primary();
  if (accept(TokenKind::StarStar)) {
    // '**' is right associative.
    return make_binary(BinOp::Pow, std::move(base), parse_unary());
  }
  return base;
}

bool Parser::is_declared_array(std::string_view name) const {
  if (!current_unit_) return false;
  const auto* d = current_unit_->find_decl(name);
  return d != nullptr && d->is_array();
}

ExprPtr Parser::parse_primary() {
  const Token& t = peek();
  const SourceLoc loc = t.loc;
  switch (t.kind) {
    case TokenKind::IntLiteral:
    case TokenKind::Label: {
      advance();
      return make_int(t.int_value, loc);
    }
    case TokenKind::RealLiteral: {
      advance();
      return make_real(t.real_value, loc);
    }
    case TokenKind::StringLiteral: {
      advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::StrLit;
      e->str_value = t.text;
      e->loc = loc;
      return e;
    }
    case TokenKind::DotTrue:
    case TokenKind::DotFalse: {
      advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::LogicalLit;
      e->bool_value = t.kind == TokenKind::DotTrue;
      e->loc = loc;
      return e;
    }
    case TokenKind::LParen: {
      advance();
      auto e = parse_expr();
      expect(TokenKind::RParen, "')'");
      return e;
    }
    case TokenKind::Identifier: {
      advance();
      const std::string name = t.text;
      if (!peek().is(TokenKind::LParen)) {
        return make_var(name, loc);
      }
      advance();  // '('
      std::vector<ExprPtr> args;
      if (!peek().is(TokenKind::RParen)) {
        do {
          args.push_back(parse_expr());
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "')'");
      if (is_declared_array(name)) {
        return make_array_ref(name, std::move(args), loc);
      }
      if (is_intrinsic_name(name)) {
        auto e = make_intrinsic(name, std::move(args));
        e->loc = loc;
        return e;
      }
      diags_->error(loc, "'" + name +
                             "' is neither a declared array nor an intrinsic "
                             "(user functions are outside the subset)");
      return make_var(name, loc);
    }
    default:
      diags_->error(loc, "expected expression, found " + t.str());
      advance();
      return make_int(0, loc);
  }
}

// ---------------------------------------------------------------------------

SourceFile parse_source(std::string_view source, DiagnosticEngine& diags) {
  Lexer lexer(source, diags);
  Parser parser(lexer.tokenize(), diags);
  auto file = parser.parse_file();
  assign_stmt_ids(file);
  return file;
}

SourceFile parse_source(std::string_view source) {
  DiagnosticEngine diags;
  auto file = parse_source(source, diags);
  throw_if_errors(diags, "parse");
  return file;
}

}  // namespace autocfd::fortran
