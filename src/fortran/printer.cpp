#include "autocfd/fortran/printer.hpp"

#include <cmath>
#include <sstream>

namespace autocfd::fortran {

namespace {

int precedence(BinOp op) {
  switch (op) {
    case BinOp::Or: return 1;
    case BinOp::And: return 2;
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne: return 3;
    case BinOp::Add:
    case BinOp::Sub: return 4;
    case BinOp::Mul:
    case BinOp::Div: return 5;
    case BinOp::Pow: return 6;
  }
  return 0;
}

void print_expr_rec(const Expr& e, std::ostringstream& os, int parent_prec);

void print_args(const std::vector<ExprPtr>& args, std::ostringstream& os) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) os << ", ";
    print_expr_rec(*args[i], os, 0);
  }
}

void print_expr_rec(const Expr& e, std::ostringstream& os, int parent_prec) {
  switch (e.kind) {
    case ExprKind::IntLit:
      os << e.int_value;
      return;
    case ExprKind::RealLit: {
      std::ostringstream num;
      num << e.real_value;
      auto s = num.str();
      // Ensure the literal still reads as a real.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      os << s;
      return;
    }
    case ExprKind::StrLit:
      os << '\'' << e.str_value << '\'';
      return;
    case ExprKind::LogicalLit:
      os << (e.bool_value ? ".true." : ".false.");
      return;
    case ExprKind::VarRef:
      os << e.name;
      return;
    case ExprKind::ArrayRef:
    case ExprKind::Intrinsic:
      os << e.name << '(';
      print_args(e.args, os);
      os << ')';
      return;
    case ExprKind::Unary: {
      switch (e.un_op) {
        case UnOp::Neg: os << "-"; break;
        case UnOp::Plus: os << "+"; break;
        case UnOp::Not: os << ".not. "; break;
      }
      os << '(';
      print_expr_rec(*e.args[0], os, 0);
      os << ')';
      return;
    }
    case ExprKind::Binary: {
      const int prec = precedence(e.bin_op);
      const bool need_parens = prec < parent_prec;
      if (need_parens) os << '(';
      print_expr_rec(*e.args[0], os, prec);
      const auto sp = bin_op_spelling(e.bin_op);
      if (sp.front() == '.') {
        os << ' ' << sp << ' ';
      } else {
        os << sp;
      }
      // Right child gets prec+1 so equal-precedence right children are
      // parenthesized (a-(b-c) must not print as a-b-c).
      print_expr_rec(*e.args[1], os, prec + 1);
      if (need_parens) os << ')';
      return;
    }
  }
}

class StmtPrinter {
 public:
  StmtPrinter(const PrintOptions& opts, std::ostringstream& os)
      : opts_(opts), os_(os) {}

  void print(const Stmt& s, int indent) {
    pad(indent, s.label);
    switch (s.kind) {
      case StmtKind::Assign:
        os_ << print_expr(*s.lhs) << " = " << print_expr(*s.rhs) << '\n';
        return;
      case StmtKind::Do:
        os_ << "do " << s.do_var << " = " << print_expr(*s.lo) << ", "
            << print_expr(*s.hi);
        if (s.step) os_ << ", " << print_expr(*s.step);
        os_ << '\n';
        print_list(s.body, indent + 1);
        pad(indent, 0);
        os_ << "end do\n";
        return;
      case StmtKind::If:
        os_ << "if (" << print_expr(*s.cond) << ") then\n";
        print_list(s.body, indent + 1);
        if (!s.else_body.empty()) {
          pad(indent, 0);
          os_ << "else\n";
          print_list(s.else_body, indent + 1);
        }
        pad(indent, 0);
        os_ << "end if\n";
        return;
      case StmtKind::Goto:
        os_ << "goto " << s.goto_target << '\n';
        return;
      case StmtKind::Continue:
        os_ << "continue\n";
        return;
      case StmtKind::Call:
        os_ << "call " << s.callee;
        if (!s.args.empty()) {
          os_ << '(';
          args(s.args);
          os_ << ')';
        }
        os_ << '\n';
        return;
      case StmtKind::Return:
        os_ << "return\n";
        return;
      case StmtKind::Stop:
        os_ << "stop\n";
        return;
      case StmtKind::Read:
        os_ << "read(5,*) ";
        args(s.args);
        os_ << '\n';
        return;
      case StmtKind::Write:
        os_ << "write(6,*) ";
        args(s.args);
        os_ << '\n';
        return;
      case StmtKind::HaloExchange: {
        if (!opts_.extensions_as_mpi_calls) {
          os_ << "!$acfd halo-exchange";
          for (const auto& h : s.halo_arrays) os_ << ' ' << h.array;
          os_ << '\n';
          return;
        }
        os_ << "call acfd_halo_exchange(" << s.halo_arrays.size();
        for (const auto& h : s.halo_arrays) {
          os_ << ", " << h.array;
        }
        os_ << ")  ! aggregated mpi_isend/mpi_recv per neighbor\n";
        return;
      }
      case StmtKind::AllReduce:
        if (!opts_.extensions_as_mpi_calls) {
          os_ << "!$acfd allreduce " << s.reduce_var << '\n';
          return;
        }
        os_ << "call mpi_allreduce(" << s.reduce_var << ", " << s.reduce_var
            << ", 1, mpi_real, mpi_" << (s.callee.empty() ? "max" : s.callee)
            << ", mpi_comm_world, ierr)\n";
        return;
      case StmtKind::PipelineStart:
      case StmtKind::PipelineEnd: {
        const bool start = s.kind == StmtKind::PipelineStart;
        os_ << "call acfd_pipeline_" << (start ? "recv" : "send")
            << "(dim=" << s.pipeline_dim << ", dir=" << s.pipeline_dir;
        for (const auto& h : s.halo_arrays) os_ << ", " << h.array;
        os_ << ")  ! mirror-image sweep " << (start ? "entry" : "exit")
            << '\n';
        return;
      }
      case StmtKind::Barrier:
        os_ << "call mpi_barrier(mpi_comm_world, ierr)\n";
        return;
    }
  }

  void print_list(const StmtList& list, int indent) {
    for (const auto& s : list) print(*s, indent);
  }

 private:
  void pad(int indent, int label) {
    std::string lead;
    if (label != 0) {
      lead = std::to_string(label) + ' ';
    }
    const int width = 6 + indent * opts_.indent_width;
    while (static_cast<int>(lead.size()) < width) lead += ' ';
    os_ << lead;
  }

  void args(const std::vector<ExprPtr>& a) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) os_ << ", ";
      os_ << print_expr(*a[i]);
    }
  }

  const PrintOptions& opts_;
  std::ostringstream& os_;
};

}  // namespace

std::string print_expr(const Expr& expr) {
  std::ostringstream os;
  print_expr_rec(expr, os, 0);
  return os.str();
}

std::string print_stmt(const Stmt& stmt, const PrintOptions& opts,
                       int indent) {
  std::ostringstream os;
  StmtPrinter p(opts, os);
  p.print(stmt, indent);
  return os.str();
}

std::string print_unit(const ProgramUnit& unit, const PrintOptions& opts) {
  std::ostringstream os;
  if (unit.kind == UnitKind::Program) {
    os << "      program " << unit.name << '\n';
  } else {
    os << "      subroutine " << unit.name;
    if (!unit.formal_args.empty()) {
      os << '(';
      for (std::size_t i = 0; i < unit.formal_args.size(); ++i) {
        if (i) os << ", ";
        os << unit.formal_args[i];
      }
      os << ')';
    }
    os << '\n';
  }
  for (const auto& d : unit.decls) {
    os << "      " << type_kind_name(d.type) << ' ' << d.name;
    if (d.is_array()) {
      os << '(';
      for (std::size_t i = 0; i < d.dims.size(); ++i) {
        if (i) os << ", ";
        if (d.dims[i].lower) os << print_expr(*d.dims[i].lower) << ':';
        os << print_expr(*d.dims[i].upper);
      }
      os << ')';
    }
    os << '\n';
  }
  for (const auto& p : unit.params) {
    os << "      parameter (" << p.name << " = " << print_expr(*p.value)
       << ")\n";
  }
  for (const auto& c : unit.commons) {
    os << "      common /" << c.block_name << "/ ";
    for (std::size_t i = 0; i < c.vars.size(); ++i) {
      if (i) os << ", ";
      os << c.vars[i];
    }
    os << '\n';
  }
  StmtPrinter p(opts, os);
  p.print_list(unit.body, 0);
  os << "      end\n";
  return os.str();
}

std::string print_file(const SourceFile& file, const PrintOptions& opts) {
  std::string out;
  for (const auto& u : file.units) {
    out += print_unit(u, opts);
    out += '\n';
  }
  return out;
}

}  // namespace autocfd::fortran
