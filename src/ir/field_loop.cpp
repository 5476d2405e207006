#include "autocfd/ir/field_loop.hpp"

#include <algorithm>

namespace autocfd::ir {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;

bool FieldConfig::is_status(std::string_view array) const {
  return std::find(status_arrays.begin(), status_arrays.end(), array) !=
         status_arrays.end();
}

int FieldConfig::status_dims(int array_rank) const {
  return std::min(array_rank, grid_rank);
}

std::string_view loop_type_name(LoopType t) {
  switch (t) {
    case LoopType::A: return "A";
    case LoopType::R: return "R";
    case LoopType::C: return "C";
    case LoopType::O: return "O";
  }
  return "?";
}

LoopType FieldLoop::type_for(std::string_view array) const {
  const auto it = arrays.find(std::string(array));
  if (it == arrays.end()) return LoopType::O;
  const auto& info = it->second;
  if (info.assigned() && info.referenced()) return LoopType::C;
  if (info.assigned()) return LoopType::A;
  if (info.referenced()) return LoopType::R;
  return LoopType::O;
}

std::vector<int> FieldLoop::scanned_dims() const {
  std::vector<int> dims;
  for (const auto& [var, dim] : var_dims) dims.push_back(dim);
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

int FieldLoop::dir_of_dim(int dim) const {
  for (const auto& [var, d] : var_dims) {
    if (d == dim) {
      const auto it = var_dirs.find(var);
      return it == var_dirs.end() ? +1 : it->second;
    }
  }
  return 0;
}

SubscriptPattern classify_subscript(
    const Expr& sub, const std::map<std::string, int>& loop_vars) {
  SubscriptPattern p;
  switch (sub.kind) {
    case ExprKind::IntLit:
      p.kind = SubscriptPattern::Kind::Invariant;
      p.const_value = sub.int_value;
      return p;
    case ExprKind::VarRef:
      if (loop_vars.contains(sub.name)) {
        p.kind = SubscriptPattern::Kind::LoopIndex;
        p.loop_var = sub.name;
        p.offset = 0;
      } else {
        p.kind = SubscriptPattern::Kind::Invariant;
      }
      return p;
    case ExprKind::Binary: {
      if (sub.bin_op != fortran::BinOp::Add &&
          sub.bin_op != fortran::BinOp::Sub) {
        break;
      }
      const Expr& a = *sub.args[0];
      const Expr& b = *sub.args[1];
      // var +/- const
      if (a.kind == ExprKind::VarRef && loop_vars.contains(a.name) &&
          b.kind == ExprKind::IntLit) {
        p.kind = SubscriptPattern::Kind::LoopIndex;
        p.loop_var = a.name;
        p.offset = sub.bin_op == fortran::BinOp::Add ? b.int_value
                                                     : -b.int_value;
        return p;
      }
      // const + var
      if (sub.bin_op == fortran::BinOp::Add && a.kind == ExprKind::IntLit &&
          b.kind == ExprKind::VarRef && loop_vars.contains(b.name)) {
        p.kind = SubscriptPattern::Kind::LoopIndex;
        p.loop_var = b.name;
        p.offset = a.int_value;
        return p;
      }
      break;
    }
    default:
      break;
  }
  // Loop-invariant if no enclosing loop variable occurs inside.
  bool uses_loop_var = false;
  fortran::for_each_expr(sub, [&](const Expr& e) {
    if (e.kind == ExprKind::VarRef && loop_vars.contains(e.name)) {
      uses_loop_var = true;
    }
  });
  p.kind = uses_loop_var ? SubscriptPattern::Kind::Complex
                         : SubscriptPattern::Kind::Invariant;
  return p;
}

namespace {

/// Collects loop variables (with directions) of a Do nest rooted at
/// `loop`, descending through Do and If structure alike.
void collect_loop_vars(const Stmt& loop, std::map<std::string, int>& vars,
                       std::map<std::string, int>& dirs) {
  if (loop.kind == StmtKind::Do) {
    // Direction from the sign of a constant step (default +1).
    int dir = +1;
    if (loop.step) {
      const Expr& st = *loop.step;
      if (st.kind == ExprKind::IntLit && st.int_value < 0) dir = -1;
      if (st.kind == ExprKind::Unary && st.un_op == fortran::UnOp::Neg) {
        dir = -1;
      }
    }
    vars.emplace(loop.do_var, -1);  // dimension resolved later
    dirs.emplace(loop.do_var, dir);
  }
  for (const auto& s : loop.body) collect_loop_vars(*s, vars, dirs);
  for (const auto& s : loop.else_body) collect_loop_vars(*s, vars, dirs);
}

struct Collector {
  const FieldConfig* config;
  std::map<std::string, int>* loop_vars;  // var -> dim (being resolved)
  FieldLoop* out;
  DiagnosticEngine* diags;

  void record_access(const Stmt& stmt, const Expr& ref, bool is_write) {
    ArrayAccess acc;
    acc.stmt = &stmt;
    acc.is_write = is_write;
    const int n_status =
        config->status_dims(static_cast<int>(ref.args.size()));
    for (std::size_t d = 0; d < ref.args.size(); ++d) {
      auto p = classify_subscript(*ref.args[d], *loop_vars);
      if (p.kind == SubscriptPattern::Kind::LoopIndex &&
          static_cast<int>(d) < n_status) {
        // Bind the loop variable to this grid dimension.
        auto& dim = (*loop_vars)[p.loop_var];
        if (dim == -1) {
          dim = static_cast<int>(d);
        } else if (dim != static_cast<int>(d)) {
          // The same variable scans two different dimensions (e.g. a
          // diagonal access v(i,i)); treat the subscript as complex.
          p.kind = SubscriptPattern::Kind::Complex;
        }
      }
      acc.subs.push_back(std::move(p));
    }
    auto& info = out->arrays[ref.name];
    info.name = ref.name;
    (is_write ? info.writes : info.reads).push_back(std::move(acc));
  }

  void visit_expr(const Stmt& stmt, const Expr& e, bool is_write_root) {
    if (e.kind == ExprKind::ArrayRef && config->is_status(e.name)) {
      record_access(stmt, e, is_write_root);
      // Subscripts themselves may contain reads of status arrays
      // (indirect indexing); record them as reads.
      for (const auto& a : e.args) visit_expr(stmt, *a, false);
      return;
    }
    for (const auto& a : e.args) {
      if (a) visit_expr(stmt, *a, false);
    }
  }

  void add_reduction(const std::string& var, const std::string& op,
                     const Stmt& stmt) {
    ReductionInfo red;
    red.var = var;
    red.op = op;
    red.stmt = &stmt;
    out->reductions.push_back(std::move(red));
  }

  void detect_reduction(const Stmt& stmt) {
    // s = max(s, ...) / s = min(s, ...) / s = s + ...
    if (stmt.lhs->kind != ExprKind::VarRef) return;
    const std::string& var = stmt.lhs->name;
    const Expr& rhs = *stmt.rhs;
    if (rhs.kind == ExprKind::Intrinsic &&
        (rhs.name == "max" || rhs.name == "min" || rhs.name == "amax1" ||
         rhs.name == "amin1") &&
        !rhs.args.empty() && rhs.args[0]->kind == ExprKind::VarRef &&
        rhs.args[0]->name == var) {
      const std::string op =
          (rhs.name == "max" || rhs.name == "amax1") ? "max" : "min";
      add_reduction(var, op, stmt);
      return;
    }
    if (rhs.kind == ExprKind::Binary && rhs.bin_op == fortran::BinOp::Add &&
        rhs.args[0]->kind == ExprKind::VarRef && rhs.args[0]->name == var) {
      add_reduction(var, "sum", stmt);
    }
  }

  void visit_stmts(const fortran::StmtList& stmts) {
    for (const auto& s : stmts) {
      switch (s->kind) {
        case StmtKind::Assign:
          visit_expr(*s, *s->lhs, true);
          visit_expr(*s, *s->rhs, false);
          detect_reduction(*s);
          break;
        case StmtKind::Do:
          if (s->lo) visit_expr(*s, *s->lo, false);
          if (s->hi) visit_expr(*s, *s->hi, false);
          break;
        case StmtKind::If:
          visit_expr(*s, *s->cond, false);
          break;
        default:
          for (const auto& a : s->args) {
            if (a) visit_expr(*s, *a, false);
          }
          break;
      }
      visit_stmts(s->body);
      visit_stmts(s->else_body);
    }
  }
};

/// True if the loop variable of `node` indexes a status dimension of a
/// status array somewhere under it.
bool scans_field(const LoopTree::Node& node, const FieldLoop& fl) {
  const auto it = fl.var_dims.find(node.loop->do_var);
  return it != fl.var_dims.end() && it->second >= 0;
}

/// Why type_for() answered the way it did, for the provenance log.
std::string classification_rationale(LoopType t, const ArrayInfo& info) {
  switch (t) {
    case LoopType::C:
      return "assigned (" + std::to_string(info.writes.size()) +
             "x) and referenced (" + std::to_string(info.reads.size()) +
             "x) in the nest";
    case LoopType::A:
      return "assigned (" + std::to_string(info.writes.size()) +
             "x), never referenced";
    case LoopType::R:
      return "referenced (" + std::to_string(info.reads.size()) +
             "x), never assigned";
    case LoopType::O:
      return "neither assigned nor referenced";
  }
  return "";
}

void record_classifications(const FieldLoop& fl, obs::ProvenanceLog& prov) {
  for (const auto& [name, info] : fl.arrays) {
    const LoopType t = fl.type_for(name);
    prov.add(obs::DecisionKind::LoopClassification, fl.loop->loc,
             "loop@" + std::to_string(fl.loop->loc.line) + " array '" + name +
                 "'",
             std::string(loop_type_name(t)),
             classification_rationale(t, info));
  }
}

// ---- scalar privatization ---------------------------------------------------

/// True if `s` itself (not its child statements) may read `var`. A call
/// may read a COMMON variable without naming it.
bool reads_scalar(const Stmt& s, const std::string& var, bool in_common) {
  if (s.kind == StmtKind::Call && in_common) return true;
  bool found = false;
  const auto visit = [&](const Expr& e) {
    if (e.kind == ExprKind::VarRef && e.name == var) found = true;
  };
  if (s.kind == StmtKind::Assign) {
    // The target is written, not read; only its subscripts are read.
    fortran::for_each_expr(*s.rhs, visit);
    for (const auto& a : s.lhs->args) fortran::for_each_expr(*a, visit);
  } else {
    fortran::for_each_expr(s, visit);
  }
  return found;
}

bool writes_scalar(const Stmt& s, const std::string& var) {
  return s.kind == StmtKind::Assign && s.lhs->kind == ExprKind::VarRef &&
         s.lhs->name == var;
}

/// Position of a statement: the (list, index) of it and of every
/// statement enclosing it, outermost first.
struct Frame {
  const fortran::StmtList* list;
  std::size_t index;
};
using Path = std::vector<Frame>;

const Stmt& stmt_at(const Frame& f) { return *(*f.list)[f.index]; }

bool find_path(const fortran::StmtList& list, const Stmt* target, Path& path) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    path.push_back({&list, i});
    const Stmt& s = *list[i];
    if (&s == target || find_path(s.body, target, path) ||
        find_path(s.else_body, target, path)) {
      return true;
    }
    path.pop_back();
  }
  return false;
}

/// The reads and unconditional kills of one scalar inside a nest.
struct KillSearch {
  const std::string& var;
  bool in_common;
  std::vector<Path> reads;
  std::vector<Path> kills;  // document order
  bool has_goto = false;

  void walk(const fortran::StmtList& list, Path& path, bool under_if) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Stmt& s = *list[i];
      path.push_back({&list, i});
      if (s.kind == StmtKind::Goto) has_goto = true;
      if (reads_scalar(s, var, in_common)) {
        reads.push_back(path);
      } else if (!under_if && writes_scalar(s, var)) {
        kills.push_back(path);
      }
      const bool branch = under_if || s.kind == StmtKind::If;
      walk(s.body, path, branch);
      walk(s.else_body, path, branch);
      path.pop_back();
    }
  }

  /// The first kill that every read follows in the same iteration:
  /// the read sits later in the kill's own list, or inside a later
  /// statement of it.
  const Path* dominating_kill() const {
    if (has_goto) return nullptr;  // a jump could bypass the kill
    for (const auto& kill : kills) {
      const Frame& k = kill.back();
      const bool all_after =
          std::all_of(reads.begin(), reads.end(), [&](const Path& read) {
            for (const auto& f : read) {
              if (f.list == k.list) return f.index > k.index;
            }
            return false;
          });
      if (all_after) return &kill;
    }
    return nullptr;
  }
};

/// Forward scan for an upward-exposed read of a local scalar.
struct LiveScan {
  enum class Flow { Read, Dead, Open };
  const std::string& var;
  bool exits = false;  // some path left the unit through a return

  Flow scan(const fortran::StmtList& list, std::size_t from) {
    for (std::size_t i = from; i < list.size(); ++i) {
      const Stmt& s = *list[i];
      if (reads_scalar(s, var, false)) return Flow::Read;
      switch (s.kind) {
        case StmtKind::Assign:
          if (writes_scalar(s, var)) return Flow::Dead;
          break;
        case StmtKind::Goto:
          return Flow::Read;  // conservatively: the target may read it
        case StmtKind::Return:
          exits = true;
          return Flow::Dead;
        case StmtKind::Stop:
          return Flow::Dead;
        case StmtKind::Do:
          // The body may run zero times: it can expose a read but
          // never kills.
          if (scan(s.body, 0) == Flow::Read) return Flow::Read;
          break;
        case StmtKind::If: {
          const Flow then_flow = scan(s.body, 0);
          const Flow else_flow = scan(s.else_body, 0);
          if (then_flow == Flow::Read || else_flow == Flow::Read) {
            return Flow::Read;
          }
          if (then_flow == Flow::Dead && else_flow == Flow::Dead) {
            return Flow::Dead;
          }
          break;
        }
        default:
          break;
      }
    }
    return Flow::Open;
  }
};

/// True if `var` may be read after the nest `loop` of `unit` finishes.
bool live_after_nest(const fortran::ProgramUnit& unit, const Stmt& loop,
                     const std::string& var) {
  if (unit.in_common(var) ||
      std::find(unit.formal_args.begin(), unit.formal_args.end(), var) !=
          unit.formal_args.end()) {
    return true;
  }
  Path path;
  if (!find_path(unit.body, &loop, path)) return true;
  LiveScan live{var};
  using Flow = LiveScan::Flow;
  bool dead = false;
  for (std::size_t k = path.size(); k-- > 0 && !dead;) {
    const Flow rest = live.scan(*path[k].list, path[k].index + 1);
    if (rest == Flow::Read) return true;
    dead = rest == Flow::Dead;
    // The back edge of an enclosing (non-field) loop, e.g. the frame
    // loop: the next iteration runs its body from the top.
    if (!dead && k > 0 && stmt_at(path[k - 1]).kind == StmtKind::Do &&
        live.scan(stmt_at(path[k - 1]).body, 0) == Flow::Read) {
      return true;
    }
  }
  // Locals keep their storage between calls, so leaving the unit
  // continues at its entry on the next call.
  if (!dead) live.exits = true;
  return live.exits && live.scan(unit.body, 0) == Flow::Read;
}

/// Marks each reduction-shaped scalar of `fl` private (with its kill,
/// partial loops and liveness) or leaves it a true reduction.
void classify_scalars(FieldLoop& fl, obs::ProvenanceLog* prov) {
  const auto& unit = *fl.unit;
  std::vector<std::string> done;
  for (const auto& red : fl.reductions) {
    if (std::find(done.begin(), done.end(), red.var) != done.end()) continue;
    done.push_back(red.var);
    const std::string& var = red.var;

    KillSearch search{var, unit.in_common(var), {}, {}};
    Path path;
    search.walk(fl.loop->body, path, false);
    // A read in the root's own bounds precedes every iteration.
    const Path* kill = reads_scalar(*fl.loop, var, search.in_common)
                           ? nullptr
                           : search.dominating_kill();
    const bool live = kill != nullptr && live_after_nest(unit, *fl.loop, var);
    if (kill != nullptr) {
      for (auto& r : fl.reductions) {
        if (r.var != var) continue;
        r.kill = &stmt_at(kill->back());
        r.live_after = live;
        for (const auto& read : search.reads) {
          if (&stmt_at(read.back()) != r.stmt) continue;
          bool inside = false;
          for (std::size_t k = 0; k + 1 < read.size(); ++k) {
            inside = inside || read[k].list == kill->back().list;
            if (inside && stmt_at(read[k]).kind == StmtKind::Do) {
              r.partial_loops.push_back(&stmt_at(read[k]));
            }
          }
        }
      }
    }
    if (prov != nullptr) {
      prov->add(obs::DecisionKind::ScalarClassification, fl.loop->loc,
                "loop@" + std::to_string(fl.loop->loc.line) + " scalar '" +
                    var + "'",
                kill != nullptr ? "private" : "reduction",
                kill == nullptr
                    ? "not killed in the nest"
                    : "killed at line " +
                          std::to_string(stmt_at(kill->back()).loc.line) +
                          (live ? ", live after the nest"
                                : ", dead after the nest"));
    }
  }
}

}  // namespace

std::vector<FieldLoop> analyze_field_loops(const fortran::ProgramUnit& unit,
                                           const FieldConfig& config,
                                           DiagnosticEngine& diags,
                                           obs::ProvenanceLog* prov) {
  std::vector<FieldLoop> out;
  const LoopTree tree = LoopTree::build(unit);

  // Analyze every loop node tentatively; then keep maximal nests.
  std::map<const LoopTree::Node*, FieldLoop> analyzed;
  for (const auto* node : tree.all_nodes()) {
    FieldLoop fl;
    fl.loop = node->loop;
    fl.unit = &unit;
    std::map<std::string, int> vars, dirs;
    collect_loop_vars(*node->loop, vars, dirs);
    fl.var_dims = std::move(vars);
    fl.var_dirs = std::move(dirs);

    Collector c{&config, &fl.var_dims, &fl, &diags};
    c.visit_stmts(node->loop->body);
    // Also classify subscripts in the loop header of the root itself.
    analyzed.emplace(node, std::move(fl));
  }

  // A field-loop root is a loop that scans the field while no ancestor
  // does (the frame/iteration loop above it does not index the grid).
  // Decide for every node before any FieldLoop is moved out of the map.
  std::map<const LoopTree::Node*, bool> scans;
  for (const auto* node : tree.all_nodes()) {
    scans[node] = scans_field(*node, analyzed.at(node));
  }
  for (const auto* node : tree.all_nodes()) {
    auto& fl = analyzed.at(node);
    if (!scans.at(node)) continue;
    bool ancestor_scans = false;
    for (const auto* anc : LoopTree::ancestors(*node)) {
      if (scans.at(anc)) {
        ancestor_scans = true;
        break;
      }
    }
    if (ancestor_scans) continue;
    // Drop variables that never got a dimension.
    for (auto it = fl.var_dims.begin(); it != fl.var_dims.end();) {
      if (it->second < 0) {
        it = fl.var_dims.erase(it);
      } else {
        ++it;
      }
    }
    out.push_back(std::move(fl));
  }

  // Document order.
  std::sort(out.begin(), out.end(),
            [](const FieldLoop& a, const FieldLoop& b) {
              return a.loop->id < b.loop->id;
            });
  for (auto& fl : out) {
    if (prov != nullptr) record_classifications(fl, *prov);
    classify_scalars(fl, prov);
  }
  return out;
}

}  // namespace autocfd::ir
