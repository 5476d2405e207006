#include "autocfd/sync/inlined.hpp"

#include <algorithm>

namespace autocfd::sync {

using fortran::Stmt;
using fortran::StmtKind;

namespace {

struct Builder {
  const fortran::SourceFile* file;
  const depend::ProgramTrace* trace;
  const partition::PartitionSpec* spec;
  DiagnosticEngine* diags;
  std::vector<const Stmt*> call_path;
  std::set<std::string> visiting;

  /// The trace site of the field loop rooted at `stmt`, or null if the
  /// statement is not a field-loop root. Halo needs and reductions are
  /// identical for every occurrence, so the first one serves.
  const depend::TraceSite* site_of(const Stmt& stmt) const {
    for (const auto& site : trace->sites()) {
      if (site.loop->loop == &stmt) return &site;
    }
    return nullptr;
  }

  /// Arrays the field loop reads with a halo under the active partition.
  std::set<std::string> halo_reads_of(const ir::FieldLoop& loop) const {
    std::set<std::string> out;
    for (const auto& [name, info] : loop.arrays) {
      if (!info.referenced()) continue;
      if (depend::halo_for_reads(loop, info, *spec).any()) out.insert(name);
    }
    return out;
  }

  INode make(const fortran::ProgramUnit& unit, const Stmt& stmt) {
    INode node;
    node.stmt = &stmt;
    node.unit = &unit;
    node.call_path = call_path;
    node.has_goto = stmt.kind == StmtKind::Goto;
    node.has_exit =
        stmt.kind == StmtKind::Return || stmt.kind == StmtKind::Stop;
    node.has_collective = stmt.kind == StmtKind::AllReduce ||
                          stmt.kind == StmtKind::Barrier;

    if (stmt.kind == StmtKind::Call) {
      if (const auto* callee = file->find_unit(stmt.callee);
          callee && !visiting.contains(callee->name)) {
        visiting.insert(callee->name);
        call_path.push_back(&stmt);
        node.body = make_list(*callee, callee->body);
        call_path.pop_back();
        visiting.erase(callee->name);
        // Returning at the end of the body skips nothing.
        if (!node.body.empty() &&
            node.body.back().stmt->kind == StmtKind::Return) {
          node.body.back().has_exit = false;
        }
      }
    } else {
      node.body = make_list(unit, stmt.body);
      node.else_body = make_list(unit, stmt.else_body);
    }

    // Subtree summaries.
    for (const auto* child_list : {&node.body, &node.else_body}) {
      for (const auto& c : *child_list) {
        node.halo_reads.insert(c.halo_reads.begin(), c.halo_reads.end());
        node.writes.insert(c.writes.begin(), c.writes.end());
        node.has_goto = node.has_goto || c.has_goto;
        node.has_exit = node.has_exit || c.has_exit;
        node.has_collective = node.has_collective || c.has_collective;
      }
    }
    if (stmt.kind == StmtKind::Assign &&
        stmt.lhs->kind == fortran::ExprKind::ArrayRef) {
      node.writes.insert(stmt.lhs->name);
    }
    if (const auto* site =
            stmt.kind == StmtKind::Do ? site_of(stmt) : nullptr) {
      const auto site_reads = halo_reads_of(*site->loop);
      node.halo_reads.insert(site_reads.begin(), site_reads.end());
      // A true reduction is followed by its AllReduce.
      node.has_collective =
          node.has_collective ||
          std::any_of(site->loop->reductions.begin(),
                      site->loop->reductions.end(),
                      [](const ir::ReductionInfo& red) {
                        return red.kill == nullptr;
                      });
    }
    return node;
  }

  INodeList make_list(const fortran::ProgramUnit& unit,
                      const fortran::StmtList& stmts) {
    INodeList out;
    out.reserve(stmts.size());
    for (const auto& s : stmts) out.push_back(make(unit, *s));
    return out;
  }
};

}  // namespace

InlinedProgram InlinedProgram::build(const fortran::SourceFile& file,
                                     const depend::ProgramTrace& trace,
                                     const partition::PartitionSpec& spec,
                                     DiagnosticEngine& diags) {
  InlinedProgram p;
  const auto* main = file.main_program();
  if (!main) {
    diags.error({}, "source file has no main program");
    return p;
  }
  Builder b{&file, &trace, &spec, &diags, {}, {}};
  b.visiting.insert(main->name);
  *p.body_ = b.make_list(*main, main->body);

  // Indexing pass: slots in document order, block positions, site map.
  struct Indexer {
    InlinedProgram* p;
    int loop_depth = 0;

    void walk(const INodeList& block, const fortran::StmtList* source,
              const fortran::ProgramUnit* unit,
              const std::vector<const fortran::Stmt*>& call_path,
              const INode* owner, bool in_else) {
      p->block_pos_[&block] = Position{&block, 0, owner, in_else};
      auto& slot_ords = p->block_slots_[&block];
      for (std::size_t i = 0; i <= block.size(); ++i) {
        SlotInfo s;
        s.ordinal = static_cast<int>(p->slots_.size());
        s.unit = unit;
        s.source_block = source;
        s.index = static_cast<int>(i);
        s.call_path = call_path;
        s.loop_depth = loop_depth;
        slot_ords.push_back(s.ordinal);
        p->slots_.push_back(std::move(s));

        if (i == block.size()) break;
        const INode& node = block[i];
        p->site_index_[{node.stmt, node.call_path}] = &node;

        if (node.stmt->kind == StmtKind::Call) {
          if (!node.body.empty()) {
            const auto* callee_unit = node.body.front().unit;
            walk(node.body, &callee_unit->body, callee_unit,
                 node.body.front().call_path, &node, false);
          }
        } else {
          const bool is_loop = node.stmt->kind == StmtKind::Do;
          if (is_loop) ++loop_depth;
          if (!node.body.empty() || node.stmt->kind == StmtKind::Do ||
              node.stmt->kind == StmtKind::If) {
            walk(node.body, &node.stmt->body, unit, call_path, &node, false);
          }
          if (!node.else_body.empty() || node.stmt->kind == StmtKind::If) {
            walk(node.else_body, &node.stmt->else_body, unit, call_path,
                 &node, true);
          }
          if (is_loop) --loop_depth;
        }
      }
      // Record indices of nodes in their positions (done after loop so
      // position entries exist for lookups during region building).
    }
  };
  Indexer idx{&p, 0};
  idx.walk(*p.body_, &main->body, main, {}, nullptr, false);
  return p;
}

const INode* InlinedProgram::node_for_site(
    const depend::TraceSite& site) const {
  std::vector<const fortran::Stmt*> call_path;
  for (const auto* s : site.context) {
    if (s->kind == StmtKind::Call) call_path.push_back(s);
  }
  const auto it = site_index_.find({site.loop->loop, call_path});
  return it == site_index_.end() ? nullptr : it->second;
}

InlinedProgram::Position InlinedProgram::position_of(const INode& node) const {
  // Find the block containing the node, then its index.
  for (const auto& [block, pos] : block_pos_) {
    const auto* b = block;
    for (std::size_t i = 0; i < b->size(); ++i) {
      if (&(*b)[i] == &node) {
        Position out = pos;
        out.block = b;
        out.index = static_cast<int>(i);
        return out;
      }
    }
  }
  return {};
}

InlinedProgram::Position InlinedProgram::position_of_block(
    const INodeList& block) const {
  const auto it = block_pos_.find(&block);
  return it == block_pos_.end() ? Position{} : it->second;
}

int InlinedProgram::slot_ordinal(const INodeList& block, int index) const {
  return block_slots_.at(&block).at(static_cast<std::size_t>(index));
}

}  // namespace autocfd::sync
