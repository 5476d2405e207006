// Inlined program view for synchronization placement.
//
// Synchronization regions live in the *executed* program: a loop in a
// subroutine called twice is two distinct opportunities for placing a
// synchronization (paper section 5.3 derives a separate region per call
// site). This module expands calls (the subset forbids recursion) into
// a tree of INodes and enumerates the insertion slots — the gaps
// between statements — in document order. Every slot knows its source
// location (unit + statement list + index) so the restructurer can
// later insert a communication statement there.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "autocfd/depend/dep_pairs.hpp"
#include "autocfd/fortran/ast.hpp"
#include "autocfd/support/diagnostics.hpp"

namespace autocfd::sync {

struct INode;
using INodeList = std::vector<INode>;

/// One statement occurrence in the inlined program.
struct INode {
  const fortran::Stmt* stmt = nullptr;
  const fortran::ProgramUnit* unit = nullptr;  // unit the stmt belongs to
  std::vector<const fortran::Stmt*> call_path;  // calls from main, outermost first

  INodeList body;       // Do body / If then-branch / inlined callee body
  INodeList else_body;  // If else-branch

  /// Status arrays read with a nonzero cut-dimension offset anywhere in
  /// this subtree (computed for the active partition) — the "R-type
  /// loop inside" tests of sections 5.1-5.3.
  std::set<std::string> halo_reads;
  /// Status arrays written anywhere in this subtree.
  std::set<std::string> writes;
  /// Subtree contains a goto (section 5.2 rule 1).
  bool has_goto = false;
  /// Subtree contains a return or stop that can skip what follows it;
  /// the trailing return of a subroutine body does not count.
  bool has_exit = false;
  /// Subtree contains a collective: a field loop with a true reduction
  /// (the restructurer appends its AllReduce) or a barrier.
  bool has_collective = false;
};

/// A slot: a legal insertion gap. `index` is the position within the
/// owning statement list (0..n); the owning block is identified by the
/// path of INodes from the root.
struct SlotInfo {
  int ordinal = 0;  // document order over the inlined program
  const fortran::ProgramUnit* unit = nullptr;
  /// The statement list in the original source to insert into.
  const fortran::StmtList* source_block = nullptr;
  int index = 0;  // insertion index within source_block
  std::vector<const fortran::Stmt*> call_path;
  int loop_depth = 0;  // enclosing Do loops in the inlined view

  [[nodiscard]] int call_depth() const {
    return static_cast<int>(call_path.size());
  }
};

class InlinedProgram {
 public:
  /// Builds the inlined view. `trace` supplies the field-loop sites and
  /// their halo needs under the active partition (halo_reads/writes
  /// subtree summaries are derived from the same analysis).
  static InlinedProgram build(const fortran::SourceFile& file,
                              const depend::ProgramTrace& trace,
                              const partition::PartitionSpec& spec,
                              DiagnosticEngine& diags);

  InlinedProgram() : body_(std::make_unique<INodeList>()) {}

  [[nodiscard]] const INodeList& body() const { return *body_; }
  [[nodiscard]] const std::vector<SlotInfo>& slots() const { return slots_; }
  [[nodiscard]] const SlotInfo& slot(int ordinal) const {
    return slots_.at(static_cast<std::size_t>(ordinal));
  }

  /// INode of a trace site (matches loop stmt + call path); null if the
  /// site is unreachable (should not happen for sites from the trace).
  [[nodiscard]] const INode* node_for_site(const depend::TraceSite& site) const;

  /// The block (INode list) directly containing `node`, plus the index
  /// of the node within it and the INode owning the block (null at the
  /// top level). Used by the region builder to hoist and walk.
  struct Position {
    const INodeList* block = nullptr;
    int index = 0;
    const INode* owner = nullptr;        // Do/If/Call INode owning block
    bool in_else_branch = false;         // block == owner->else_body
  };
  [[nodiscard]] Position position_of(const INode& node) const;
  [[nodiscard]] Position position_of_block(const INodeList& block) const;

  /// Ordinal of the slot at (block, index).
  [[nodiscard]] int slot_ordinal(const INodeList& block, int index) const;

 private:
  // Heap-allocated so the root block's address — used as a key in the
  // position maps below — survives moves of the InlinedProgram.
  std::unique_ptr<INodeList> body_;
  std::vector<SlotInfo> slots_;
  std::map<const INodeList*, std::vector<int>> block_slots_;
  std::map<const INodeList*, Position> block_pos_;
  std::map<std::pair<const fortran::Stmt*, std::vector<const fortran::Stmt*>>,
           const INode*>
      site_index_;
};

}  // namespace autocfd::sync
