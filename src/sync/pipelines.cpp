// Combining pipeline hand-offs (paper section 5 applied to the flow
// halves of mirror-image sweeps).
//
// A pipelined sweep receives its upstream boundary before it runs
// (PipelineStart) and sends its own downstream after it (PipelineEnd).
// Like a halo synchronization point, each may move within an
// upper-bound region: the start hoists backwards and the end sinks
// forwards across statements that leave the sweep's array alone. Sweeps
// along the same (dim, dir) list whose regions overlap then share one
// hand-off per line that carries every member array.
#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "autocfd/sync/sync_plan.hpp"

namespace autocfd::sync {

using fortran::StmtKind;

namespace {

/// Whether any statement of the subtree names one of `arrays`, read or
/// written (a call's actual arguments included).
bool touches(const INode& n, const std::set<std::string>& arrays) {
  bool hit = false;
  fortran::for_each_expr(*n.stmt, [&](const fortran::Expr& e) {
    hit = hit || ((e.kind == fortran::ExprKind::VarRef ||
                   e.kind == fortran::ExprKind::ArrayRef) &&
                  arrays.contains(e.name));
  });
  if (hit) return true;
  for (const auto* list : {&n.body, &n.else_body}) {
    for (const auto& c : *list) {
      if (touches(c, arrays)) return true;
    }
  }
  return false;
}

/// One pipelined loop statement.
struct Member {
  /// SyncPlan::pipelines indices: one per self-dependent array and per
  /// call site that reaches the loop.
  std::vector<int> plans;
  const depend::TraceSite* site = nullptr;  // first site
  InlinedProgram::Position pos;             // of the first site
  std::set<std::string> arrays;
  std::vector<std::pair<int, int>> dims;  // sorted union over the plans
  bool has_collective = false;
  /// The loop's subroutine is reached from several call sites: its
  /// hand-off stays around the loop, executed once per call.
  bool pinned = false;
};

struct Extent {
  std::vector<int> starts;  // legal PipelineStart slots, sorted
  std::vector<int> ends;    // legal PipelineEnd slots, sorted
  [[nodiscard]] bool valid() const {
    return !starts.empty() && !ends.empty();
  }
};

class Combiner {
 public:
  Combiner(const InlinedProgram& prog,
           const std::vector<PipelinePlan>& pipelines,
           const std::vector<CombinedSync>& points)
      : prog_(prog) {
    for (const auto& p : points) halo_slots_.insert(p.chosen_slot);
    std::map<const fortran::Stmt*, int> by_loop;
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
      const auto& pp = pipelines[i];
      const INode* node = prog.node_for_site(*pp.site);
      if (node == nullptr) continue;
      const auto pos = prog.position_of(*node);
      const auto [it, fresh] = by_loop.try_emplace(
          pp.site->loop->loop, static_cast<int>(members_.size()));
      if (fresh) {
        Member m;
        m.site = pp.site;
        m.pos = pos;
        m.has_collective = node->has_collective;
        members_.push_back(std::move(m));
      }
      auto& m = members_[static_cast<std::size_t>(it->second)];
      m.plans.push_back(static_cast<int>(i));
      m.arrays.insert(pp.plan.array);
      for (const auto& d : pp.plan.pipeline_dims) {
        if (std::find(m.dims.begin(), m.dims.end(), d) == m.dims.end()) {
          m.dims.push_back(d);
        }
      }
      std::sort(m.dims.begin(), m.dims.end());
      m.pinned = m.pinned || pp.site != m.site;
      sites_.emplace_back(prog.slot_ordinal(*pos.block, pos.index),
                          it->second);
    }
    order_.resize(members_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(),
              [&](int a, int b) { return before(a) < before(b); });
  }

  [[nodiscard]] const std::vector<int>& order() const { return order_; }
  [[nodiscard]] const Member& member(int m) const {
    return members_[static_cast<std::size_t>(m)];
  }

  /// Members `a` and `b` may only share a hand-off when they pipeline
  /// along the same (dim, dir) list and neither is pinned.
  [[nodiscard]] bool compatible(int a, int b) const {
    const auto& ma = member(a);
    const auto& mb = member(b);
    return !ma.pinned && !mb.pinned && ma.dims == mb.dims;
  }

  /// Slots where one hand-off can serve every member of `group`.
  [[nodiscard]] Extent extent(const std::vector<int>& group) const {
    Extent out;
    for (std::size_t i = 0; i < group.size(); ++i) {
      auto starts = hoist(group[i], group);
      auto ends = sink(group[i], group);
      out.starts =
          i == 0 ? std::move(starts) : intersect_slots(out.starts, starts);
      out.ends = i == 0 ? std::move(ends) : intersect_slots(out.ends, ends);
    }
    return out;
  }

 private:
  [[nodiscard]] int before(int m) const {
    const auto& pos = member(m).pos;
    return prog_.slot_ordinal(*pos.block, pos.index);
  }

  /// Whether a hand-off of member `m` may move across block[index]
  /// while the members of `group` share it.
  [[nodiscard]] bool crossable(const INodeList& block, int index, int m,
                               const std::vector<int>& group) const {
    const INode& n = block[static_cast<std::size_t>(index)];
    if (n.has_goto || n.has_exit || n.has_collective) return false;
    const int lo = prog_.slot_ordinal(block, index);
    const int hi = prog_.slot_ordinal(block, index + 1);
    // The node's own subtree holds exactly the slots between the two
    // around it: no halo point and no foreign pipeline may lie there.
    if (const auto it = halo_slots_.upper_bound(lo);
        it != halo_slots_.end() && *it < hi) {
      return false;
    }
    for (const auto& [slot, owner] : sites_) {
      if (slot >= lo && slot < hi &&
          std::find(group.begin(), group.end(), owner) == group.end()) {
        return false;
      }
    }
    return !touches(n, member(m).arrays);
  }

  /// PipelineStart slots of member `m`, walking backwards from the loop.
  /// A start runs after the halo exchange at its slot, so it stops
  /// there; at the top of a subroutine body it moves to the call site.
  [[nodiscard]] std::vector<int> hoist(int m,
                                       const std::vector<int>& group) const {
    const auto& mem = member(m);
    const INodeList* block = mem.pos.block;
    int index = mem.pos.index;
    std::vector<int> out;
    while (true) {
      const int s = prog_.slot_ordinal(*block, index);
      out.push_back(s);
      if (mem.pinned || halo_slots_.contains(s)) break;
      if (index == 0) {
        const auto owner = prog_.position_of_block(*block).owner;
        if (owner == nullptr || owner->stmt->kind != StmtKind::Call) break;
        const auto pos = prog_.position_of(*owner);
        block = pos.block;
        index = pos.index;
        continue;
      }
      if (!crossable(*block, index - 1, m, group)) break;
      --index;
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// PipelineEnd slots of member `m`, walking forwards from the loop.
  /// An end runs before the halo exchange at its slot, so it stops
  /// there; at the bottom of a subroutine body it moves past the call.
  /// A loop with a true reduction keeps its end right after it, ahead
  /// of the AllReduce the restructurer appends.
  [[nodiscard]] std::vector<int> sink(int m,
                                      const std::vector<int>& group) const {
    const auto& mem = member(m);
    const INodeList* block = mem.pos.block;
    int index = mem.pos.index + 1;
    std::vector<int> out;
    while (true) {
      const int s = prog_.slot_ordinal(*block, index);
      out.push_back(s);
      if (mem.pinned || mem.has_collective || halo_slots_.contains(s)) {
        break;
      }
      if (index == static_cast<int>(block->size())) {
        const auto owner = prog_.position_of_block(*block).owner;
        if (owner == nullptr || owner->stmt->kind != StmtKind::Call) break;
        const auto pos = prog_.position_of(*owner);
        block = pos.block;
        index = pos.index + 1;
        continue;
      }
      if (!crossable(*block, index, m, group)) break;
      ++index;
    }
    return out;
  }

  const InlinedProgram& prog_;
  std::set<int> halo_slots_;
  std::vector<Member> members_;
  std::vector<int> order_;  // member indices in document order
  /// (slot before the loop, member) for every pipelined site.
  std::vector<std::pair<int, int>> sites_;
};

std::string dims_label(const std::vector<std::pair<int, int>>& dims) {
  std::string out;
  for (const auto& [dim, dir] : dims) {
    if (!out.empty()) out += ",";
    out += "dim" + std::to_string(dim) + (dir > 0 ? "+" : "-");
  }
  return out;
}

}  // namespace

std::vector<PipelineGroup> combine_pipelines(
    const InlinedProgram& prog, const std::vector<PipelinePlan>& pipelines,
    const std::vector<CombinedSync>& points, CombineStrategy strategy,
    obs::ProvenanceLog* prov, CombineStats* stats) {
  const Combiner c(prog, pipelines, points);
  std::vector<PipelineGroup> out;

  // Emits one group; `refused` is the next sweep it could not absorb
  // (-1 when there was none to try), for the explain log.
  const auto finalize = [&](const std::vector<int>& group,
                            const Extent& ext, int refused) {
    PipelineGroup g;
    for (const int m : group) {
      const auto& plans = c.member(m).plans;
      g.members.insert(g.members.end(), plans.begin(), plans.end());
    }
    const auto& first = c.member(group.front());
    g.dims = first.dims;
    g.start_slot = choose_slot(prog, ext.starts, /*latest=*/true);
    g.end_slot = choose_slot(prog, ext.ends, /*latest=*/false);
    if (stats != nullptr) ++stats->groups;
    if (prov != nullptr) {
      std::set<std::string> arrays;
      for (const int m : group) {
        arrays.insert(c.member(m).arrays.begin(), c.member(m).arrays.end());
      }
      std::string names;
      for (const auto& a : arrays) names += (names.empty() ? "" : ",") + a;
      std::string why;
      if (group.size() > 1) {
        why = "no statement between the sweeps touches a member array, "
              "and no halo exchange, collective, exit or other pipeline "
              "lies between them";
      } else if (first.pinned) {
        why = "the loop's subroutine is reached from several call sites, "
              "so its hand-off stays around the loop";
      } else if (strategy == CombineStrategy::None) {
        why = "strategy none keeps one hand-off per sweep";
      } else if (refused >= 0) {
        why = "the next sweep along " + dims_label(g.dims) + " (line " +
              std::to_string(
                  c.member(refused).site->loop->loop->loc.line) +
              ") cannot share it: communication, an exit, or a statement "
              "touching a member array lies between them";
      } else {
        why = "no neighbouring sweep along " + dims_label(g.dims);
      }
      prov->add(obs::DecisionKind::PipelineMerge,
                first.site->loop->loop->loc,
                "pipeline " + dims_label(g.dims) + " {" + names + "}",
                (group.size() > 1
                     ? "merged " + std::to_string(group.size()) + " sweeps"
                     : std::string("single sweep")) +
                    ": start at slot " + std::to_string(g.start_slot) +
                    ", end at slot " + std::to_string(g.end_slot),
                why, g.members);
    }
    out.push_back(std::move(g));
  };

  const auto& order = c.order();
  std::size_t i = 0;
  while (i < order.size()) {
    std::vector<int> group = {order[i]};
    Extent ext = c.extent(group);
    int refused = -1;
    // Min grows the group while the next sweep fits; Pairwise takes at
    // most one partner; None takes none.
    const std::size_t cap = strategy == CombineStrategy::Min ? order.size()
                            : strategy == CombineStrategy::Pairwise ? 2
                                                                    : 1;
    while (group.size() < cap && i + group.size() < order.size()) {
      const int next = order[i + group.size()];
      if (!c.compatible(group.front(), next)) break;
      if (stats != nullptr) ++stats->intersections_evaluated;
      auto wider = group;
      wider.push_back(next);
      auto wider_ext = c.extent(wider);
      if (!wider_ext.valid()) {
        refused = next;
        break;
      }
      if (stats != nullptr) ++stats->merges;
      group = std::move(wider);
      ext = std::move(wider_ext);
    }
    i += group.size();
    finalize(group, ext, refused);
  }
  return out;
}

}  // namespace autocfd::sync
