#include "autocfd/codegen/comm_schedule.hpp"

namespace autocfd::codegen {

using fortran::HaloSpec;
using partition::BlockPartition;
using partition::HaloWidths;
using partition::SubGrid;

GhostWidths ghost_widths(int grid_rank,
                         const std::vector<std::string>& status_arrays,
                         const depend::DependenceSet& deps,
                         const sync::SyncPlan& plan) {
  GhostWidths ghosts;
  for (const auto& a : status_arrays) {
    ghosts[a] = HaloWidths::uniform(grid_rank, 0);
  }
  const auto add = [&](const std::string& array, const HaloWidths& h) {
    auto it = ghosts.find(array);
    if (it == ghosts.end()) return;
    it->second = HaloWidths::merge(it->second, h);
  };
  for (const auto& p : deps.pairs) add(p.array, p.halo);
  for (const auto& r : plan.regions) add(r.pair->array, r.pair->halo);
  for (const auto& pp : plan.pipelines) {
    add(pp.plan.array, pp.plan.flow_halo);
    add(pp.plan.array, pp.plan.pre_halo);
  }
  return ghosts;
}

namespace {

/// The message to or from the neighbor `peer` on side `dir` of `dim`. A
/// send carries the owned layers the peer reads, a receive fills our
/// ghost layers on that side: layers read from the low neighbor are the
/// lo widths, so they go up and come from below.
Message message(const std::vector<HaloSpec>& halos, const SubGrid& sg,
                const GhostWidths& ghosts, int dim, int dir, int peer,
                bool send) {
  const auto du = static_cast<std::size_t>(dim);
  Message m;
  m.peer = peer;
  for (std::size_t a = 0; a < halos.size(); ++a) {
    const int w = (dir > 0) == send ? halos[a].lo_width[du]
                                    : halos[a].hi_width[du];
    if (w <= 0) continue;
    const long long lo = send ? (dir > 0 ? sg.hi[du] - w + 1 : sg.lo[du])
                              : (dir > 0 ? sg.hi[du] + 1 : sg.lo[du] - w);
    m.slabs.push_back(Slab{a, lo, lo + w - 1});
    // One layer spans the other dimensions' local extents plus ghosts.
    const auto git = ghosts.find(halos[a].array);
    long long layer = 1;
    for (std::size_t d = 0; d < sg.lo.size(); ++d) {
      if (d == du) continue;
      long long extent = sg.extent(static_cast<int>(d));
      if (git != ghosts.end()) extent += git->second.lo[d] + git->second.hi[d];
      layer *= extent;
    }
    m.elements += w * layer;
  }
  return m;
}

}  // namespace

RankMessages halo_messages(const std::vector<HaloSpec>& halos,
                           const BlockPartition& part,
                           const GhostWidths& ghosts, int rank, int dim) {
  RankMessages out;
  for (const bool send : {true, false}) {
    for (const int dir : {-1, +1}) {
      const auto peer = part.neighbor(rank, dim, dir);
      if (!peer) continue;
      auto m = message(halos, part.subgrid(rank), ghosts, dim, dir, *peer,
                       send);
      if (!m.slabs.empty()) (send ? out.sends : out.recvs).push_back(m);
    }
  }
  return out;
}

RankMessages handoff_messages(const std::vector<HaloSpec>& flows,
                              const BlockPartition& part,
                              const GhostWidths& ghosts, int rank, int dim,
                              int dir) {
  const auto& sg = part.subgrid(rank);
  long long lines = 1;
  for (int d = 0; d < static_cast<int>(sg.lo.size()); ++d) {
    if (d != dim) lines *= sg.extent(d);
  }
  RankMessages out;
  if (const auto up = part.neighbor(rank, dim, -dir)) {
    out.recvs.push_back(message(flows, sg, ghosts, dim, -dir, *up, false));
    out.recvs.back().lines = lines;
  }
  if (const auto down = part.neighbor(rank, dim, dir)) {
    out.sends.push_back(message(flows, sg, ghosts, dim, dir, *down, true));
    out.sends.back().lines = lines;
  }
  return out;
}

}  // namespace autocfd::codegen
