// The communication schedule (paper section 5): the messages one rank
// sends and receives at one aggregated halo exchange or pipeline
// hand-off. This is the only code that decides which (rank, peer, slab,
// line count) messages move: the SPMD runtime executes them and the
// planner prices the same ones.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "autocfd/depend/dep_pairs.hpp"
#include "autocfd/fortran/ast.hpp"
#include "autocfd/sync/sync_plan.hpp"

namespace autocfd::codegen {

/// Ghost layers allocated per status array.
using GhostWidths = std::map<std::string, partition::HaloWidths>;

/// Per status array, the union of every halo it is read through
/// (dependence pairs, sync regions, pipeline pre/flow halos): the ghost
/// layers restructuring allocates.
[[nodiscard]] GhostWidths ghost_widths(
    int grid_rank, const std::vector<std::string>& status_arrays,
    const depend::DependenceSet& deps, const sync::SyncPlan& plan);

/// Global layers [lo, hi] along the exchanged dimension of one member
/// array; every other dimension spans the local allocation, ghost
/// layers included (pack_slab semantics).
struct Slab {
  std::size_t array = 0;  // index into the exchange's HaloSpec list
  long long lo = 0;
  long long hi = 0;
};

struct Message {
  int peer = -1;
  std::vector<Slab> slabs;  // in packing order
  long long elements = 0;   // doubles over the ghost-padded local extents
  long long lines = 1;      // wire messages: 1, or per owned face line

  [[nodiscard]] long long bytes() const {
    return elements * static_cast<long long>(sizeof(double));
  }
};

struct RankMessages {
  std::vector<Message> sends;
  std::vector<Message> recvs;
};

/// One rank's share of an aggregated halo exchange along `dim`, low
/// side first. The peer on the high side reads v(i - k), so it gets our
/// top lo-width layers; the low side gets our bottom hi-width layers. A
/// direction with no layers has no message; the widths are static, so
/// both peers agree on which messages exist.
[[nodiscard]] RankMessages halo_messages(
    const std::vector<fortran::HaloSpec>& halos,
    const partition::BlockPartition& part, const GhostWidths& ghosts,
    int rank, int dim);

/// One rank's share of a pipeline hand-off along (dim, dir): receive the
/// upstream boundary (PipelineStart), send ours downstream
/// (PipelineEnd), one wire message per grid line of the owned face.
[[nodiscard]] RankMessages handoff_messages(
    const std::vector<fortran::HaloSpec>& flows,
    const partition::BlockPartition& part, const GhostWidths& ghosts,
    int rank, int dim, int dir);

}  // namespace autocfd::codegen
