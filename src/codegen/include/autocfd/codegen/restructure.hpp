// SPMD restructurer (paper section 3, "restructuring procedure").
//
// Transforms the analyzed sequential program — in place — into the
// SPMD message-passing program:
//   * status arrays are re-declared with local bounds plus ghost
//     layers: dim d becomes (acfd_lo<d> - G : acfd_hi<d> + G), where
//     the acfd_* scalars are set per rank by the runtime and G is the
//     union of all dependency distances seen for the array;
//   * field-loop bounds are clamped to the owned block
//     (max(lo, acfd_lo) / min(hi, acfd_hi), mirrored for descending
//     loops), keeping global index space so subscripts are untouched;
//   * boundary-section writes with loop-invariant subscripts are
//     guarded by ownership tests (paper section 4.2 case 3);
//   * one aggregated HaloExchange is inserted at every combined
//     synchronization point of the SyncPlan;
//   * scalar reductions detected in field loops get an AllReduce
//     right after the nest;
//   * every pipeline group of the SyncPlan gets one PipelineStart per
//     (dim, dir) at its start slot and one PipelineEnd at its end slot,
//     each carrying the flow boundaries of all member sweeps.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "autocfd/codegen/comm_schedule.hpp"
#include "autocfd/depend/dep_pairs.hpp"
#include "autocfd/fortran/ast.hpp"
#include "autocfd/fortran/symbols.hpp"
#include "autocfd/sync/sync_plan.hpp"
#include "autocfd/sync/tag_registry.hpp"

namespace autocfd::codegen {

struct SpmdOptions {
  ir::FieldConfig field;
  partition::Grid grid;
  partition::PartitionSpec spec;
};

/// Metadata the runtime needs to execute the restructured program.
struct SpmdMeta {
  partition::Grid grid;
  partition::PartitionSpec spec;
  std::vector<std::string> status_arrays;
  /// Ghost widths allocated per status array (see ghost_widths).
  GhostWidths ghosts;
  /// Global (sequential) shape of each status array, for gather.
  std::map<std::string, fortran::ArrayShape> global_shapes;
  /// One CommSite per communication-emitting construct the
  /// restructurer generated; the site id is the wire tag (or the
  /// collective `site`), so a trace of the run can attribute every
  /// event back to its synchronization point.
  sync::TagRegistry tags;

  [[nodiscard]] static std::string lo_name(int dim) {
    return "acfd_lo" + std::to_string(dim + 1);
  }
  [[nodiscard]] static std::string hi_name(int dim) {
    return "acfd_hi" + std::to_string(dim + 1);
  }
};

/// Restructures `file` in place. All analysis structures must have
/// been computed against this same file.
[[nodiscard]] SpmdMeta restructure(
    fortran::SourceFile& file, const SpmdOptions& opts,
    const std::map<std::string, std::vector<ir::FieldLoop>>& loops_by_unit,
    const depend::DependenceSet& deps, const sync::SyncPlan& plan,
    const sync::InlinedProgram& prog, DiagnosticEngine& diags);

}  // namespace autocfd::codegen
