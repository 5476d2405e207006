// The complete synchronization plan for one program under one
// partition: upper-bound regions for every communication-carrying
// dependence (including the pre-sweep old-value exchanges that
// mirror-image decomposition introduces for self-dependent loops),
// the minimal combined synchronization points, and the pipeline plans
// for the flow half of each mirror-image decomposition.
//
// syncs_before()/syncs_after() are the two columns of the paper's
// Table 1.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autocfd/depend/self_dep.hpp"
#include "autocfd/obs/obs.hpp"
#include "autocfd/sync/combine.hpp"
#include "autocfd/sync/regions.hpp"

namespace autocfd::sync {

/// How synchronization points are chosen from the upper-bound regions.
enum class CombineStrategy {
  Min,       // the paper's minimal-intersection algorithm (default)
  Pairwise,  // Figure 6(c)'s non-optimal baseline
  None,      // one synchronization per dependence pair (ablation)
};

/// Stable lowercase name ("min", "pairwise", "none") used in reports,
/// plan files, and CLI flags.
[[nodiscard]] const char* combine_strategy_name(CombineStrategy strategy);

/// Inverse of combine_strategy_name; returns false on unknown names.
[[nodiscard]] bool parse_combine_strategy(const std::string& name,
                                          CombineStrategy& out);

struct PipelinePlan {
  const depend::TraceSite* site = nullptr;
  depend::MirrorImagePlan plan;
};

/// One pipeline hand-off shared by mirror-image sweeps along the same
/// (dim, dir) list: section 5's combining applied to the flow halves.
/// The restructurer emits one PipelineStart per (dim, dir) at
/// `start_slot`, after any halo exchange there, and one PipelineEnd per
/// (dim, dir) at `end_slot`, before any halo exchange there. Each
/// carries the flow boundary of every member array.
struct PipelineGroup {
  /// Indices into SyncPlan::pipelines, in document order. A loop in a
  /// subroutine reached from several call sites has one plan per site;
  /// they form one group whose hand-off stays around the loop.
  std::vector<int> members;
  std::vector<std::pair<int, int>> dims;
  int start_slot = -1;
  int end_slot = -1;
};

/// Groups the pipelines under `strategy`. A hand-off start hoists, and
/// an end sinks, across statements that neither read nor write the
/// member's array, out of subroutine bodies, and never across a halo
/// point of `points`, a collective, a goto or exit, or another
/// pipeline. Min merges maximal runs of neighbouring sweeps, Pairwise
/// merges neighbouring pairs, None keeps one hand-off per sweep. Every
/// group lands in the provenance log.
[[nodiscard]] std::vector<PipelineGroup> combine_pipelines(
    const InlinedProgram& prog, const std::vector<PipelinePlan>& pipelines,
    const std::vector<CombinedSync>& points, CombineStrategy strategy,
    obs::ProvenanceLog* prov = nullptr, CombineStats* stats = nullptr);

class SyncPlan {
 public:
  std::vector<SyncRegion> regions;
  std::vector<CombinedSync> points;
  std::vector<PipelinePlan> pipelines;
  std::vector<PipelineGroup> pipeline_groups;

  [[nodiscard]] int syncs_before() const {
    return static_cast<int>(regions.size());
  }
  [[nodiscard]] int syncs_after() const {
    return static_cast<int>(points.size());
  }
  [[nodiscard]] double optimization_percent() const;

  /// Aggregated halo content of one combined point: per dependent
  /// array, the element-wise maximum of the member pairs' halos.
  [[nodiscard]] static std::vector<fortran::HaloSpec> halos_for(
      const CombinedSync& point);

  /// Flow boundaries one hand-off of `group` carries: per member array
  /// the element-wise maximum of its members' flow halos, sorted by
  /// array name.
  [[nodiscard]] std::vector<fortran::HaloSpec> flows_for(
      const PipelineGroup& group) const;

  /// Storage for the synthetic pre-sweep pairs of self-dependent loops
  /// (they have no LoopDependence in the DependenceSet).
  std::vector<std::unique_ptr<depend::LoopDependence>> synthetic_pairs;
};

/// With an observability context, the regions / self-dep / combine
/// sub-phases are timed into the pass profiler (with their counters)
/// and every decision lands in the provenance log.
[[nodiscard]] SyncPlan plan_synchronization(
    const InlinedProgram& prog, const depend::DependenceSet& deps,
    const partition::PartitionSpec& spec,
    CombineStrategy strategy = CombineStrategy::Min,
    obs::ObsContext* obs = nullptr);

}  // namespace autocfd::sync
