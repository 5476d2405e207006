// Combining synchronization regions (paper section 5.1.2, Figure 6).
//
// Upper-bound regions that overlap can share a single synchronization
// point placed in their intersection. The paper's algorithm sorts the
// regions by the line number of their first statement and greedily
// intersects in that order, starting a new group only when the current
// intersection would become empty — which yields the minimum number of
// groups (the classic optimal stabbing of sorted intervals). A naive
// pairwise strategy (Figure 6(c)) is provided as the ablation baseline.
#pragma once

#include <vector>

#include "autocfd/sync/regions.hpp"

namespace autocfd::sync {

struct CombinedSync {
  std::vector<const SyncRegion*> members;
  std::vector<int> intersection;  // sorted slot ordinals
  int chosen_slot = -1;           // final synchronization point

  /// Ids of the member regions (SyncRegion::id, -1 for standalone
  /// regions), in merge order.
  [[nodiscard]] std::vector<int> member_ids() const;
};

/// Observability counters of one combining run.
struct CombineStats {
  int intersections_evaluated = 0;  // region-pair overlap tests
  int merges = 0;                   // tests that kept the group growing
  int groups = 0;                   // combined points emitted
};

/// The paper's minimal combining. Regions with no slots are skipped.
/// `prog` is used to choose the insertion slot within each intersection
/// (shallowest call depth, then latest position). With a provenance
/// log, every emitted point records the member region ids it merged.
[[nodiscard]] std::vector<CombinedSync> combine_min(
    const InlinedProgram& prog, const std::vector<SyncRegion>& regions,
    obs::ProvenanceLog* prov = nullptr, CombineStats* stats = nullptr);

/// Figure 6(c)'s non-optimal strategy: merge each region only with its
/// immediate sorted successor when they overlap. Kept as a baseline to
/// reproduce the figure's 2-vs-3 comparison.
[[nodiscard]] std::vector<CombinedSync> combine_pairwise(
    const InlinedProgram& prog, const std::vector<SyncRegion>& regions,
    obs::ProvenanceLog* prov = nullptr, CombineStats* stats = nullptr);

/// Shared tail of every strategy: chooses the slot, bumps the group
/// counter and records the CombineMerge provenance entry naming the
/// merged region ids.
void finalize_combined(const InlinedProgram& prog, CombinedSync& group,
                       obs::ProvenanceLog* prov, CombineStats* stats);

/// Intersection of two sorted slot lists.
[[nodiscard]] std::vector<int> intersect_slots(const std::vector<int>& a,
                                               const std::vector<int>& b);

/// Picks the synchronization point within an intersection: minimize
/// call depth (prefer main over subroutine bodies so a shared source
/// line is not re-executed per call), then maximize the ordinal (as
/// late as possible, right before the first reader). With `latest`
/// false the ordinal is minimized instead (a pipeline hand-off's send
/// goes as early as possible).
[[nodiscard]] int choose_slot(const InlinedProgram& prog,
                              const std::vector<int>& intersection,
                              bool latest = true);

}  // namespace autocfd::sync
