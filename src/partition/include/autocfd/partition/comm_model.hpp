// Communication-volume model for block partitions (paper section 4.1).
//
// Communication happens across demarcation lines: for every dimension a
// partition actually cuts, each interior block exchanges a halo face
// with its neighbor. The paper's claim — communication is minimized
// when demarcation lines carry (near-)equal point counts — falls out of
// the balanced split; `find_best_partition` searches all factorizations
// of the processor count for the one minimizing the maximum per-task
// communication (the quantity that bounds parallel time).
#pragma once

#include <vector>

#include "autocfd/partition/grid.hpp"

namespace autocfd::partition {

/// Halo requirement per grid dimension: how many ghost layers a task
/// needs from its low/high neighbor (from dependency distances).
struct HaloWidths {
  std::vector<int> lo;
  std::vector<int> hi;

  [[nodiscard]] static HaloWidths uniform(int rank, int width);
  [[nodiscard]] bool any() const;
  /// Element-wise maximum of two requirements.
  [[nodiscard]] static HaloWidths merge(const HaloWidths& a,
                                        const HaloWidths& b);
  friend bool operator==(const HaloWidths&, const HaloWidths&) = default;
};

/// Grid points one task sends per halo exchange (sum over its cut
/// faces of face-area x halo width required by the *neighbor*).
[[nodiscard]] long long comm_points(const BlockPartition& part, int rank,
                                    const HaloWidths& halo);

/// Maximum per-task communication: the paper's balance criterion.
[[nodiscard]] long long max_comm_points(const BlockPartition& part,
                                        const HaloWidths& halo);

/// Total points crossing all demarcation lines (both directions).
[[nodiscard]] long long total_comm_points(const BlockPartition& part,
                                          const HaloWidths& halo);

/// All factorizations of `nprocs` into `rank` ordered factors
/// (e.g. 4 procs, rank 3 -> 4x1x1, 1x4x1, ..., 2x2x1, ...).
[[nodiscard]] std::vector<PartitionSpec> enumerate_partitions(int nprocs,
                                                              int rank);

/// Section 4.1 optimal search: among all factorizations, choose the one
/// minimizing max per-task communication; ties broken by total
/// communication, then by max subgrid size (load balance).
[[nodiscard]] PartitionSpec find_best_partition(const Grid& grid, int nprocs,
                                                const HaloWidths& halo);

}  // namespace autocfd::partition
