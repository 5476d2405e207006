// Communication matrix and virtual-time timeline of a traced run.
//
// Derived entirely from the trace event stream: per-(src, dst, tag)
// message/byte/wait accounting resolved through the sync::TagRegistry
// (so every cell names the sync-plan site that produced its traffic),
// per-neighbor rollups with halo-volume subtotals, per-site collective
// costs, and a virtual-time-bucketed timeline of compute vs transfer
// vs wait per rank — the view that makes stragglers and
// link-degradation windows visible at a glance.
//
// Totals reconcile with the cluster's own accounting: the per-rank
// totals equal mp::RankStats messages/bytes sent and received, and
// each rank's timeline row sums to its final virtual clock.
#pragma once

#include <string>
#include <vector>

#include "autocfd/sync/tag_registry.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::prof {

/// Traffic of one (src, dst, tag) edge.
struct CommCell {
  int src = -1, dst = -1, tag = -1;
  std::string label;     // TagRegistry label of the tag
  bool halo = false;     // tag registered as a Halo site
  long long messages = 0;       // wire messages (sender side)
  long long bytes = 0;          // payload bytes (sender side)
  long long recv_messages = 0;  // receiver side (== sender unless dropped)
  long long recv_bytes = 0;
  double transfer_s = 0.0;  // sender clock spent pushing the messages
  double wait_s = 0.0;      // receiver clock spent idle before arrival
  /// Reliable-delivery recovery on this edge: wire retransmissions
  /// driven by the receiver, and the portion of wait_s they account
  /// for (sub-account of wait_s, reconciling with RankStats).
  long long retransmits = 0;
  double recovery_s = 0.0;
};

/// All tags of one (src, dst) pair folded together.
struct NeighborFlow {
  int src = -1, dst = -1;
  long long messages = 0;
  long long bytes = 0;
  long long halo_bytes = 0;  // subtotal over Halo-site tags
  double wait_s = 0.0;
};

/// One collective site's rendezvous cost summed over entries.
struct CollectiveCost {
  int site = -1;
  std::string label;
  long long entries = 0;  // rank entries (nranks per rendezvous)
  double wait_s = 0.0;    // idle before the slowest rank arrived
  double cost_s = 0.0;    // tree cost after the rendezvous fired
};

struct TimelineCell {
  double compute = 0.0;
  double transfer = 0.0;
  double wait = 0.0;

  [[nodiscard]] double total() const { return compute + transfer + wait; }
};

struct CommTimeline {
  double bucket_s = 0.0;
  int nbuckets = 0;
  /// ranks[r][b]: rank r's time decomposition inside virtual-time
  /// bucket [b * bucket_s, (b + 1) * bucket_s).
  std::vector<std::vector<TimelineCell>> ranks;
};

struct CommMatrix {
  int nranks = 0;
  std::vector<CommCell> cells;          // sorted by (src, dst, tag)
  std::vector<NeighborFlow> neighbors;  // sorted by (src, dst)
  std::vector<CollectiveCost> collectives;  // sorted by site
  CommTimeline timeline;

  /// Per-rank totals; reconcile with mp::RankStats.
  struct RankTotals {
    long long messages_sent = 0, bytes_sent = 0;
    long long messages_received = 0, bytes_received = 0;
  };
  std::vector<RankTotals> rank_totals;
};

/// Timeline buckets of every run report's communication matrix.
inline constexpr int kTimelineBuckets = 24;

/// Builds the matrix from a recorded trace. `tags` (nullable) resolves
/// tag/site labels and halo classification; `nbuckets` sizes the
/// timeline (the run's elapsed time is split evenly).
[[nodiscard]] CommMatrix build_comm_matrix(const trace::Trace& trace,
                                           const sync::TagRegistry* tags,
                                           int nbuckets = kTimelineBuckets);

}  // namespace autocfd::prof
