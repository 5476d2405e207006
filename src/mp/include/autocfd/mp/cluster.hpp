// Simulated message-passing cluster.
//
// Ranks run as real threads; message passing and collectives have MPI
// semantics (blocking send/recv matched by (source, tag) in FIFO
// order, allreduce, barrier). *Time*, however, is virtual: every rank
// carries a clock advanced by compute and communication costs from the
// MachineConfig, and message envelopes carry the sender's clock so a
// receive completes at max(receiver clock, sender departure + transfer
// time). With deterministic matching the resulting virtual times are
// reproducible regardless of host scheduling.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "autocfd/mp/comm_error.hpp"
#include "autocfd/mp/events.hpp"
#include "autocfd/mp/fault_hook.hpp"
#include "autocfd/mp/machine.hpp"
#include "autocfd/mp/recovery.hpp"

namespace autocfd::mp {

/// Per-rank cost/traffic counters. A send counts on the sender, its
/// matching recv on the receiver. Collectives are incremented on every
/// participating rank.
struct RankStats {
  double compute_time = 0.0;
  double comm_time = 0.0;
  /// Portion of comm_time spent idle: blocked in recv before the
  /// message arrived, or blocked in a collective before the slowest
  /// rank entered. comm_time - wait_time is transfer cost.
  double wait_time = 0.0;
  /// Portion of wait_time spent recovering lost or corrupted messages
  /// (reliable delivery enabled): idle past the arrival the original
  /// attempt would have had. A sub-account of wait_time, so
  /// compute + (comm - wait) + wait still totals the rank's clock.
  double recovery_time = 0.0;
  long long messages_sent = 0;
  long long bytes_sent = 0;
  long long messages_received = 0;
  long long bytes_received = 0;
  long long collectives = 0;
  /// Wire retransmissions this rank *drove* as a receiver (recovery
  /// runs receiver-side; retransmits are not counted in
  /// messages_sent/bytes_sent, which stay sender-attempt accounting).
  long long retransmits = 0;
  /// Messages this rank received only after at least one retransmit.
  long long recovered = 0;

  [[nodiscard]] double total_time() const { return compute_time + comm_time; }
};

class Cluster;

/// Per-rank communication handle (the MPI_COMM_WORLD analog).
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] const MachineConfig& config() const;

  /// Advances this rank's virtual clock by compute time.
  void add_compute(double seconds);
  [[nodiscard]] double now() const;
  [[nodiscard]] const RankStats& stats() const;

  /// Blocking send: the sender's clock pays the full message time
  /// (store-and-forward, no overlap).
  void send(int dst, int tag, std::vector<double> data);
  /// Send delivered as `n_messages` back-to-back wire messages (the
  /// fine-grained pipelining of mirror-image sweeps: one message per
  /// grid line crossing the block boundary). Pays n x latency plus the
  /// byte cost once; matched by a single recv.
  void send_chunked(int dst, int tag, std::vector<double> data,
                    long long n_messages);
  /// Blocking receive from a specific source.
  [[nodiscard]] std::vector<double> recv(int src, int tag);

  /// Collectives take an optional sync-plan `site` id so an attached
  /// EventSink can attribute the rendezvous (all ranks must pass the
  /// same site, which holds trivially when it comes from a shared
  /// program statement).
  [[nodiscard]] double allreduce_max(double value, int site = -1);
  [[nodiscard]] double allreduce_sum(double value, int site = -1);
  void barrier(int site = -1);

 private:
  friend class Cluster;
  Comm(Cluster& cluster, int rank) : cluster_(&cluster), rank_(rank) {}

  Cluster* cluster_;
  int rank_;
};

class Cluster {
 public:
  Cluster(int nprocs, MachineConfig config);

  [[nodiscard]] int size() const { return nprocs_; }
  [[nodiscard]] const MachineConfig& config() const { return config_; }

  /// Attaches an event sink for subsequent run() calls (nullptr
  /// detaches). The sink must outlive the runs; it is invoked under
  /// the cluster lock and must not call back into the cluster.
  void set_event_sink(EventSink* sink) { sink_ = sink; }

  /// Attaches a fault-injection hook for subsequent run() calls
  /// (nullptr detaches). Invoked under the cluster lock; must not call
  /// back into the cluster. See autocfd/mp/fault_hook.hpp.
  void set_fault_hook(FaultHook* hook) { fault_ = hook; }

  /// Reliable-delivery protocol for subsequent run() calls. Disabled
  /// (the default) keeps the fail-fast semantics: a dropped message
  /// eventually trips the watchdog and a corrupted one throws
  /// CommChecksumError on first receipt. Enabled, the receiver drives
  /// checksum-verified retransmissions from the sender's retained
  /// pristine payload on an exponential-backoff schedule, and those
  /// errors fire only once the per-message retry budget is exhausted.
  void set_recovery(const RecoveryConfig& recovery) { recovery_ = recovery; }
  [[nodiscard]] const RecoveryConfig& recovery() const { return recovery_; }

  /// Watchdog deadline in *virtual* seconds. The simulator detects a
  /// hang exactly (every live rank blocked on an operation no other
  /// rank can ever complete) with no real-time timers; the deadline
  /// sets the virtual instant (entry clock + deadline) the victim's
  /// CommTimeoutError reports and orders victims when several
  /// operations are stuck. <= 0 disables the watchdog (a genuine hang
  /// then blocks forever, the pre-hardening behavior).
  void set_watchdog(double virtual_seconds) { watchdog_ = virtual_seconds; }
  [[nodiscard]] double watchdog() const { return watchdog_; }

  /// Resolves a tag / collective-site id to a human label for error
  /// messages (typically sync::TagRegistry::label). Kept as a function
  /// so the mp layer does not depend on the sync plan.
  void set_tag_labeler(std::function<std::string(int)> labeler) {
    labeler_ = std::move(labeler);
  }

  struct RunResult {
    std::vector<RankStats> ranks;
    /// Parallel execution time: the slowest rank's virtual clock.
    [[nodiscard]] double elapsed() const;
  };

  /// Runs `fn` on every rank concurrently; returns per-rank stats.
  /// All rank threads are always joined; if any rank threw, the first
  /// root-cause error (lowest rank holding a non-CommAbortError, the
  /// cascade releases the others) is rethrown afterwards. Partial
  /// per-rank stats of a failed run remain available via last_stats().
  RunResult run(const std::function<void(Comm&)>& fn);

  /// Per-rank stats of the most recent run (complete or aborted).
  [[nodiscard]] const std::vector<RankStats>& last_stats() const {
    return stats_;
  }

  /// FNV-1a checksum over the byte representation of a payload — the
  /// per-message integrity check the receiver verifies.
  [[nodiscard]] static std::uint64_t payload_checksum(
      const std::vector<double>& data);

 private:
  friend class Comm;

  struct Message {
    int tag;
    std::vector<double> data;
    double arrival_time;  // sender departure + transfer time (+ faults)
    long long msg_id;     // per-channel sequence, deterministic
    long long n_messages;
    long long bytes;
    std::uint64_t checksum;  // taken before fault corruption
  };

  /// Retransmit buffer entry (recovery enabled): the sender's
  /// transport layer retains every logical message — pristine payload,
  /// original checksum, departure and transfer cost — until its
  /// receiver verified delivery. The *receiver* drives the retry loop
  /// in deterministic virtual time; see recv_recover in cluster.cpp.
  struct PendingEntry {
    int tag = -1;
    std::vector<double> pristine;  // payload before any corruption
    double departure = 0.0;        // sender clock at send completion
    double transfer = 0.0;         // cost one wire attempt takes
    double original_arrival = 0.0; // when the first attempt (would have)
                                   // arrived — the recovery baseline
    long long msg_id = -1;         // logical id (the original wire id)
    long long n_messages = 1;
    long long bytes = 0;
    std::uint64_t checksum = 0;    // of the pristine payload
    bool in_channel = false;  // original attempt sits in channels_
  };

  /// What a rank is currently blocked on (watchdog bookkeeping).
  struct BlockedOp {
    bool active = false;
    bool collective = false;
    int peer = -1;
    int tag = -1;
    int site = -1;
    double entry = 0.0;  // rank clock when it blocked
    /// Collective generation the op waits on; the op is stuck only
    /// while coll_generation_ still equals it (rendezvous not fired).
    long long generation = -1;
  };

  void send_impl(int src, int dst, int tag, std::vector<double> data,
                 long long n_messages);
  std::vector<double> recv_impl(int dst, int src, int tag);
  /// Requires the lock. Drives the retransmission loop for pending
  /// logical message `entry` of channel (src, dst): replays wire
  /// attempts on the backoff schedule until one arrives with the
  /// original checksum intact (returns the delivered payload, fully
  /// accounted on the receiver) or the budget runs out (then throws
  /// CommChecksumError / CommTimeoutError carrying the attempt count).
  std::vector<double> recv_recover(int dst, int src, PendingEntry entry,
                                   bool original_corrupt);
  double allreduce_impl(int rank, double value, bool is_max,
                        EventKind kind, int site);
  void barrier_impl(int rank, int site);
  void emit(const TraceEvent& event);
  /// Resolves a tag/site id through the installed labeler.
  [[nodiscard]] std::string label_of(int id) const;
  /// Requires the lock. If every live rank is blocked, no operation
  /// can ever complete: picks the victim (smallest virtual deadline)
  /// and turns the hang into a CommTimeoutError via the abort flag.
  void maybe_trip_watchdog();
  /// Requires the lock. Throws the timeout (victim) or abort
  /// (collateral) error for a rank released while still blocked.
  [[noreturn]] void throw_released(int rank, const BlockedOp& op);

  int nprocs_;
  MachineConfig config_;
  EventSink* sink_ = nullptr;
  FaultHook* fault_ = nullptr;
  RecoveryConfig recovery_;
  double watchdog_ = kDefaultWatchdog;
  std::function<std::string(int)> labeler_;

  std::mutex mu_;
  std::condition_variable cv_;
  // (src, dst) -> FIFO of messages.
  std::map<std::pair<int, int>, std::deque<Message>> channels_;
  // (src, dst) -> count of messages ever pushed (msg_id source).
  std::map<std::pair<int, int>, long long> channel_seq_;
  // (src, dst) -> logical messages awaiting verified delivery, in
  // logical (msg_id) order. Only populated with recovery enabled.
  std::map<std::pair<int, int>, std::deque<PendingEntry>> pending_;
  std::vector<double> clocks_;
  std::vector<RankStats> stats_;

  // Abort / watchdog state (one run at a time).
  bool abort_ = false;
  int finished_ = 0;       // rank bodies that returned or threw
  int blocked_ = 0;        // ranks blocked in recv or a collective
  int timeout_victim_ = -1;
  CommErrorInfo timeout_info_;
  std::vector<BlockedOp> blocked_ops_;

 public:
  /// Default watchdog deadline: 30 virtual seconds, far beyond any
  /// legitimate wait of the simulated workloads.
  static constexpr double kDefaultWatchdog = 30.0;

 private:

  // Collective rendezvous state.
  int coll_arrived_ = 0;
  long long coll_generation_ = 0;
  double coll_value_max_ = 0.0;
  double coll_value_sum_ = 0.0;
  /// Result of the last completed collective. Released waiters read
  /// it after reacquiring the lock, by when the last arriver may have
  /// started accumulating the next collective in coll_value_*; it is
  /// only overwritten when that next one completes, which needs every
  /// waiter to arrive again.
  double coll_result_max_ = 0.0;
  double coll_result_sum_ = 0.0;
  double coll_time_ = 0.0;
  double coll_rendezvous_ = 0.0;  // slowest entry clock, pre-cost
};

}  // namespace autocfd::mp
