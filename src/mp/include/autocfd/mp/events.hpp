// Event stream of the simulated cluster.
//
// When a Cluster has an EventSink attached, every virtual-clock
// advance (compute span, send, receive, collective) is reported as a
// TraceEvent carrying the acting rank's clock interval plus enough
// identity (matched message ids, collective generations) for a
// consumer to rebuild the happens-before DAG of the run. Events are
// emitted under the cluster lock, so a sink needs no synchronization
// against the cluster itself; per-rank event order equals that rank's
// program order and is therefore deterministic.
#pragma once

#include <cstdint>

namespace autocfd::mp {

enum class EventKind {
  Compute,       // add_compute span
  Send,          // blocking send (latency x n_messages + bytes once)
  Recv,          // blocking receive; duration is pure idle wait
  AllReduce,     // collective rendezvous + tree cost
  Barrier,       // allreduce in disguise (value ignored)
  Unreceived,    // post-run: a message left sitting in a channel
  // Fault-injection events (zero-width markers on the sender's clock;
  // `wait` carries the injected delay for FaultDelay).
  FaultDelay,    // message transfer time perturbed by the fault hook
  FaultDrop,     // message silently discarded by the fault hook
  FaultCorrupt,  // payload mutated in flight (checksum will catch it)
  Timeout,       // watchdog declared a blocked operation dead
  /// Recovery: one wire retransmission of a lost or corrupted message
  /// (zero-width marker on the *receiver's* stream, since the receiver
  /// drives the retry loop; `wait` carries the backoff interval that
  /// preceded it, t0/t1 the virtual departure of the retransmission).
  Retransmit,
};

/// One timestamped event on one rank's virtual clock.
struct TraceEvent {
  EventKind kind = EventKind::Compute;
  int rank = -1;
  double t0 = 0.0;  // rank clock when the operation began
  double t1 = 0.0;  // rank clock when it completed

  // Point-to-point identity (Send/Recv/Unreceived).
  int peer = -1;           // destination for Send, source for Recv
  int tag = -1;
  long long bytes = 0;
  long long n_messages = 0;
  /// Deterministic id matching a Send to its Recv: assigned per
  /// (src, dst) channel in program order, identical across reruns.
  long long msg_id = -1;

  // Timing decomposition.
  /// Recv: when the message hit the wire-end (sender departure +
  /// transfer). Collectives: the rendezvous instant (slowest entry).
  double arrival = 0.0;
  /// Recv: idle time, max(arrival - t0, 0). Collectives: time spent
  /// blocked waiting for the slowest rank.
  double wait = 0.0;

  /// Recv matched a message behind one or more older messages with
  /// different tags on the same channel (legal MPI, but a smell in
  /// generated halo-exchange code).
  bool fifo_skip = false;

  // Recovery decomposition (reliable-delivery protocol; see
  // autocfd/mp/recovery.hpp).
  /// Recv: portion of `wait` attributable to retransmissions — the
  /// extra idle time past the arrival the original attempt would have
  /// had. Always a sub-account of `wait`, never in addition to it.
  double recovery = 0.0;
  /// Recv: wire attempts the delivery consumed (1 = first try, no
  /// recovery). Retransmit: the 1-based retransmission number.
  int attempts = 1;

  /// Collective generation, shared by all ranks of one rendezvous.
  long long coll_seq = -1;

  /// Sync-plan site that issued a collective (see sync::TagRegistry);
  /// point-to-point events are attributed through `tag` instead.
  int site = -1;
};

/// Receiver of cluster events. Implementations are called under the
/// cluster mutex: they must not call back into the Cluster.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

}  // namespace autocfd::mp
