#include "autocfd/mp/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

namespace autocfd::mp {

namespace {

/// Wire id handed to the fault hook for retransmission `attempt` of
/// logical message `msg_id`: distinct per attempt (so a retransmit
/// draws a fresh, independent fault decision instead of repeating the
/// original's forever) yet a pure function of the logical identity (so
/// schedules stay deterministic and independent of unrelated traffic).
/// The base keeps retransmit ids clear of ordinary channel sequence
/// numbers, which targeted fault matchers (msg_id=0 etc.) select on.
constexpr long long kRetransmitIdBase = 1LL << 40;
constexpr long long kRetransmitAttemptStride = 1LL << 16;

long long retransmit_wire_id(long long msg_id, int attempt) {
  return kRetransmitIdBase + msg_id * kRetransmitAttemptStride + attempt;
}

}  // namespace

int Comm::size() const { return cluster_->size(); }
const MachineConfig& Comm::config() const { return cluster_->config(); }

void Comm::add_compute(double seconds) {
  std::lock_guard lock(cluster_->mu_);
  if (cluster_->fault_ != nullptr) {
    // Straggler model: a constant per-rank slowdown of every compute
    // span (the hook guarantees the factor is stable for the run).
    seconds *= cluster_->fault_->compute_factor(rank_);
  }
  auto& clock = cluster_->clocks_[static_cast<std::size_t>(rank_)];
  const double before = clock;
  clock += seconds;
  cluster_->stats_[static_cast<std::size_t>(rank_)].compute_time += seconds;
  if (cluster_->sink_ != nullptr) {
    TraceEvent e;
    e.kind = EventKind::Compute;
    e.rank = rank_;
    e.t0 = before;
    e.t1 = clock;
    cluster_->emit(e);
  }
}

double Comm::now() const {
  std::lock_guard lock(cluster_->mu_);
  return cluster_->clocks_[static_cast<std::size_t>(rank_)];
}

const RankStats& Comm::stats() const {
  return cluster_->stats_[static_cast<std::size_t>(rank_)];
}

void Comm::send(int dst, int tag, std::vector<double> data) {
  cluster_->send_impl(rank_, dst, tag, std::move(data), 1);
}

void Comm::send_chunked(int dst, int tag, std::vector<double> data,
                        long long n_messages) {
  cluster_->send_impl(rank_, dst, tag, std::move(data),
                      std::max<long long>(n_messages, 1));
}

std::vector<double> Comm::recv(int src, int tag) {
  return cluster_->recv_impl(rank_, src, tag);
}

double Comm::allreduce_max(double value, int site) {
  return cluster_->allreduce_impl(rank_, value, /*is_max=*/true,
                                  EventKind::AllReduce, site);
}

double Comm::allreduce_sum(double value, int site) {
  return cluster_->allreduce_impl(rank_, value, /*is_max=*/false,
                                  EventKind::AllReduce, site);
}

void Comm::barrier(int site) { cluster_->barrier_impl(rank_, site); }

Cluster::Cluster(int nprocs, MachineConfig config)
    : nprocs_(nprocs), config_(config) {
  if (nprocs < 1) throw std::invalid_argument("cluster needs >= 1 rank");
  clocks_.assign(static_cast<std::size_t>(nprocs), 0.0);
  stats_.assign(static_cast<std::size_t>(nprocs), RankStats{});
  blocked_ops_.assign(static_cast<std::size_t>(nprocs), BlockedOp{});
}

double Cluster::RunResult::elapsed() const {
  double best = 0.0;
  for (const auto& r : ranks) best = std::max(best, r.total_time());
  return best;
}

void Cluster::emit(const TraceEvent& event) {
  if (sink_ != nullptr) sink_->on_event(event);
}

std::uint64_t Cluster::payload_checksum(const std::vector<double>& data) {
  // FNV-1a over the byte representation. Cheap, deterministic, and
  // sensitive to any single-bit flip of the payload.
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : data) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string Cluster::label_of(int id) const {
  if (id >= 0 && labeler_) return labeler_(id);
  if (id >= 0) return "tag " + std::to_string(id);
  return "(unattributed)";
}

void Cluster::maybe_trip_watchdog() {
  // Requires mu_. Trip only on provable quiescence: every rank either
  // finished or is blocked, and every blocked operation is genuinely
  // stuck (no matching message queued, rendezvous not fired). A rank
  // that was completed but has not woken yet is *not* stuck — skipping
  // the trip then avoids false positives during wake-up races.
  if (watchdog_ <= 0.0 || abort_) return;
  if (finished_ + blocked_ != nprocs_ || blocked_ == 0) return;

  int victim = -1;
  bool victim_p2p = false;
  double victim_deadline = 0.0;
  for (int r = 0; r < nprocs_; ++r) {
    const auto& op = blocked_ops_[static_cast<std::size_t>(r)];
    if (!op.active) continue;
    if (op.collective) {
      // The rendezvous this rank waits for could still fire only if
      // the remaining ranks arrive — but they are all finished or
      // blocked too, so a still-pending generation means genuinely
      // stuck. A fired generation means the rank is waking up.
      if (coll_generation_ != op.generation) return;
    } else {
      const auto it = channels_.find({op.peer, r});
      if (it != channels_.end() &&
          std::any_of(it->second.begin(), it->second.end(),
                      [&](const Message& m) { return m.tag == op.tag; })) {
        return;  // a matching message is queued: the rank is waking up
      }
      // A dropped message with a live retransmit buffer entry is
      // *progress*, not a hang: the receiver will drive recovery as
      // soon as it wakes on the pending entry. Only an exhausted
      // budget (recv_recover throwing) makes this rank truly stuck.
      if (recovery_.enabled) {
        const auto pit = pending_.find({op.peer, r});
        if (pit != pending_.end() &&
            std::any_of(pit->second.begin(), pit->second.end(),
                        [&](const PendingEntry& p) {
                          return p.tag == op.tag && !p.in_channel;
                        })) {
          return;
        }
      }
    }
    const double deadline = op.entry + watchdog_;
    const bool p2p = !op.collective;
    // Prefer point-to-point victims: a stuck collective is usually the
    // downstream symptom of a rank stuck in a receive.
    const bool better =
        victim < 0 || (p2p && !victim_p2p) ||
        (p2p == victim_p2p && deadline < victim_deadline);
    if (better) {
      victim = r;
      victim_p2p = p2p;
      victim_deadline = deadline;
    }
  }
  if (victim < 0) return;

  const auto& op = blocked_ops_[static_cast<std::size_t>(victim)];
  timeout_victim_ = victim;
  timeout_info_ = CommErrorInfo{};
  timeout_info_.rank = victim;
  timeout_info_.peer = op.peer;
  timeout_info_.tag = op.tag;
  timeout_info_.site = op.site;
  timeout_info_.time = op.entry + watchdog_;
  timeout_info_.site_label = label_of(op.collective ? op.site : op.tag);
  abort_ = true;
  cv_.notify_all();
}

void Cluster::throw_released(int rank, const BlockedOp& op) {
  // Requires mu_. The rank was woken while still blocked: it is either
  // the watchdog's chosen victim or collateral of another failure.
  if (timeout_victim_ == rank) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = EventKind::Timeout;
      e.rank = rank;
      e.peer = timeout_info_.peer;
      e.tag = timeout_info_.tag;
      e.site = timeout_info_.site;
      e.t0 = e.t1 = op.entry;
      e.arrival = timeout_info_.time;
      e.wait = watchdog_;
      emit(e);
    }
    std::string what = "watchdog timeout: rank " +
                       std::to_string(rank) +
                       (op.collective
                            ? " blocked in collective"
                            : " blocked in recv from rank " +
                                  std::to_string(op.peer) + " tag " +
                                  std::to_string(op.tag)) +
                       " at " + timeout_info_.site_label +
                       ", no live rank can complete it (virtual deadline " +
                       std::to_string(timeout_info_.time) + " s)";
    throw CommTimeoutError(what, timeout_info_);
  }
  CommErrorInfo info;
  info.rank = rank;
  info.peer = op.peer;
  info.tag = op.tag;
  info.site = op.site;
  info.time = clocks_[static_cast<std::size_t>(rank)];
  info.site_label = label_of(op.collective ? op.site : op.tag);
  throw CommAbortError("rank " + std::to_string(rank) +
                           " released from blocking operation: another rank "
                           "of the run failed",
                       info);
}

Cluster::RunResult Cluster::run(const std::function<void(Comm&)>& fn) {
  // Reset state so a Cluster can run several programs.
  {
    std::lock_guard lock(mu_);
    channels_.clear();
    channel_seq_.clear();
    pending_.clear();
    clocks_.assign(static_cast<std::size_t>(nprocs_), 0.0);
    stats_.assign(static_cast<std::size_t>(nprocs_), RankStats{});
    coll_arrived_ = 0;
    coll_generation_ = 0;
    abort_ = false;
    finished_ = 0;
    blocked_ = 0;
    timeout_victim_ = -1;
    timeout_info_ = CommErrorInfo{};
    blocked_ops_.assign(static_cast<std::size_t>(nprocs_), BlockedOp{});
  }
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs_));
  threads.reserve(static_cast<std::size_t>(nprocs_));
  for (int r = 0; r < nprocs_; ++r) {
    threads.emplace_back([this, r, &fn, &errors] {
      Comm comm(*this, r);
      try {
        fn(comm);
        std::lock_guard lock(mu_);
        ++finished_;
        // A rank retiring can be the last event that makes the rest of
        // the cluster provably stuck.
        maybe_trip_watchdog();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Cooperative abort: release every rank blocked in a recv or
        // collective so all threads join instead of deadlocking.
        std::lock_guard lock(mu_);
        ++finished_;
        abort_ = true;
        cv_.notify_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Report messages that were sent but never received (channel map
  // iteration order is deterministic, so so is the event order). Done
  // before any rethrow so even an aborted run leaves a full trace.
  {
    std::lock_guard lock(mu_);
    for (const auto& [route, queue] : channels_) {
      for (const auto& msg : queue) {
        TraceEvent e;
        e.kind = EventKind::Unreceived;
        e.rank = route.first;
        e.peer = route.second;
        e.tag = msg.tag;
        e.bytes = msg.bytes;
        e.n_messages = msg.n_messages;
        e.msg_id = msg.msg_id;
        e.t0 = e.t1 = e.arrival = msg.arrival_time;
        emit(e);
      }
    }
    // Dropped messages awaiting a retransmit nobody drove (recovery
    // enabled, receiver never asked): logically sent, never received.
    // Entries whose original still sits in a channel were reported by
    // the loop above already.
    for (const auto& [route, entries] : pending_) {
      for (const auto& entry : entries) {
        if (entry.in_channel) continue;
        TraceEvent e;
        e.kind = EventKind::Unreceived;
        e.rank = route.first;
        e.peer = route.second;
        e.tag = entry.tag;
        e.bytes = entry.bytes;
        e.n_messages = entry.n_messages;
        e.msg_id = entry.msg_id;
        e.t0 = e.t1 = e.arrival = entry.original_arrival;
        emit(e);
      }
    }
  }
  // Surface the root cause: the lowest rank holding a non-abort error
  // (CommAbortErrors are the cascade released by the failure, not the
  // failure). Fall back to the first error of any kind.
  std::exception_ptr first;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!first) first = e;
    try {
      std::rethrow_exception(e);
    } catch (const CommAbortError&) {
      continue;
    } catch (...) {
      first = e;
      break;
    }
  }
  if (first) std::rethrow_exception(first);
  RunResult result;
  result.ranks = stats_;
  return result;
}

void Cluster::send_impl(int src, int dst, int tag, std::vector<double> data,
                        long long n_messages) {
  if (dst < 0 || dst >= nprocs_) {
    throw std::out_of_range("send to invalid rank " + std::to_string(dst));
  }
  const auto bytes =
      static_cast<long long>(data.size() * sizeof(double));
  const double cost = config_.message_time(bytes, n_messages);
  std::lock_guard lock(mu_);
  if (abort_) {
    CommErrorInfo info;
    info.rank = src;
    info.peer = dst;
    info.tag = tag;
    info.time = clocks_[static_cast<std::size_t>(src)];
    info.site_label = label_of(tag);
    throw CommAbortError("rank " + std::to_string(src) +
                             " send aborted: another rank of the run failed",
                         info);
  }
  auto& clock = clocks_[static_cast<std::size_t>(src)];
  auto& st = stats_[static_cast<std::size_t>(src)];
  const double before = clock;
  clock += cost;  // blocking, store-and-forward: sender pays in full
  st.comm_time += cost;
  st.messages_sent += n_messages;
  st.bytes_sent += bytes;
  // Deterministic message id: the per-channel sequence number. Matching
  // is FIFO per (src, dst, tag), so the id is identical across reruns.
  // Dropped messages consume an id too, keeping identities stable for
  // targeted fault schedules.
  const long long msg_id = channel_seq_[{src, dst}]++;
  // Integrity checksum taken before the fault hook may touch the
  // payload: the receiver recomputes and compares.
  const std::uint64_t checksum = payload_checksum(data);
  // Reliable delivery retains the pristine payload before the hook can
  // mutate it; the copy is kept only if this attempt actually fails.
  std::vector<double> pristine;
  if (recovery_.enabled && fault_ != nullptr) pristine = data;
  FaultDecision fd;
  if (fault_ != nullptr) {
    fd = fault_->on_message(src, dst, tag, msg_id, bytes, clock, data);
  }
  const double arrival = clock + fd.extra_delay;
  if (recovery_.enabled && (fd.drop || fd.corrupted)) {
    // Transport-layer retransmit buffer: the receiver replays this
    // logical message from the pristine payload (same checksum as the
    // original) when the attempt in flight turns out lost or damaged.
    PendingEntry entry;
    entry.tag = tag;
    entry.pristine = std::move(pristine);
    entry.departure = clock;
    entry.transfer = cost;
    entry.original_arrival = arrival;
    entry.msg_id = msg_id;
    entry.n_messages = n_messages;
    entry.bytes = bytes;
    entry.checksum = checksum;
    entry.in_channel = !fd.drop;
    pending_[{src, dst}].push_back(std::move(entry));
  }
  if (sink_ != nullptr) {
    TraceEvent e;
    e.kind = EventKind::Send;
    e.rank = src;
    e.t0 = before;
    e.t1 = clock;
    e.peer = dst;
    e.tag = tag;
    e.bytes = bytes;
    e.n_messages = n_messages;
    e.msg_id = msg_id;
    e.arrival = arrival;  // store-and-forward: departure (+ fault delay)
    emit(e);
    const auto fault_event = [&](EventKind kind, double wait) {
      TraceEvent f = e;
      f.kind = kind;
      f.t0 = f.t1 = clock;
      f.wait = wait;
      emit(f);
    };
    if (fd.extra_delay > 0.0) fault_event(EventKind::FaultDelay, fd.extra_delay);
    if (fd.corrupted) fault_event(EventKind::FaultCorrupt, 0.0);
    if (fd.drop) fault_event(EventKind::FaultDrop, 0.0);
  }
  if (!fd.drop) {
    channels_[{src, dst}].push_back(Message{tag, std::move(data), arrival,
                                            msg_id, n_messages, bytes,
                                            checksum});
  }
  cv_.notify_all();
}

std::vector<double> Cluster::recv_impl(int dst, int src, int tag) {
  if (src < 0 || src >= nprocs_) {
    throw std::out_of_range("recv from invalid rank " + std::to_string(src));
  }
  std::unique_lock lock(mu_);
  auto& queue = channels_[{src, dst}];
  auto& pending = pending_[{src, dst}];
  // MPI semantics: match the first message with this tag (FIFO per
  // (source, tag) pair), skipping messages with other tags.
  const auto find_match = [&] {
    return std::find_if(queue.begin(), queue.end(),
                        [tag](const Message& m) { return m.tag == tag; });
  };
  // With recovery enabled, a logical message whose original attempt
  // was dropped lives only in the retransmit buffer: it matches this
  // receive too. FIFO order is kept by logical id — the per-channel
  // sequence number the original attempt consumed.
  const auto find_pending_dropped = [&] {
    if (!recovery_.enabled) return pending.end();
    return std::find_if(pending.begin(), pending.end(),
                        [tag](const PendingEntry& p) {
                          return p.tag == tag && !p.in_channel;
                        });
  };
  auto match = find_match();
  auto dropped = find_pending_dropped();
  if (match == queue.end() && dropped == pending.end() && abort_) {
    BlockedOp op;
    op.peer = src;
    op.tag = tag;
    throw_released(dst, op);
  }
  if (match == queue.end() && dropped == pending.end()) {
    auto& op = blocked_ops_[static_cast<std::size_t>(dst)];
    op.active = true;
    op.collective = false;
    op.peer = src;
    op.tag = tag;
    op.site = -1;
    op.entry = clocks_[static_cast<std::size_t>(dst)];
    ++blocked_;
    maybe_trip_watchdog();
    cv_.wait(lock, [&] {
      match = find_match();
      dropped = find_pending_dropped();
      return match != queue.end() || dropped != pending.end() || abort_;
    });
    --blocked_;
    const BlockedOp released = op;
    op.active = false;
    if (match == queue.end() && dropped == pending.end()) {
      throw_released(dst, released);
    }
  }

  // The earliest logical message with this tag wins, whether its
  // original attempt reached the channel or evaporated in flight.
  if (dropped != pending.end() &&
      (match == queue.end() || dropped->msg_id < match->msg_id)) {
    PendingEntry entry = std::move(*dropped);
    pending.erase(dropped);
    return recv_recover(dst, src, std::move(entry),
                        /*original_corrupt=*/false);
  }

  const bool fifo_skip = match != queue.begin();
  Message msg = std::move(*match);
  queue.erase(match);
  if (payload_checksum(msg.data) != msg.checksum) {
    if (recovery_.enabled) {
      // NACK path: the attempt arrived damaged; replay it from the
      // sender's retained pristine payload under the same checksum.
      const auto pit = std::find_if(pending.begin(), pending.end(),
                                    [&](const PendingEntry& p) {
                                      return p.msg_id == msg.msg_id;
                                    });
      if (pit != pending.end()) {
        PendingEntry entry = std::move(*pit);
        pending.erase(pit);
        return recv_recover(dst, src, std::move(entry),
                            /*original_corrupt=*/true);
      }
    }
    CommErrorInfo info;
    info.rank = dst;
    info.peer = src;
    info.tag = tag;
    info.time = clocks_[static_cast<std::size_t>(dst)];
    info.site_label = label_of(tag);
    throw CommChecksumError(
        "checksum mismatch: message rank " + std::to_string(src) + " -> " +
            std::to_string(dst) + " tag " + std::to_string(tag) + " (" +
            std::to_string(msg.bytes) + " B, msg " +
            std::to_string(msg.msg_id) + ") was corrupted in flight at " +
            info.site_label,
        info);
  }
  auto& clock = clocks_[static_cast<std::size_t>(dst)];
  auto& st = stats_[static_cast<std::size_t>(dst)];
  const double before = clock;
  clock = std::max(clock, msg.arrival_time);
  st.comm_time += clock - before;  // waiting counts as communication
  st.wait_time += clock - before;
  st.messages_received += msg.n_messages;
  st.bytes_received += msg.bytes;
  if (sink_ != nullptr) {
    TraceEvent e;
    e.kind = EventKind::Recv;
    e.rank = dst;
    e.t0 = before;
    e.t1 = clock;
    e.peer = src;
    e.tag = tag;
    e.bytes = msg.bytes;
    e.n_messages = msg.n_messages;
    e.msg_id = msg.msg_id;
    e.arrival = msg.arrival_time;
    e.wait = clock - before;
    e.fifo_skip = fifo_skip;
    emit(e);
  }
  return std::move(msg.data);
}

std::vector<double> Cluster::recv_recover(int dst, int src,
                                          PendingEntry entry,
                                          bool original_corrupt) {
  // Requires mu_. The receiver drives the whole retry loop in virtual
  // time under the lock: retransmission k departs backoff_interval(k)
  // after attempt k-1 (timer-driven, like a transport-layer RTO — no
  // modeled NACK round trip) and each attempt draws a fresh,
  // deterministic fault decision under a per-attempt wire id. The
  // payload replayed is the sender's pristine copy, so a delivered
  // retransmission verifies against the *original* checksum and the
  // program's results stay bit-identical to a clean run.
  auto& st = stats_[static_cast<std::size_t>(dst)];
  auto& clock = clocks_[static_cast<std::size_t>(dst)];
  const double before = clock;
  double depart = entry.departure;
  bool last_corrupt = original_corrupt;
  double last_arrival = entry.original_arrival;
  int attempts = 1;  // the original wire attempt

  const auto mark = [&](EventKind kind, double t, double wait,
                        double arrival, int attempt) {
    if (sink_ == nullptr) return;
    TraceEvent e;
    e.kind = kind;
    e.rank = dst;  // receiver stream: deterministic in program order
    e.peer = src;
    e.tag = entry.tag;
    e.bytes = entry.bytes;
    e.n_messages = entry.n_messages;
    e.msg_id = entry.msg_id;
    e.t0 = e.t1 = t;
    e.wait = wait;
    e.arrival = arrival;
    e.attempts = attempt;
    emit(e);
  };

  for (int k = 1; k <= recovery_.budget; ++k) {
    depart += recovery_.backoff_interval(k);
    std::vector<double> wire = entry.pristine;
    FaultDecision fd;
    if (fault_ != nullptr) {
      fd = fault_->on_message(src, dst, entry.tag,
                              retransmit_wire_id(entry.msg_id, k),
                              entry.bytes, depart, wire);
    }
    ++attempts;
    ++st.retransmits;
    const double arrival = depart + entry.transfer + fd.extra_delay;
    mark(EventKind::Retransmit, depart, recovery_.backoff_interval(k),
         arrival, k);
    // Keep the trace-derived fault.* counters equal to the injector's
    // own: retransmitted attempts can fail again, and those decisions
    // are reported just like first-attempt ones (on this stream).
    if (fd.extra_delay > 0.0) {
      mark(EventKind::FaultDelay, depart, fd.extra_delay, arrival, k);
    }
    if (fd.corrupted) mark(EventKind::FaultCorrupt, depart, 0.0, arrival, k);
    if (fd.drop) mark(EventKind::FaultDrop, depart, 0.0, arrival, k);
    if (!fd.drop && payload_checksum(wire) == entry.checksum) {
      // Delivered under the original checksum. The extra idle past the
      // arrival the first attempt would have had is recovery time — a
      // sub-account of wait, so total accounting is unchanged.
      clock = std::max(clock, arrival);
      const double wait = clock - before;
      const double recovery =
          clock - std::max(before, entry.original_arrival);
      st.comm_time += wait;
      st.wait_time += wait;
      st.recovery_time += std::max(recovery, 0.0);
      st.messages_received += entry.n_messages;
      st.bytes_received += entry.bytes;
      st.recovered += 1;
      if (sink_ != nullptr) {
        TraceEvent e;
        e.kind = EventKind::Recv;
        e.rank = dst;
        e.t0 = before;
        e.t1 = clock;
        e.peer = src;
        e.tag = entry.tag;
        e.bytes = entry.bytes;
        e.n_messages = entry.n_messages;
        e.msg_id = entry.msg_id;
        e.arrival = arrival;
        e.wait = wait;
        e.recovery = std::max(recovery, 0.0);
        e.attempts = attempts;
        emit(e);
      }
      cv_.notify_all();
      return wire;
    }
    last_corrupt = !fd.drop;
    last_arrival = arrival;
  }

  // Budget exhausted: degrade into the fail-fast error the protocol
  // would have thrown on the first failure, with attempts attached.
  CommErrorInfo info;
  info.rank = dst;
  info.peer = src;
  info.tag = entry.tag;
  info.time = last_arrival;
  info.attempts = attempts;
  info.site_label = label_of(entry.tag);
  const std::string identity =
      "message rank " + std::to_string(src) + " -> " + std::to_string(dst) +
      " tag " + std::to_string(entry.tag) + " (" +
      std::to_string(entry.bytes) + " B, msg " +
      std::to_string(entry.msg_id) + ")";
  if (last_corrupt) {
    throw CommChecksumError(
        "checksum mismatch: " + identity + " still corrupted after " +
            std::to_string(attempts) + " attempts (retry budget " +
            std::to_string(recovery_.budget) + " exhausted) at " +
            info.site_label,
        info);
  }
  throw CommTimeoutError(
      "retry budget exhausted: " + identity + " lost " +
          std::to_string(attempts) + " times (budget " +
          std::to_string(recovery_.budget) + ") at " + info.site_label +
          ", giving up at virtual time " + std::to_string(last_arrival),
      info);
}

double Cluster::allreduce_impl(int rank, double value, bool is_max,
                               EventKind kind, int site) {
  std::unique_lock lock(mu_);
  if (abort_) {
    BlockedOp op;
    op.collective = true;
    op.site = site;
    throw_released(rank, op);
  }
  const long long my_generation = coll_generation_;
  if (coll_arrived_ == 0) {
    coll_value_max_ = value;
    coll_value_sum_ = value;
    coll_time_ = clocks_[static_cast<std::size_t>(rank)];
  } else {
    coll_value_max_ = std::max(coll_value_max_, value);
    coll_value_sum_ += value;
    coll_time_ =
        std::max(coll_time_, clocks_[static_cast<std::size_t>(rank)]);
  }
  ++coll_arrived_;
  stats_[static_cast<std::size_t>(rank)].collectives += 1;
  if (coll_arrived_ == nprocs_) {
    // Tree-structured collective: log2(P) message rounds each way.
    coll_rendezvous_ = coll_time_;
    int rounds = 0;
    for (int p = 1; p < nprocs_; p *= 2) ++rounds;
    coll_time_ += static_cast<double>(config_.collective_log_cost * rounds) *
                  config_.message_time(static_cast<long long>(sizeof(double)));
    coll_arrived_ = 0;
    ++coll_generation_;
    coll_result_max_ = coll_value_max_;
    coll_result_sum_ = coll_value_sum_;
    for (int r = 0; r < nprocs_; ++r) {
      auto& st = stats_[static_cast<std::size_t>(r)];
      const double entry = clocks_[static_cast<std::size_t>(r)];
      st.comm_time += coll_time_ - entry;
      st.wait_time += coll_rendezvous_ - entry;
      if (sink_ != nullptr) {
        // The last arriver emits every rank's event: blocked ranks
        // still hold their entry clocks, and appending here keeps each
        // rank's stream in program order.
        TraceEvent e;
        e.kind = kind;
        e.rank = r;
        e.t0 = entry;
        e.t1 = coll_time_;
        e.arrival = coll_rendezvous_;
        e.wait = coll_rendezvous_ - entry;
        e.coll_seq = my_generation;
        e.site = site;
        emit(e);
      }
      clocks_[static_cast<std::size_t>(r)] = coll_time_;
    }
    cv_.notify_all();
  } else {
    auto& op = blocked_ops_[static_cast<std::size_t>(rank)];
    op.active = true;
    op.collective = true;
    op.peer = -1;
    op.tag = -1;
    op.site = site;
    op.entry = clocks_[static_cast<std::size_t>(rank)];
    op.generation = my_generation;
    ++blocked_;
    maybe_trip_watchdog();
    cv_.wait(lock, [&] {
      return coll_generation_ != my_generation || abort_;
    });
    --blocked_;
    const BlockedOp released = op;
    op.active = false;
    if (coll_generation_ == my_generation) throw_released(rank, released);
  }
  return is_max ? coll_result_max_ : coll_result_sum_;
}

void Cluster::barrier_impl(int rank, int site) {
  (void)allreduce_impl(rank, 0.0, /*is_max=*/true, EventKind::Barrier, site);
}

}  // namespace autocfd::mp
