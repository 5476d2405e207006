#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/mp/cluster.hpp"
#include "autocfd/trace/check.hpp"
#include "autocfd/trace/critical_path.hpp"
#include "autocfd/trace/export.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::trace {
namespace {

using mp::Cluster;
using mp::Comm;
using mp::EventKind;
using mp::MachineConfig;

MachineConfig latency_only() {
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  return cfg;
}

TEST(CriticalPath, EqualsElapsedOnTwoRankExchange) {
  // rank 0: compute 10 ms, send (1 ms latency).
  // rank 1: compute 1 ms, recv (waits), compute 2 ms.
  // The path is rank0.compute -> rank0.send -> edge -> rank1.compute,
  // and rank 1's own 1 ms of compute is NOT on it.
  Cluster cluster(2, latency_only());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  const auto result = cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.add_compute(10e-3);
      comm.send(1, 0, {1.0, 2.0});
    } else {
      comm.add_compute(1e-3);
      (void)comm.recv(0, 0);
      comm.add_compute(2e-3);
    }
  });

  const auto& trace = rec.trace();
  EXPECT_EQ(trace.nranks, 2);
  EXPECT_NEAR(trace.elapsed(), result.elapsed(), 1e-12);

  const auto path = critical_path(trace);
  EXPECT_NEAR(path.length, result.elapsed(), 1e-12);
  EXPECT_NEAR(path.length, 13e-3, 1e-9);
  EXPECT_NEAR(path.compute, 12e-3, 1e-9);   // 10 ms sender + 2 ms receiver
  EXPECT_NEAR(path.transfer, 1e-3, 1e-9);   // the send's latency
  // Path visits: compute(r0), send(r0), recv(r1), compute(r1).
  ASSERT_EQ(path.steps.size(), 4u);
  EXPECT_EQ(path.steps.front().event->rank, 0);
  EXPECT_EQ(path.steps.front().event->kind, EventKind::Compute);
  EXPECT_EQ(path.steps.back().event->rank, 1);
  EXPECT_EQ(path.steps.back().event->kind, EventKind::Compute);
}

TEST(CriticalPath, CollectiveAttributedToSlowestEntrant) {
  Cluster cluster(3, MachineConfig::pentium_ethernet_1999());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  const auto result = cluster.run([](Comm& comm) {
    comm.add_compute(1e-3 * (comm.rank() + 1));
    (void)comm.allreduce_max(static_cast<double>(comm.rank()));
  });
  const auto path = critical_path(rec.trace());
  EXPECT_NEAR(path.length, result.elapsed(), 1e-12);
  // The chain before the rendezvous must be rank 2's compute (3 ms).
  EXPECT_NEAR(path.compute, 3e-3, 1e-9);
  EXPECT_GT(path.collective, 0.0);
}

TEST(CriticalPath, WaitDecompositionSumsToCommTime) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  const auto result = cluster.run([](Comm& comm) {
    comm.add_compute(0.5e-3 * (comm.rank() + 1));
    comm.send(1 - comm.rank(), 3, std::vector<double>(32, 1.0));
    (void)comm.recv(1 - comm.rank(), 3);
    (void)comm.allreduce_sum(1.0);
  });
  const auto breakdown = rank_breakdown(rec.trace());
  ASSERT_EQ(breakdown.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    const auto& b = breakdown[static_cast<std::size_t>(r)];
    const auto& st = result.ranks[static_cast<std::size_t>(r)];
    EXPECT_NEAR(b.compute, st.compute_time, 1e-12);
    EXPECT_NEAR(b.transfer + b.wait, st.comm_time, 1e-12);
    EXPECT_NEAR(b.wait, st.wait_time, 1e-12);
    EXPECT_NEAR(b.total(), st.total_time(), 1e-12);
  }
}

TEST(Checker, FlagsInjectedTagMismatch) {
  // rank 0 sends tags 1 and 2; rank 1 only ever receives tag 2. The
  // tag-1 message rots in the channel: that is a mismatch (the
  // receiver demonstrably serviced this channel), and matching tag 2
  // past the queued tag-1 message is a non-FIFO anomaly.
  Cluster cluster(2, latency_only());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  (void)cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, {1.0});
      comm.send(1, 2, {2.0});
    } else {
      (void)comm.recv(0, 2);
    }
  });
  const auto& trace = rec.trace();
  ASSERT_EQ(trace.unreceived.size(), 1u);
  EXPECT_EQ(trace.unreceived[0].tag, 1);

  const auto findings = check_trace(trace);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().kind, Finding::Kind::TagMismatch);
  EXPECT_EQ(findings.front().rank, 0);
  EXPECT_EQ(findings.front().peer, 1);
  EXPECT_EQ(findings.front().tag, 1);
  EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                          [](const Finding& f) {
                            return f.kind == Finding::Kind::NonFifoMatch;
                          }));
  EXPECT_FALSE(communication_clean(findings));
}

TEST(Checker, UnreceivedWithoutRecvsIsNotAMismatch) {
  Cluster cluster(2, latency_only());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  (void)cluster.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 7, {1.0});
  });
  const auto findings = check_trace(rec.trace());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, Finding::Kind::UnreceivedMessage);
  EXPECT_FALSE(communication_clean(findings));
}

TEST(Checker, CleanExchangeHasNoFindings) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  (void)cluster.run([](Comm& comm) {
    comm.send(1 - comm.rank(), 0, {1.0});
    (void)comm.recv(1 - comm.rank(), 0);
    comm.barrier();
  });
  const auto findings = check_trace(rec.trace());
  EXPECT_TRUE(findings.empty());
  EXPECT_TRUE(communication_clean(findings));
}

TEST(Checker, FlagsRendezvousImbalance) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  (void)cluster.run([](Comm& comm) {
    if (comm.rank() == 1) comm.add_compute(1.0);
    comm.barrier();
  });
  const auto findings = check_trace(rec.trace());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, Finding::Kind::RendezvousImbalance);
  EXPECT_EQ(findings[0].rank, 1);  // the slowest entrant
  // Advisory: the run is still communication-correct.
  EXPECT_TRUE(communication_clean(findings));
}

TEST(Recorder, PerRankStreamsAreDeterministic) {
  const auto program = [](Comm& comm) {
    comm.add_compute(0.5e-3 * (comm.rank() + 1));
    comm.send(comm.rank() ^ 1, 5, {1.0, 2.0, 3.0});
    (void)comm.recv(comm.rank() ^ 1, 5);
    (void)comm.allreduce_max(static_cast<double>(comm.rank()));
  };
  Cluster cluster(4, MachineConfig::pentium_ethernet_1999());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  (void)cluster.run(program);
  const Trace first = rec.take();
  for (int i = 0; i < 3; ++i) {
    (void)cluster.run(program);
    const Trace again = rec.take();
    ASSERT_EQ(again.nranks, first.nranks);
    for (int r = 0; r < first.nranks; ++r) {
      const auto& a = first.per_rank[static_cast<std::size_t>(r)];
      const auto& b = again.per_rank[static_cast<std::size_t>(r)];
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].kind, b[k].kind);
        EXPECT_DOUBLE_EQ(a[k].t0, b[k].t0);
        EXPECT_DOUBLE_EQ(a[k].t1, b[k].t1);
        EXPECT_EQ(a[k].msg_id, b[k].msg_id);
      }
    }
  }
}

TEST(Export, ChromeTraceContainsLanesSpansAndFlows) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TraceRecorder rec;
  cluster.set_event_sink(&rec);
  (void)cluster.run([](Comm& comm) {
    comm.add_compute(1e-3);
    comm.send(1 - comm.rank(), 0, {1.0});
    (void)comm.recv(1 - comm.rank(), 0);
  });
  std::ostringstream os;
  write_chrome_trace(os, rec.trace());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow end
  // Crude structural sanity: braces and brackets balance.
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Integration: trace a full restructured SPMD run.
// ---------------------------------------------------------------------------

constexpr const char* kJacobi = R"(
!$acfd grid 32 24
!$acfd status t told
!$acfd partition 2x2
program heat
parameter (nx = 32, ny = 24)
real t(nx, ny), told(nx, ny)
real errmax
integer i, j, it
do it = 1, 20
  errmax = 0.0
  do i = 1, nx
    do j = 1, ny
      told(i, j) = t(i, j)
    end do
  end do
  do i = 2, nx - 1
    do j = 2, ny - 1
      t(i, j) = 0.25 * (told(i - 1, j) + told(i + 1, j) &
              + told(i, j - 1) + told(i, j + 1))
      errmax = max(errmax, abs(t(i, j) - told(i, j)))
    end do
  end do
end do
end
)";

TEST(SpmdTrace, AttributesEventsAndMatchesElapsed) {
  auto program = core::parallelize(kJacobi);
  ASSERT_FALSE(program->meta.tags.empty());

  TraceRecorder rec;
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  const auto result = program->run(machine, &rec);
  const auto& trace = rec.trace();

  EXPECT_EQ(trace.nranks, program->meta.spec.num_tasks());
  EXPECT_GT(trace.event_count(), 0u);
  EXPECT_NEAR(trace.elapsed(), result.elapsed, 1e-9);

  // Every point-to-point event must resolve to a registered site.
  for (const auto& events : trace.per_rank) {
    for (const auto& e : events) {
      if (e.kind == EventKind::Send || e.kind == EventKind::Recv) {
        EXPECT_NE(program->meta.tags.find(e.tag), nullptr)
            << "unattributed tag " << e.tag;
      }
    }
  }

  const auto path = critical_path(trace);
  EXPECT_NEAR(path.length, result.elapsed, 1e-9);

  const auto findings = check_trace(trace);
  EXPECT_TRUE(communication_clean(findings));

  const auto report = text_report(trace, &program->meta.tags);
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_NE(report.find("halo#"), std::string::npos);
}

TEST(SpmdTrace, BreakdownMatchesClusterStats) {
  auto program = core::parallelize(kJacobi);
  TraceRecorder rec;
  const auto result =
      program->run(mp::MachineConfig::pentium_ethernet_1999(), &rec);
  const auto breakdown = rank_breakdown(rec.trace());
  ASSERT_EQ(breakdown.size(), result.cluster.ranks.size());
  double slowest = 0.0;
  for (std::size_t r = 0; r < breakdown.size(); ++r) {
    EXPECT_NEAR(breakdown[r].compute, result.cluster.ranks[r].compute_time,
                1e-9);
    EXPECT_NEAR(breakdown[r].transfer + breakdown[r].wait,
                result.cluster.ranks[r].comm_time, 1e-9);
    slowest = std::max(slowest, breakdown[r].total());
  }
  // The slowest rank's compute + transfer + wait is the run's elapsed
  // time.
  EXPECT_NEAR(slowest, result.elapsed, 1e-9 * result.elapsed);
}

}  // namespace
}  // namespace autocfd::trace
