#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "autocfd/mp/cluster.hpp"
#include "autocfd/mp/recovery.hpp"

namespace autocfd::mp {
namespace {

TEST(MachineModel, MemoryFactorRegimes) {
  MachineConfig cfg;
  cfg.cache_bytes = 1000;
  cfg.memory_bytes = 100000;
  EXPECT_DOUBLE_EQ(cfg.memory_factor(500), cfg.cache_factor);
  EXPECT_DOUBLE_EQ(cfg.memory_factor(1000), cfg.cache_factor);
  EXPECT_GT(cfg.memory_factor(1500), cfg.cache_factor);
  EXPECT_LT(cfg.memory_factor(1500), cfg.ram_factor);
  // Graded curve: halving the working set inside the RAM regime
  // reduces the per-op cost (the Table 5 superlinear mechanism).
  EXPECT_LT(cfg.memory_factor(50000), cfg.memory_factor(100000));
  EXPECT_DOUBLE_EQ(cfg.memory_factor(100000), cfg.ram_factor);
  EXPECT_DOUBLE_EQ(cfg.memory_factor(1000000), cfg.thrash_factor);
  // Monotone non-decreasing across the whole range.
  double prev = 0.0;
  for (long long ws = 100; ws <= 500000; ws += 100) {
    const double f = cfg.memory_factor(ws);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(MachineModel, MessageTime) {
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 1e-6;
  EXPECT_DOUBLE_EQ(cfg.message_time(0), 1e-3);
  EXPECT_DOUBLE_EQ(cfg.message_time(1000), 2e-3);
}

TEST(ClusterRun, PingPongDeliversData) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  std::vector<double> received;
  auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, {1.0, 2.0, 3.0});
    } else {
      received = comm.recv(0, 7);
    }
  });
  EXPECT_EQ(received, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(result.ranks[0].messages_sent, 1);
  EXPECT_EQ(result.ranks[0].bytes_sent, 24);
}

TEST(ClusterRun, VirtualTimeIsDeterministic) {
  // Run the same program several times: virtual times must be
  // bit-identical no matter how the host schedules the threads.
  const auto program = [](Comm& comm) {
    comm.add_compute(0.5e-3 * (comm.rank() + 1));
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(100, 1.0));
    } else if (comm.rank() == 1) {
      (void)comm.recv(0, 0);
    }
    (void)comm.allreduce_max(static_cast<double>(comm.rank()));
  };
  Cluster cluster(4, MachineConfig::pentium_ethernet_1999());
  const auto first = cluster.run(program);
  for (int i = 0; i < 5; ++i) {
    const auto again = cluster.run(program);
    for (int r = 0; r < 4; ++r) {
      EXPECT_DOUBLE_EQ(again.ranks[static_cast<std::size_t>(r)].total_time(),
                       first.ranks[static_cast<std::size_t>(r)].total_time());
    }
  }
}

TEST(ClusterRun, RecvWaitsForSenderClock) {
  // Receiver is idle; sender computes 10 ms first. The receive must
  // complete no earlier than the sender's departure plus transfer.
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  Cluster cluster(2, cfg);
  double recv_clock = 0.0;
  (void)cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.add_compute(10e-3);
      comm.send(1, 0, {42.0});
    } else {
      (void)comm.recv(0, 0);
      recv_clock = comm.now();
    }
  });
  EXPECT_NEAR(recv_clock, 11e-3, 1e-9);
}

TEST(ClusterRun, SendIsBlockingStoreAndForward) {
  MachineConfig cfg;
  cfg.net_latency = 2e-3;
  cfg.net_byte_time = 1e-6;
  Cluster cluster(2, cfg);
  double sender_clock = 0.0;
  (void)cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(125, 0.0));  // 1000 bytes
      sender_clock = comm.now();
    } else {
      (void)comm.recv(0, 0);
    }
  });
  EXPECT_NEAR(sender_clock, 3e-3, 1e-9);  // alpha + 1000 * beta
}

TEST(ClusterRun, SendRecvExchanges) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  std::vector<double> got0, got1;
  (void)cluster.run([&](Comm& comm) {
    const double me = static_cast<double>(comm.rank());
    auto got = comm.sendrecv(1 - comm.rank(), 3, {me, me});
    if (comm.rank() == 0) {
      got0 = got;
    } else {
      got1 = got;
    }
  });
  EXPECT_EQ(got0, (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(got1, (std::vector<double>{0.0, 0.0}));
}

TEST(ClusterRun, AllReduceMaxAndSum) {
  Cluster cluster(5, MachineConfig::pentium_ethernet_1999());
  std::vector<double> maxes(5), sums(5);
  (void)cluster.run([&](Comm& comm) {
    const double v = static_cast<double>(comm.rank() + 1);
    maxes[static_cast<std::size_t>(comm.rank())] = comm.allreduce_max(v);
  });
  (void)cluster.run([&](Comm& comm) {
    const double v = static_cast<double>(comm.rank() + 1);
    sums[static_cast<std::size_t>(comm.rank())] = comm.allreduce_sum(v);
  });
  for (int r = 0; r < 5; ++r) {
    EXPECT_DOUBLE_EQ(maxes[static_cast<std::size_t>(r)], 5.0);
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], 15.0);
  }
}

// A released waiter must read its own collective's result even when
// the last arriver has already entered the next collective.
TEST(ClusterRun, BackToBackAllReducesKeepTheirResults) {
  Cluster cluster(4, MachineConfig::pentium_ethernet_1999());
  std::vector<int> wrong(4, 0);
  (void)cluster.run([&](Comm& comm) {
    for (int k = 0; k < 400; ++k) {
      const double v = static_cast<double>(comm.rank() + k);
      if (comm.allreduce_max(v) != static_cast<double>(3 + k)) {
        ++wrong[static_cast<std::size_t>(comm.rank())];
      }
    }
  });
  EXPECT_EQ(wrong, (std::vector<int>{0, 0, 0, 0}));
}

TEST(ClusterRun, AllReduceSynchronizesClocks) {
  Cluster cluster(3, MachineConfig::pentium_ethernet_1999());
  std::vector<double> clocks(3);
  (void)cluster.run([&](Comm& comm) {
    comm.add_compute(1e-3 * (comm.rank() + 1));
    (void)comm.allreduce_max(0.0);
    clocks[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  EXPECT_DOUBLE_EQ(clocks[0], clocks[1]);
  EXPECT_DOUBLE_EQ(clocks[1], clocks[2]);
  EXPECT_GE(clocks[0], 3e-3);  // at least the slowest rank's compute
}

TEST(ClusterRun, BarrierCompletes) {
  Cluster cluster(4, MachineConfig::pentium_ethernet_1999());
  std::vector<int> after(4, 0);
  (void)cluster.run([&](Comm& comm) {
    comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = 1;
    comm.barrier();
  });
  EXPECT_EQ(std::accumulate(after.begin(), after.end(), 0), 4);
}

TEST(ClusterRun, TagsMatchOutOfOrder) {
  // Two messages with different tags; receiver asks for the second tag
  // first. MPI matching must pick by tag, not arrival order.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  std::vector<double> a, b;
  (void)cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, {1.0});
      comm.send(1, 2, {2.0});
    } else {
      b = comm.recv(0, 2);
      a = comm.recv(0, 1);
    }
  });
  EXPECT_EQ(a, std::vector<double>{1.0});
  EXPECT_EQ(b, std::vector<double>{2.0});
}

TEST(ClusterRun, MultipleRunsAreIndependent) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  (void)cluster.run([](Comm& comm) { comm.add_compute(1.0); });
  const auto second = cluster.run([](Comm& comm) { comm.add_compute(0.5); });
  EXPECT_DOUBLE_EQ(second.ranks[0].compute_time, 0.5);
}

TEST(ClusterRun, ExceptionPropagates) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 if (comm.rank() == 1) throw std::runtime_error("rank died");
               }),
               std::runtime_error);
}

TEST(ClusterRun, InvalidRankThrows) {
  EXPECT_THROW(Cluster(0, MachineConfig{}), std::invalid_argument);
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 if (comm.rank() == 0) comm.send(5, 0, {1.0});
               }),
               std::out_of_range);
}

TEST(ClusterRun, ElapsedIsSlowest) {
  Cluster cluster(3, MachineConfig::pentium_ethernet_1999());
  const auto result = cluster.run([](Comm& comm) {
    comm.add_compute(1e-3 * (comm.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(result.elapsed(), 3e-3);
}


TEST(ClusterRun, ChunkedSendPaysPerMessageLatency) {
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  Cluster cluster(2, cfg);
  double sender_clock = 0.0;
  long long msgs = 0;
  auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_chunked(1, 0, std::vector<double>(10, 0.0), 50);
      sender_clock = comm.now();
    } else {
      (void)comm.recv(0, 0);
    }
  });
  msgs = result.ranks[0].messages_sent;
  EXPECT_NEAR(sender_clock, 50e-3, 1e-9);  // 50 x latency
  EXPECT_EQ(msgs, 50);
}

TEST(ClusterRun, ChunkedSendPaysByteCostOnce) {
  // n_messages x latency plus the byte cost exactly once.
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 1e-6;
  Cluster cluster(2, cfg);
  double sender_clock = 0.0;
  auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_chunked(1, 0, std::vector<double>(10, 0.0), 5);  // 80 bytes
      sender_clock = comm.now();
    } else {
      (void)comm.recv(0, 0);
    }
  });
  EXPECT_NEAR(sender_clock, 5e-3 + 80e-6, 1e-12);
  EXPECT_EQ(result.ranks[0].messages_sent, 5);
  EXPECT_EQ(result.ranks[0].bytes_sent, 80);
  // The single matching recv logs the same logical message count.
  EXPECT_EQ(result.ranks[1].messages_received, 5);
  EXPECT_EQ(result.ranks[1].bytes_received, 80);
}

TEST(ClusterRun, RecvWaitTimeIsArrivalMinusRecvClock) {
  // The quantity the tracer reports: max(recv clock, arrival) - recv
  // clock. Receiver reaches the recv at 1 ms; the message arrives at
  // sender departure (10 ms) + latency (1 ms) = 11 ms -> 10 ms wait.
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  Cluster cluster(2, cfg);
  auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.add_compute(10e-3);
      comm.send(1, 0, {42.0});
    } else {
      comm.add_compute(1e-3);
      (void)comm.recv(0, 0);
    }
  });
  EXPECT_NEAR(result.ranks[1].wait_time, 10e-3, 1e-12);
  EXPECT_NEAR(result.ranks[1].comm_time, 10e-3, 1e-12);
  // The sender's comm time is pure transfer, not waiting.
  EXPECT_NEAR(result.ranks[0].wait_time, 0.0, 1e-12);
  EXPECT_NEAR(result.ranks[0].comm_time, 1e-3, 1e-12);
}

TEST(ClusterRun, SendrecvCountsTwoLogicalMessagesPerRank) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  auto result = cluster.run([](Comm& comm) {
    (void)comm.sendrecv(1 - comm.rank(), 3, {1.0, 2.0});
  });
  for (int r = 0; r < 2; ++r) {
    const auto& st = result.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(st.messages_sent, 1);
    EXPECT_EQ(st.messages_received, 1);
    EXPECT_EQ(st.bytes_sent, 16);
    EXPECT_EQ(st.bytes_received, 16);
  }
}

TEST(ClusterRun, CollectivesIncrementOnEveryRank) {
  Cluster cluster(3, MachineConfig::pentium_ethernet_1999());
  auto result = cluster.run([](Comm& comm) {
    comm.barrier();
    (void)comm.allreduce_sum(1.0);
    (void)comm.allreduce_max(2.0);
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(result.ranks[static_cast<std::size_t>(r)].collectives, 3);
  }
}

TEST(ClusterRun, CollectiveWaitChargedToEarlyRanks) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  auto result = cluster.run([](Comm& comm) {
    if (comm.rank() == 1) comm.add_compute(5e-3);
    comm.barrier();
  });
  // Rank 0 idles 5 ms at the rendezvous; rank 1 arrives last and waits
  // for nobody. Both pay the tree cost on top (comm_time > wait_time).
  EXPECT_NEAR(result.ranks[0].wait_time, 5e-3, 1e-12);
  EXPECT_NEAR(result.ranks[1].wait_time, 0.0, 1e-12);
  EXPECT_GT(result.ranks[0].comm_time, result.ranks[0].wait_time);
  EXPECT_GT(result.ranks[1].comm_time, 0.0);
}

TEST(ClusterRun, CommTimePlusComputeEqualsClock) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  std::vector<double> clocks(2);
  auto result = cluster.run([&](Comm& comm) {
    comm.add_compute(1e-3);
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(64, 1.0));
    } else {
      (void)comm.recv(0, 0);
    }
    clocks[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(result.ranks[static_cast<std::size_t>(r)].total_time(),
                     clocks[static_cast<std::size_t>(r)]);
  }
}

TEST(ClusterRun, ZeroByteMessageDelivered) {
  // An empty payload is a legal message: it pays latency only, matches
  // normally, and its checksum verifies.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  bool got = false;
  std::vector<double> received{1.0};  // sentinel, must become empty
  auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 4, {});
    } else {
      received = comm.recv(0, 4);
      got = true;
    }
  });
  EXPECT_TRUE(got);
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(result.ranks[0].messages_sent, 1);
  EXPECT_EQ(result.ranks[0].bytes_sent, 0);
  EXPECT_EQ(result.ranks[1].bytes_received, 0);
}

TEST(ClusterRun, ChunkedSendNonPositiveCountClampsToOne) {
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  for (const long long n : {0LL, -5LL}) {
    Cluster cluster(2, cfg);
    double sender_clock = 0.0;
    auto result = cluster.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_chunked(1, 0, {1.0, 2.0}, n);
        sender_clock = comm.now();
      } else {
        (void)comm.recv(0, 0);
      }
    });
    EXPECT_NEAR(sender_clock, 1e-3, 1e-12) << n;  // exactly one latency
    EXPECT_EQ(result.ranks[0].messages_sent, 1) << n;
  }
}

TEST(ClusterHardening, ThrowingRankReleasesBlockedRecv) {
  // Regression: rank 0 is blocked in a recv that rank 1 would have
  // served; rank 1 dies first. The run must join all threads (no
  // deadlock, no std::terminate) and surface rank 1's error as the
  // root cause, not rank 0's release.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        (void)comm.recv(1, 7);
      } else {
        throw std::runtime_error("rank 1 exploded");
      }
    });
    FAIL() << "error was swallowed";
  } catch (const CommAbortError&) {
    FAIL() << "collateral abort shadowed the root cause";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 exploded");
  }
  // Partial stats of the failed run stay retrievable.
  EXPECT_EQ(cluster.last_stats().size(), 2u);
}

TEST(ClusterHardening, ThrowingRankReleasesBlockedCollective) {
  Cluster cluster(3, MachineConfig::pentium_ethernet_1999());
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 2) throw std::runtime_error("rank 2 exploded");
      comm.barrier();
    });
    FAIL() << "error was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 exploded");
  }
}

TEST(ClusterHardening, WatchdogConvertsHangToTimeout) {
  // Rank 1 receives a message nobody will ever send: with every live
  // rank blocked or finished the watchdog must convert the hang into a
  // CommTimeoutError naming the blocked operation.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  cluster.set_watchdog(2.0);
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 1) (void)comm.recv(0, 9);
    });
    FAIL() << "hang was not detected";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.info().rank, 1);
    EXPECT_EQ(e.info().peer, 0);
    EXPECT_EQ(e.info().tag, 9);
    EXPECT_DOUBLE_EQ(e.info().time, 2.0);  // entry clock 0 + deadline
    EXPECT_NE(std::string(e.what()).find("tag 9"), std::string::npos);
  }
}

TEST(ClusterHardening, WatchdogPrefersRecvOverCollateralCollective) {
  // Rank 0 hangs in a recv; ranks 1 and 2 reach a barrier that can
  // never complete. The recv is the root cause and must be the victim;
  // the barrier ranks are released as collateral aborts.
  Cluster cluster(3, MachineConfig::pentium_ethernet_1999());
  cluster.set_watchdog(1.0);
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        (void)comm.recv(2, 5);
      } else {
        comm.barrier();
      }
    });
    FAIL() << "hang was not detected";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.info().rank, 0);
    EXPECT_EQ(e.info().peer, 2);
    EXPECT_EQ(e.info().tag, 5);
  }
}

TEST(ClusterHardening, WatchdogEmitsTimeoutEvent) {
  struct Sink final : EventSink {
    std::vector<TraceEvent> events;
    void on_event(const TraceEvent& e) override { events.push_back(e); }
  } sink;
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  cluster.set_event_sink(&sink);
  cluster.set_watchdog(0.5);
  EXPECT_THROW((void)cluster.run([](Comm& comm) {
                 if (comm.rank() == 0) (void)comm.recv(1, 3);
               }),
               CommTimeoutError);
  bool saw_timeout = false;
  for (const auto& e : sink.events) {
    if (e.kind == EventKind::Timeout) {
      saw_timeout = true;
      EXPECT_EQ(e.rank, 0);
      EXPECT_EQ(e.peer, 1);
      EXPECT_EQ(e.tag, 3);
    }
  }
  EXPECT_TRUE(saw_timeout);
}

TEST(ClusterHardening, TagLabelerNamesTheSite) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  cluster.set_watchdog(1.0);
  cluster.set_tag_labeler(
      [](int id) { return "halo-exchange site " + std::to_string(id); });
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 1) (void)comm.recv(0, 6);
    });
    FAIL() << "hang was not detected";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.info().site_label, "halo-exchange site 6");
    EXPECT_NE(std::string(e.what()).find("halo-exchange site 6"),
              std::string::npos);
  }
}

namespace {
/// Inline hook corrupting / delaying / dropping by message tag.
struct TestHook final : FaultHook {
  int corrupt_tag = -1;
  int drop_tag = -1;
  int delay_tag = -1;
  double delay = 0.0;
  double factor_rank1 = 1.0;

  FaultDecision on_message(int, int, int tag, long long, long long, double,
                           std::vector<double>& payload) override {
    FaultDecision fd;
    if (tag == corrupt_tag && !payload.empty()) {
      payload[0] += 1.0;
      fd.corrupted = true;
    }
    if (tag == drop_tag) fd.drop = true;
    if (tag == delay_tag) fd.extra_delay = delay;
    return fd;
  }
  double compute_factor(int rank) override {
    return rank == 1 ? factor_rank1 : 1.0;
  }
};
}  // namespace

TEST(ClusterHardening, ChecksumCatchesCorruptedPayload) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TestHook hook;
  hook.corrupt_tag = 7;
  cluster.set_fault_hook(&hook);
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 7, {1.0, 2.0});
      } else {
        (void)comm.recv(0, 7);
      }
    });
    FAIL() << "corruption was consumed silently";
  } catch (const CommChecksumError& e) {
    EXPECT_EQ(e.info().rank, 1);
    EXPECT_EQ(e.info().peer, 0);
    EXPECT_EQ(e.info().tag, 7);
  }
}

TEST(ClusterHardening, FaultDelayShiftsArrivalNotSenderClock) {
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  Cluster cluster(2, cfg);
  TestHook hook;
  hook.delay_tag = 2;
  hook.delay = 50e-3;
  cluster.set_fault_hook(&hook);
  double sender_clock = 0.0, recv_clock = 0.0;
  (void)cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 2, {1.0});
      sender_clock = comm.now();
    } else {
      (void)comm.recv(0, 2);
      recv_clock = comm.now();
    }
  });
  EXPECT_NEAR(sender_clock, 1e-3, 1e-12);          // unchanged
  EXPECT_NEAR(recv_clock, 1e-3 + 50e-3, 1e-12);    // delayed in flight
}

TEST(ClusterHardening, DroppedMessageTripsWatchdogNotDeadlock) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TestHook hook;
  hook.drop_tag = 8;
  cluster.set_fault_hook(&hook);
  cluster.set_watchdog(1.5);
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 8, {1.0});
      } else {
        (void)comm.recv(0, 8);
      }
    });
    FAIL() << "drop was not detected";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.info().rank, 1);
    EXPECT_EQ(e.info().peer, 0);
    EXPECT_EQ(e.info().tag, 8);
  }
}

TEST(ClusterHardening, ComputeFactorSlowsStragglerOnly) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TestHook hook;
  hook.factor_rank1 = 3.0;
  cluster.set_fault_hook(&hook);
  auto result = cluster.run([](Comm& comm) { comm.add_compute(1e-3); });
  EXPECT_NEAR(result.ranks[0].compute_time, 1e-3, 1e-12);
  EXPECT_NEAR(result.ranks[1].compute_time, 3e-3, 1e-12);
}

namespace {
/// Hook failing only the first `fail_attempts` wire attempts of one
/// tag: the original transmission (and possibly early retransmits) are
/// lost or corrupted, later retransmits go through — the recovery
/// happy path. Wire attempts include retransmissions, which carry
/// their own synthetic message ids (see retransmit_wire_id).
struct FlakyHook final : FaultHook {
  int tag = -1;
  bool corrupt = false;  // false: drop; true: corrupt
  int fail_attempts = 1;
  int attempts_seen = 0;

  FaultDecision on_message(int, int, int t, long long, long long, double,
                           std::vector<double>& payload) override {
    FaultDecision fd;
    if (t != tag || attempts_seen++ >= fail_attempts) return fd;
    if (corrupt && !payload.empty()) {
      payload[0] += 0.5;
      fd.corrupted = true;
    } else {
      fd.drop = true;
    }
    return fd;
  }
  double compute_factor(int) override { return 1.0; }
};
}  // namespace

TEST(ClusterRecovery, DroppedMessageIsRetransmitted) {
  // The drop that DroppedMessageTripsWatchdogNotDeadlock fails fast on
  // is absorbed once reliable delivery is enabled: the retransmission
  // delivers the pristine payload and the run completes.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  FlakyHook hook;
  hook.tag = 8;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("default"));
  std::vector<double> got;
  const auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 8, {1.0, 2.0, 3.0});
    } else {
      got = comm.recv(0, 8);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(result.ranks[1].retransmits, 1);
  EXPECT_EQ(result.ranks[1].recovered, 1);
  EXPECT_GT(result.ranks[1].recovery_time, 0.0);
  // Retransmits are receiver-driven bookkeeping: the sender still
  // accounts exactly one logical message.
  EXPECT_EQ(result.ranks[0].messages_sent, 1);
  EXPECT_EQ(result.ranks[0].retransmits, 0);
  EXPECT_EQ(result.ranks[1].messages_received, 1);
}

TEST(ClusterRecovery, CorruptedMessageIsRetransmittedUnderSameChecksum) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  FlakyHook hook;
  hook.tag = 7;
  hook.corrupt = true;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("default"));
  std::vector<double> got;
  const auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, {4.0, 5.0});
    } else {
      got = comm.recv(0, 7);
    }
  });
  // The replay is the sender's retained pristine payload — corruption
  // leaves no numerical trace.
  EXPECT_EQ(got, (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(result.ranks[1].retransmits, 1);
  EXPECT_EQ(result.ranks[1].recovered, 1);
}

TEST(ClusterRecovery, BackoffScheduleIsDeterministic) {
  // Pin the machine so the schedule is exact arithmetic: transfer is
  // pure latency (1 ms). Store-and-forward: the sender pays the
  // transfer first, so the original is fully on the wire at t=1 ms
  // (its departure) and would arrive then too. Two drops: retransmit 1
  // departs at 1 + rto(2) = 3 ms, retransmit 2 at 3 + 4 = 7 ms
  // (doubled), landing at 7 + 1 = 8 ms.
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  Cluster cluster(2, cfg);
  FlakyHook hook;
  hook.tag = 3;
  hook.fail_attempts = 2;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("budget=8,rto=0.002,backoff=2,cap=0.02"));
  double recv_clock = 0.0;
  const auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, {1.0});
    } else {
      (void)comm.recv(0, 3);
      recv_clock = comm.now();
    }
  });
  EXPECT_NEAR(recv_clock, 8e-3, 1e-12);
  EXPECT_EQ(result.ranks[1].retransmits, 2);
  EXPECT_EQ(result.ranks[1].recovered, 1);
  // Recovery time is the idle past the arrival the original attempt
  // would have had: 8 ms - 1 ms.
  EXPECT_NEAR(result.ranks[1].recovery_time, 7e-3, 1e-12);
}

TEST(ClusterRecovery, BackoffIsCappedAtMaxBackoff) {
  // rto 1 ms with multiplier 10 would give 1, 10, 100 ms; the cap
  // clamps every interval past the first to 2 ms. The original departs
  // at 1 ms (store-and-forward); after 3 failures the delivering
  // retransmit departs at 1 + 1 + 2 + 2 = 6 ms and lands at 7 ms.
  MachineConfig cfg;
  cfg.net_latency = 1e-3;
  cfg.net_byte_time = 0.0;
  Cluster cluster(2, cfg);
  FlakyHook hook;
  hook.tag = 4;
  hook.fail_attempts = 3;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(
      RecoveryConfig::parse("budget=5,rto=0.001,backoff=10,cap=0.002"));
  double recv_clock = 0.0;
  (void)cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 4, {1.0});
    } else {
      (void)comm.recv(0, 4);
      recv_clock = comm.now();
    }
  });
  EXPECT_NEAR(recv_clock, 7e-3, 1e-12);
}

TEST(ClusterRecovery, BudgetExhaustionDegradesToTimeoutWithAttempts) {
  // Every wire attempt is lost: after budget retransmissions the
  // protocol degrades into the fail-fast error, carrying the full
  // attempt count (original + budget) and the message identity.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TestHook hook;
  hook.drop_tag = 9;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("budget=3"));
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 9, {1.0});
      } else {
        (void)comm.recv(0, 9);
      }
    });
    FAIL() << "exhausted budget did not surface";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.info().rank, 1);
    EXPECT_EQ(e.info().peer, 0);
    EXPECT_EQ(e.info().tag, 9);
    EXPECT_EQ(e.info().attempts, 4);  // original + 3 retransmissions
    EXPECT_NE(std::string(e.what()).find("budget 3"), std::string::npos);
  }
}

TEST(ClusterRecovery, BudgetExhaustionDegradesToChecksumWhenCorrupt) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  TestHook hook;
  hook.corrupt_tag = 6;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("budget=2"));
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 6, {1.0, 2.0});
      } else {
        (void)comm.recv(0, 6);
      }
    });
    FAIL() << "exhausted budget did not surface";
  } catch (const CommChecksumError& e) {
    EXPECT_EQ(e.info().rank, 1);
    EXPECT_EQ(e.info().tag, 6);
    EXPECT_EQ(e.info().attempts, 3);  // original + 2 retransmissions
  }
}

TEST(ClusterRecovery, FifoOrderSurvivesADroppedHead) {
  // Two messages on one tag; the first is dropped. FIFO must still
  // hold: the first recv returns the *recovered* first payload, never
  // the second message that is sitting intact in the channel.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  FlakyHook hook;
  hook.tag = 5;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("default"));
  std::vector<double> first, second;
  (void)cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {1.0});
      comm.send(1, 5, {2.0});
    } else {
      first = comm.recv(0, 5);
      second = comm.recv(0, 5);
    }
  });
  EXPECT_EQ(first, std::vector<double>{1.0});
  EXPECT_EQ(second, std::vector<double>{2.0});
}

TEST(ClusterRecovery, EmitsRetransmitEventsOnReceiverStream) {
  struct Sink final : EventSink {
    std::vector<TraceEvent> events;
    void on_event(const TraceEvent& e) override { events.push_back(e); }
  } sink;
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  cluster.set_event_sink(&sink);
  FlakyHook hook;
  hook.tag = 2;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("default"));
  (void)cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 2, {1.0});
    } else {
      (void)comm.recv(0, 2);
    }
  });
  int retransmits = 0;
  bool recovered_recv = false;
  for (const auto& e : sink.events) {
    if (e.kind == EventKind::Retransmit) {
      ++retransmits;
      EXPECT_EQ(e.rank, 1);  // receiver-driven, on the receiver stream
      EXPECT_EQ(e.peer, 0);
      EXPECT_EQ(e.tag, 2);
      EXPECT_EQ(e.t0, e.t1);  // zero-width marker
      EXPECT_EQ(e.attempts, 1);
    }
    if (e.kind == EventKind::Recv && e.attempts > 1) {
      recovered_recv = true;
      EXPECT_EQ(e.attempts, 2);
      EXPECT_GT(e.recovery, 0.0);
      EXPECT_LE(e.recovery, e.wait + 1e-12);
    }
  }
  EXPECT_EQ(retransmits, 1);
  EXPECT_TRUE(recovered_recv);
}

TEST(ClusterRecovery, AccountingInvariantsHoldThroughRecovery) {
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  FlakyHook hook;
  hook.tag = 1;
  hook.fail_attempts = 2;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("default"));
  double clock1 = 0.0;
  const auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.add_compute(1e-4);
      comm.send(1, 1, {1.0, 2.0});
    } else {
      comm.add_compute(2e-4);
      (void)comm.recv(0, 1);
      clock1 = comm.now();
    }
  });
  const auto& st = result.ranks[1];
  // recovery is a sub-account of wait, which is a sub-account of comm:
  // compute + comm still totals the rank clock exactly.
  EXPECT_LE(st.recovery_time, st.wait_time + 1e-12);
  EXPECT_LE(st.wait_time, st.comm_time + 1e-12);
  EXPECT_NEAR(st.compute_time + st.comm_time, clock1, 1e-12);
}

TEST(ClusterRecovery, WatchdogTreatsPendingRetransmitAsProgress) {
  // Regression: rank 1 blocks in recv(0, tag 5) whose message is
  // dropped (a pending retransmit with remaining budget — progress,
  // not a hang), then blocks in recv(0, tag 99) which nobody will ever
  // send. The watchdog must not trip on the recoverable receive; the
  // run fails on tag 99 with rank 1 as the victim.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  FlakyHook hook;
  hook.tag = 5;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig::parse("default"));
  cluster.set_watchdog(1.0);
  try {
    (void)cluster.run([](Comm& comm) {
      if (comm.rank() == 0) {
        // Give rank 1 time to block on the recv first, so the dropped
        // send lands while the receiver is already parked.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        comm.send(1, 5, {1.0});
      } else {
        (void)comm.recv(0, 5);   // recovered after one retransmit
        (void)comm.recv(0, 99);  // genuinely stuck
      }
    });
    FAIL() << "hang was not detected";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.info().rank, 1);
    EXPECT_EQ(e.info().peer, 0);
    EXPECT_EQ(e.info().tag, 99);
  }
}

TEST(ClusterRecovery, DisabledRecoveryKeepsFailFastSemantics) {
  // A default-constructed RecoveryConfig is disabled: the drop still
  // trips the watchdog exactly as before the protocol existed.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  FlakyHook hook;
  hook.tag = 8;
  cluster.set_fault_hook(&hook);
  cluster.set_recovery(RecoveryConfig{});
  cluster.set_watchdog(1.5);
  EXPECT_THROW((void)cluster.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 8, {1.0});
                 } else {
                   (void)comm.recv(0, 8);
                 }
               }),
               CommTimeoutError);
}

TEST(ClusterRecovery, ConfigParseValidatesAndRoundTrips) {
  const auto rc = RecoveryConfig::parse("budget=4,rto=0.01,backoff=3,cap=0.1");
  EXPECT_TRUE(rc.enabled);
  EXPECT_EQ(rc.budget, 4);
  EXPECT_DOUBLE_EQ(rc.rto, 0.01);
  EXPECT_DOUBLE_EQ(rc.backoff, 3.0);
  EXPECT_DOUBLE_EQ(rc.max_backoff, 0.1);
  EXPECT_EQ(RecoveryConfig::parse(rc.str()).str(), rc.str());
  EXPECT_TRUE(RecoveryConfig::parse("").enabled);
  EXPECT_TRUE(RecoveryConfig::parse("default").enabled);
  EXPECT_FALSE(RecoveryConfig{}.enabled);
  EXPECT_THROW((void)RecoveryConfig::parse("budget=0"),
               std::invalid_argument);
  EXPECT_THROW((void)RecoveryConfig::parse("rto=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)RecoveryConfig::parse("backoff=0.5"),
               std::invalid_argument);
  EXPECT_THROW((void)RecoveryConfig::parse("nonsense=1"),
               std::invalid_argument);
}

TEST(ClusterHardening, RunStateResetsAfterAbortedRun) {
  // A failed run must not poison the next one.
  Cluster cluster(2, MachineConfig::pentium_ethernet_1999());
  cluster.set_watchdog(1.0);
  EXPECT_THROW((void)cluster.run([](Comm& comm) {
                 if (comm.rank() == 0) (void)comm.recv(1, 1);
               }),
               CommTimeoutError);
  std::vector<double> got;
  auto result = cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, {4.0});
    } else {
      got = comm.recv(0, 1);
    }
  });
  EXPECT_EQ(got, std::vector<double>{4.0});
  EXPECT_EQ(result.ranks[0].messages_sent, 1);
}

}  // namespace
}  // namespace autocfd::mp
