// Machine model of the simulated cluster.
//
// The paper's testbed was "a dedicated network of 6 Pentium
// workstations connected by Ethernet" (1999-2003 era). We reproduce it
// as a deterministic virtual-time model:
//   * computation: seconds per floating-point operation, scaled by a
//     memory-hierarchy factor (cache-resident, RAM-resident, or
//     thrashing) derived from the per-rank working-set size — this is
//     what produces the paper's superlinear regime (Table 5) and the
//     out-of-memory slowdowns it discusses;
//   * communication: the classic alpha-beta model, latency plus
//     per-byte cost, with no computation/communication overlap (the
//     paper notes overlap was not achievable with mirror-image sweeps).
#pragma once

#include <cstdint>

namespace autocfd::mp {

struct MachineConfig {
  // --- computation ---------------------------------------------------------
  double flop_time = 12e-9;  // ~83 Mflop/s sustained, late-90s Pentium II

  // --- memory hierarchy ----------------------------------------------------
  long long cache_bytes = 512LL * 1024;        // L2 cache
  long long memory_bytes = 64LL * 1024 * 1024; // RAM per workstation
  double cache_factor = 1.0;    // working set fits in cache
  double ram_factor = 2.6;      // streaming from RAM
  double thrash_factor = 30.0;  // paging to disk

  // --- network (alpha-beta) ------------------------------------------------
  // Plain 10 Mb/s Ethernet with TCP, as the paper's 1999-2003 testbed:
  // ~1 ms small-message latency, ~1 MB/s effective bandwidth.
  double net_latency = 0.8e-3;    // per message
  double net_byte_time = 1.0e-6;  // per byte
  int collective_log_cost = 2;    // latency multiplier for collectives

  /// Time `bytes` sent as `messages` back-to-back wire messages occupy
  /// sender and wire: one latency per message, the bytes once.
  [[nodiscard]] double message_time(long long bytes,
                                    long long messages = 1) const {
    return static_cast<double>(messages) * net_latency +
           static_cast<double>(bytes) * net_byte_time;
  }

  /// Per-flop slowdown for a given working-set size. Piecewise with a
  /// smooth ramp between regimes so scaling curves are not cliffed.
  [[nodiscard]] double memory_factor(long long working_set_bytes) const;

  /// The preset used by all paper-reproduction benches.
  [[nodiscard]] static MachineConfig pentium_ethernet_1999();
};

}  // namespace autocfd::mp
