// Executes a restructured SPMD program on the simulated cluster.
//
// Each rank interprets the same restructured AST with its own
// environment: the acfd_lo*/acfd_hi* scalars describe the owned block,
// status arrays are allocated locally with ghost layers, and the
// interpreter's extension hook implements HaloExchange / AllReduce /
// Pipeline / Barrier against the mp::Cluster. Virtual time advances by
// interpreted flops x flop time x the memory-hierarchy factor of the
// rank's working set, plus the alpha-beta cost of every message.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autocfd/codegen/restructure.hpp"
#include "autocfd/interp/interpreter.hpp"
#include "autocfd/mp/cluster.hpp"

namespace autocfd::codegen {

/// A run's status arrays by name (SpmdRunResult::gathered,
/// SeqRunResult::arrays).
using ArrayMap = std::map<std::string, std::vector<double>>;

/// The validation every seq-vs-par and run-vs-run check uses: compares
/// `expected` and `actual` bit for bit (one memcmp per named array) and
/// describes the first mismatch in name order, or returns nullopt when
/// both hold the same arrays with the same bits. An array missing from
/// either side or of another length is a mismatch; a NaN matches only
/// the same NaN bits, and -0.0 does not match 0.0.
[[nodiscard]] std::optional<std::string> first_mismatch(
    const ArrayMap& expected, const ArrayMap& actual);

struct SpmdRunResult {
  mp::Cluster::RunResult cluster;
  double elapsed = 0.0;  // slowest rank's virtual time (seconds)
  /// Global status arrays assembled from the owned blocks (column
  /// major, same layout as a sequential run) — for validation.
  ArrayMap gathered;
  std::vector<std::string> rank0_output;
  double total_flops = 0.0;
  /// Bytecode-engine counters summed over all ranks (zeros when the
  /// run used the tree-walker).
  interp::bytecode::EngineStats engine_stats;
  /// One raw statement profile per rank when SpmdRunOptions::profile
  /// was set (empty otherwise). Keys point into the executed
  /// SourceFile; see interp/stmt_profile.hpp and prof/source_profile.hpp
  /// for the merged source-keyed views.
  std::vector<interp::StmtProfile> profiles;
};

/// Runtime knobs of a simulated SPMD run.
struct SpmdRunOptions {
  /// When non-null the cluster streams every event of the run into it
  /// (see autocfd/mp/events.hpp); pair with a trace::TraceRecorder and
  /// meta.tags to get an attributed execution trace.
  mp::EventSink* sink = nullptr;
  /// Fault-injection hook (e.g. a fault::FaultInjector); nullptr runs
  /// clean. The hook must outlive the run.
  mp::FaultHook* faults = nullptr;
  /// Watchdog deadline in virtual seconds (<= 0 disables); see
  /// mp::Cluster::set_watchdog.
  double watchdog = mp::Cluster::kDefaultWatchdog;
  /// Reliable-delivery protocol (ack/retransmit with virtual-time
  /// backoff); disabled by default — the fail-fast semantics. See
  /// mp::Cluster::set_recovery.
  mp::RecoveryConfig recovery{};
  /// Statement executor every rank's interpreter uses.
  interp::EngineKind engine = interp::EngineKind::Bytecode;
  /// Collect a per-rank source-attributed statement profile into
  /// SpmdRunResult::profiles. Off by default: with profiling off the
  /// hooks cost one pointer test per dispatched statement.
  bool profile = false;
};

/// Runs the restructured `file` on spec.num_tasks() simulated ranks.
/// The file is resolved in place (ProgramImage annotation). The
/// cluster gets meta.tags as its tag labeler, so communication errors
/// (timeout, checksum) name the sync-plan site that issued the
/// operation.
[[nodiscard]] SpmdRunResult run_spmd(fortran::SourceFile& file,
                                     const SpmdMeta& meta,
                                     const mp::MachineConfig& machine,
                                     const SpmdRunOptions& options);

/// Convenience overload: default options with an optional event sink.
[[nodiscard]] SpmdRunResult run_spmd(fortran::SourceFile& file,
                                     const SpmdMeta& meta,
                                     const mp::MachineConfig& machine,
                                     mp::EventSink* sink = nullptr);

struct SeqRunResult {
  double elapsed = 0.0;
  double flops = 0.0;
  ArrayMap arrays;  // status arrays
  std::vector<std::string> output;
  interp::bytecode::EngineStats engine_stats;
};

/// Runs an *unrestructured* sequential program under the same machine
/// model (flops x flop time x memory factor of the full working set).
[[nodiscard]] SeqRunResult run_sequential_timed(
    fortran::SourceFile& file, const std::vector<std::string>& status_arrays,
    const mp::MachineConfig& machine,
    interp::EngineKind engine = interp::EngineKind::Bytecode);

/// Appends the slab of `av` where dimension `dim` spans [d_lo, d_hi]
/// (global indices; every other dimension spans the full local
/// allocation) to `out` in column-major element order. The slab always
/// decomposes into lines that are contiguous in memory, which are
/// copied wholesale — this is the halo-packing fast path.
void pack_slab(const interp::ArrayValue& av, int dim, long long d_lo,
               long long d_hi, std::vector<double>& out);

/// Inverse of pack_slab: writes the same slab from `in` starting at
/// `pos` (advanced past the consumed elements). Throws CompileError
/// when `in` holds fewer elements than the slab needs.
void unpack_slab(interp::ArrayValue& av, int dim, long long d_lo,
                 long long d_hi, const std::vector<double>& in,
                 std::size_t& pos);

}  // namespace autocfd::codegen
