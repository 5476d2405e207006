// The scaling observatory: a declarative multi-run sweep harness.
//
// A SweepSpec names the grid of configurations to measure — rank
// counts x partition shapes x engines under one combine strategy and
// an optional fault plan. run_sweep() executes every cell through the
// existing pipeline (parallelize -> simulated cluster run with
// profiling and tracing on), captures a prof::RunReport per cell, and
// aggregates them into a deterministic ScalingReport: the per-run
// observability layer (PR 5) extended across scales, which is where
// the paper's headline evidence (Table 4's scaling study) lives.
//
// The spec is versioned JSON; an unknown schema_version is rejected
// with an actionable diagnostic instead of being misread. With
// `plan: true` the sweep closes the loop with src/plan: every scale
// point's measured cell is distilled into a plan::PlanInput and the
// planner's candidate table is scored against it, yielding a
// partition recommendation per rank count and an overall "what nprocs
// should I use" answer in one sweep.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/mp/machine.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/sweep/scaling_report.hpp"

namespace autocfd::sweep {

/// Version stamp of the sweep-spec JSON schema.
inline constexpr int kSweepSpecSchemaVersion = 1;

struct SweepSpec {
  int schema_version = kSweepSpecSchemaVersion;
  /// Report title; defaults to the input's stem when loaded by acfd.
  std::string title;
  /// Rank counts to sweep, in the order cells are executed. Each rank
  /// count runs under the static heuristic's partition choice unless
  /// `partitions` pins explicit shapes for it.
  std::vector<int> ranks;
  /// Optional explicit partition shapes per rank count ("4" ->
  /// ["2x2x1", "4x1x1"]); every listed shape becomes its own cell.
  std::map<int, std::vector<std::string>> partitions;
  /// Statement executors to sweep (virtual times are engine-invariant;
  /// sweeping both is a bit-identity check at scale).
  std::vector<std::string> engines = {"bytecode"};
  /// Combine strategy of every compile: "min" | "pairwise" | "none".
  std::string strategy = "min";
  /// fault::FaultPlan::parse spec applied to every cell; empty = clean.
  std::string faults;
  /// mp::RecoveryConfig::parse spec enabling reliable delivery in
  /// every cell ("" = fail-fast, "default" or "budget=8,rto=0.002,..."
  /// = recovery on). Lossy fault plans then yield completed,
  /// bit-identical cells whose recovery cost is measured per cell,
  /// keeping sweeps comparable instead of aborting at the first drop.
  std::string recovery;
  /// Also run the unrestructured sequential program once and record
  /// its elapsed time; it becomes the baseline when no 1-rank cell
  /// exists (the Table-4 seq-vs-par workflow).
  bool sequential_baseline = false;
  /// Score the planner's candidate table against every scale point's
  /// measured cell (fills ScalingReport::plan_points).
  bool plan = false;

  /// Parses a spec JSON document. Returns nullopt (with a diagnostic
  /// in `error`) on malformed JSON, an unknown schema_version, or an
  /// empty/invalid rank list.
  [[nodiscard]] static std::optional<SweepSpec> parse(std::string_view text,
                                                      std::string* error);
  /// Reads and parses a spec file.
  [[nodiscard]] static std::optional<SweepSpec> load(const std::string& path,
                                                     std::string* error);
};

struct SweepOptions {
  mp::MachineConfig machine = mp::MachineConfig::pentium_ethernet_1999();
  /// Watchdog deadline forwarded to every cell's run.
  double watchdog = mp::Cluster::kDefaultWatchdog;
  /// When non-empty, every executed cell appends one "sweep-cell"
  /// ledger::RunRecord here after the sweep completes — the scaling
  /// observatory's feed into the telemetry ledger. Append failures are
  /// reported through SweepResult::ledger_error, never thrown: a full
  /// disk must not discard a finished sweep.
  std::string ledger_path;
  /// Machine-model name stamped into ledger records; callers that
  /// swap `machine` should rename this to match.
  std::string machine_name = "pentium_ethernet_1999";
};

/// A finished sweep: the aggregated ScalingReport plus the underlying
/// per-cell run reports (cell_reports[i] backs report.cells[i]) for
/// reconciliation checks and per-cell drill-down.
struct SweepResult {
  ScalingReport report;
  std::vector<prof::RunReport> cell_reports;
  /// Diagnostic when SweepOptions::ledger_path was set and appending
  /// failed; empty on success (or when no ledger was requested).
  std::string ledger_error;
};

/// Executes the sweep. The source is parsed and analyzed once per
/// distinct (partition, strategy) configuration and every cell runs on
/// the simulated cluster with source-attributed profiling and tracing
/// on. Throws CompileError when the source does not analyze and
/// std::invalid_argument on malformed spec entries (bad partition
/// shapes, unknown engine or strategy names, rank counts that no
/// partition of the grid realizes).
[[nodiscard]] SweepResult run_sweep(const std::string& source,
                                    const core::Directives& directives,
                                    const SweepSpec& spec,
                                    const SweepOptions& options = {});

}  // namespace autocfd::sweep
