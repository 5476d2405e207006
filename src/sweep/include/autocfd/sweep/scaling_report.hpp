// ScalingReport: the cross-run artifact of the scaling observatory.
//
// Where a prof::RunReport observes one (nranks, partition, engine)
// configuration, a ScalingReport aggregates a whole sweep of them into
// the paper's Table-4 view and beyond: speedup and parallel-efficiency
// curves against the sweep's baseline, Karp-Flatt serial-fraction
// estimates, per-sync-site communication-share trends across scales
// (sites matched by their TagRegistry labels, which survive partition
// changes), per-rank imbalance/straggler trends, and a comm-bound vs
// compute-bound classification naming the site that dominates the
// communication bill where it crosses over.
//
// Serialized as versioned, deterministic JSON (fixed key order,
// json_number formatting) so that write -> read -> write is
// byte-identical and CI can diff sweeps, plus an obs::Document view
// (text or HTML) with efficiency-curve bars. Read back via obs::json_reader, the
// same reader the planner uses for run reports.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "autocfd/obs/document.hpp"

namespace autocfd::sweep {

/// Version stamp of the scaling-report JSON schema. Bump whenever a
/// field is added, removed, or changes meaning; consumers refuse
/// reports from another version instead of misreading them.
/// History: 1 = the scaling observatory's initial layout; 2 adds
/// reliable-delivery recovery (recovery_spec on the report,
/// recovery_s / retransmits on every cell).
inline constexpr int kScalingReportSchemaVersion = 2;

/// One sync-plan site's communication bill inside one cell, as a share
/// of the cell's total rank time. Matched across cells by (kind,
/// label) — the TagRegistry label names the combined sync point by its
/// member halos, so the "same" site is comparable across partitions.
struct SiteShare {
  int site = -1;  // site id within this cell's tag registry
  std::string kind;   // "halo" | "pipeline" | "collective"
  std::string label;  // TagRegistry label
  long long messages = 0;
  long long bytes = 0;
  double wait_s = 0.0;
  double cost_s = 0.0;
  /// (wait_s + cost_s) / cell total rank time.
  double share = 0.0;
};

/// One executed sweep cell: a (nranks, partition, engine, fault plan)
/// configuration with its measured run distilled to scaling metrics.
/// Every figure reconciles exactly with the cell's prof::RunReport —
/// compute/transfer/wait are the rank-breakdown sums, messages/bytes
/// the comm-matrix rank totals.
struct ScalingCell {
  int nranks = 0;
  std::string partition;  // PartitionSpec::str()
  std::string engine;     // "bytecode" | "tree"
  std::string fault_spec;  // FaultPlan::str(), empty when clean
  bool baseline = false;   // the cell the curves are normalized to

  double elapsed_s = 0.0;  // slowest rank's virtual time
  /// Relative speedup: baseline elapsed / this elapsed (or sequential
  /// elapsed / this elapsed when the sweep ran a sequential baseline
  /// and has no 1-rank cell).
  double speedup = 0.0;
  /// speedup * baseline ranks / nranks, in [0, 1] unless superlinear.
  double efficiency = 0.0;
  /// Karp-Flatt experimentally determined serial fraction
  /// (1/speedup - 1/p) / (1 - 1/p); 0 for the baseline itself and
  /// when the baseline is not a serial (1-rank or sequential) run.
  double karp_flatt = 0.0;

  // Rank-time decomposition summed over all ranks of the cell.
  double compute_s = 0.0;
  double transfer_s = 0.0;
  double wait_s = 0.0;
  /// Recovery wait summed over all ranks (sub-account of wait_s;
  /// nonzero only under a lossy fault plan with recovery on) and the
  /// wire retransmissions that caused it. Keeps lossy cells comparable
  /// to clean ones: elapsed_s - the recovery tax is visible per cell.
  double recovery_s = 0.0;
  long long retransmits = 0;
  /// (transfer + wait) / (compute + transfer + wait): the fraction of
  /// all rank time spent communicating.
  double comm_share = 0.0;

  /// Compute imbalance: max rank compute / mean rank compute (1.0 is
  /// perfectly balanced); straggler_rank is the argmax.
  double imbalance = 0.0;
  int straggler_rank = 0;

  long long messages = 0;  // wire messages, sender side, all ranks
  long long bytes = 0;

  int syncs_after = 0;       // combined sync points of this compile
  int pipelined_loops = 0;

  std::vector<SiteShare> sites;  // sorted by site id
};

/// One site's communication share tracked across every cell of the
/// sweep (shares[i] belongs to cells[i]; 0 where the site is absent).
struct SiteTrend {
  std::string kind;
  std::string label;
  std::vector<double> shares;
};

/// The planner's verdict for one scale point: its candidate table
/// scored against that scale's measured cell (the ROADMAP's
/// scaling-aware search).
struct PlanPoint {
  int nranks = 0;
  std::string measured_partition;
  double measured_s = 0.0;
  std::string planned_partition;
  std::string planned_strategy;
  double predicted_s = 0.0;         // planner's pick
  double static_predicted_s = 0.0;  // static heuristic under the model
  bool improves = false;  // planner predicts a win over the static pick
};

struct ScalingReport {
  int schema_version = kScalingReportSchemaVersion;
  std::string title;
  std::string strategy;    // combine strategy of every compile
  std::string fault_spec;  // sweep-wide fault plan, empty when clean
  /// RecoveryConfig::str() of the sweep-wide reliable-delivery
  /// protocol; empty when the sweep ran fail-fast.
  std::string recovery_spec;
  /// Sequential reference under the same machine model; 0 when the
  /// sweep did not run one.
  double seq_elapsed_s = 0.0;

  std::vector<ScalingCell> cells;      // spec order: ranks ascending
  std::vector<SiteTrend> site_trends;  // first-appearance order

  /// "comm-bound" when the largest scale spends more rank time
  /// communicating than computing, else "compute-bound".
  std::string classification;
  /// Smallest rank count whose cell is comm-dominated (-1: none).
  int crossover_nranks = -1;
  /// The site with the largest communication bill at the crossover
  /// scale (or at the largest scale when no cell crosses over).
  std::string crossover_site;
  std::string crossover_site_kind;

  std::vector<PlanPoint> plan_points;  // empty unless the spec asked
  /// argmin of predicted time over plan_points (0 when not planned).
  int recommended_nranks = 0;
  std::string recommended_partition;

  /// Deterministic JSON, byte-identical across write/read/write.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string json() const;
  /// The human view: cells, recovery, efficiency curves per engine,
  /// the site-share trend table, classification and planner verdict.
  [[nodiscard]] obs::Document document() const;

  /// Parses ScalingReport JSON; nullopt + diagnostic on malformed
  /// input or a schema_version mismatch.
  [[nodiscard]] static std::optional<ScalingReport> parse(
      std::string_view text, std::string* error);
  /// Reads and parses a report file from disk.
  [[nodiscard]] static std::optional<ScalingReport> load(
      const std::string& path, std::string* error);
};

/// JSON via write_json, text and HTML via document().
void write_scaling_report(const ScalingReport& report, obs::Format format,
                          std::ostream& os);

}  // namespace autocfd::sweep
