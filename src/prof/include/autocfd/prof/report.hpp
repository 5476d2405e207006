// Unified run report: one artifact joining what the pre-compiler
// decided (core::Report, explain-engine provenance) with what those
// decisions cost at runtime (source-attributed profile, communication
// matrix, per-rank time decomposition, per-site communication cost).
// Deterministic JSON for tools/CI, plus text and self-contained HTML
// views for humans. Emitted by `acfd --report[=json|text|html]` and
// consumed by examples/profile_viewer.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/obs/document.hpp"
#include "autocfd/prof/comm_matrix.hpp"
#include "autocfd/prof/source_profile.hpp"
#include "autocfd/trace/critical_path.hpp"

namespace autocfd::prof {

/// Version stamp of the run-report JSON schema. Bump whenever a field
/// is added, removed, or changes meaning; consumers (the planner)
/// refuse reports from another version instead of misreading them.
/// History: 1 = PR5's unversioned layout; 2 adds schema_version itself
/// and the compile-block "strategy"; 3 adds reliable-delivery recovery
/// accounting (recovery_s on ranks/cells/sites, retransmits on cells,
/// and the top-level "recovery" block).
inline constexpr int kRunReportSchemaVersion = 3;

/// One sync-plan site's end-to-end communication bill, joining the
/// TagRegistry entry with the traffic the trace attributed to it and
/// (for combined sync points) the explain engine's merge rationale.
struct SiteCost {
  int site = -1;
  std::string label;
  std::string kind;  // "halo" | "pipeline" | "collective"
  long long messages = 0;
  long long bytes = 0;
  double wait_s = 0.0;
  double cost_s = 0.0;  // send transfer (p2p) or tree cost (collective)
  /// Recovery wait attributed to this site's edges (sub-account of
  /// wait_s; nonzero only under reliable delivery with faults).
  double recovery_s = 0.0;
  std::string why;      // CombineMerge rationale when one matches
};

/// Reliable-delivery rollup of the run: trace-derived, reconciling
/// exactly with the runtime's RankStats counters (all zero when
/// recovery was off or no fault ever fired).
struct RecoverySummary {
  bool enabled = false;    // protocol was on for this run
  long long retransmits = 0;  // wire retransmissions driven
  long long recovered = 0;    // messages delivered after >= 1 retry
  double recovery_s = 0.0;    // summed recovery wait across ranks
};

struct RunReport {
  std::string title;      // input name ("aerofoil", path stem, ...)
  std::string partition;  // PartitionSpec::str(), e.g. "2x2"
  int nranks = 0;
  std::string engine;     // "tree" | "bytecode"
  double elapsed_s = 0.0;
  /// Sequential baseline under the same machine model; speedup is
  /// seq_elapsed_s / elapsed_s. Absent when the caller skipped it.
  std::optional<double> seq_elapsed_s;
  double total_flops = 0.0;

  core::Report compile;                       // pre-compiler summary
  std::vector<trace::RankBreakdown> ranks;    // compute/transfer/wait
  SourceProfile profile;
  CommMatrix comm;
  std::vector<SiteCost> sites;                // sorted by site id
  RecoverySummary recovery;                   // reliable-delivery rollup

  [[nodiscard]] std::optional<double> speedup() const {
    if (!seq_elapsed_s || elapsed_s <= 0.0) return std::nullopt;
    return *seq_elapsed_s / elapsed_s;
  }
};

struct ReportOptions {
  std::string title;
  std::string engine;
  std::optional<double> seq_elapsed_s;
  /// The run executed with the reliable-delivery protocol on; the
  /// report then includes the recovery rollup even if no fault fired.
  bool recovery_enabled = false;
};

/// Joins a finished run: the program (compile report, tags,
/// partition), its SpmdRunResult (must have been run with
/// SpmdRunOptions::profile), the recorded trace, and optionally the
/// provenance log (loop classes + merge rationales).
[[nodiscard]] RunReport build_run_report(const core::ParallelProgram& program,
                                         const codegen::SpmdRunResult& run,
                                         const trace::Trace& trace,
                                         const obs::ProvenanceLog* provenance,
                                         const ReportOptions& options);

/// Stable-schema JSON; key order fixed, deterministic for equal runs.
void write_report_json(const RunReport& report, std::ostream& os);
/// The human view: summary, hot loops, per-rank decomposition with an
/// ASCII timeline strip, communication matrix and site table.
[[nodiscard]] obs::Document report_document(const RunReport& report);

/// JSON via write_report_json, text and HTML via report_document.
void write_report(const RunReport& report, obs::Format format,
                  std::ostream& os);

}  // namespace autocfd::prof
