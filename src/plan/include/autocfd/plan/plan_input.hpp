// PlanInput: the measured evidence one planning pass works from.
//
// A PlanInput is a distilled run report — the partition and combining
// strategy the run used, the per-source-line compute profile and the
// per-site communication bill. It can be loaded from the JSON that
// `acfd --report=json` wrote (the two-run CLI workflow) or lifted
// straight from an in-memory prof::RunReport (benches and tests).
// Loading validates the report's schema_version: a report written by
// another build is rejected with a diagnostic instead of being
// silently misread.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "autocfd/prof/report.hpp"

namespace autocfd::plan {

struct PlanInput {
  std::string title;
  std::string partition;  // PartitionSpec::str() of the measured run
  int nranks = 0;
  double elapsed_s = 0.0;
  std::string strategy;  // combine strategy name of the measured run

  double total_compute_s = 0.0;  // summed over ranks

  /// One source-attributed profile entry (loops and statements).
  struct Loop {
    int line = 0;
    double time_s = 0.0;  // attributed compute, summed over ranks
  };
  std::vector<Loop> loops;

  /// One sync-plan site's measured communication bill.
  struct Site {
    int site = -1;
    std::string kind;  // "halo" | "pipeline" | "collective"
    std::string label;
    long long messages = 0;
    double cost_s = 0.0;
  };
  std::vector<Site> sites;

  /// Measured compute seconds attributed to `line`, 0 when absent.
  [[nodiscard]] double loop_time(int line) const;
  /// Sum of site costs of one kind ("halo", "pipeline", "collective").
  [[nodiscard]] double site_cost(const std::string& kind) const;
  [[nodiscard]] long long site_messages(const std::string& kind) const;
};

/// Parses report JSON text into a PlanInput. Returns nullopt (with a
/// diagnostic in `error`) on malformed JSON or a schema_version other
/// than prof::kRunReportSchemaVersion.
[[nodiscard]] std::optional<PlanInput> plan_input_from_json(
    std::string_view text, std::string* error);

/// Reads and parses a report JSON file.
[[nodiscard]] std::optional<PlanInput> load_plan_input(
    const std::string& path, std::string* error);

/// In-memory path: distills a freshly built RunReport (no JSON round
/// trip, no version check needed — same build by construction).
[[nodiscard]] PlanInput plan_input_from_report(const prof::RunReport& report);

}  // namespace autocfd::plan
