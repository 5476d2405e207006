// Deterministic regression sentinel over a telemetry ledger.
//
// The sentinel turns the ledger's run history into a gate: for every
// (kind, input, engine, build_type, machine) group it forms a robust
// baseline — median and MAD over the last K earlier records — for each
// gating metric of the group's newest record, and flags the newest
// value when it falls outside the direction-aware tolerance.
// metric_direction is the repository's one rule for which keys gate:
// keys containing "elapsed" are lower-better, keys containing
// "speedup" or "identical" are higher-better, everything else is
// informational and never gates. A pair of bench sidecars is gated the
// same way: a two-record ledger run with min_history = 1.
//
// The median+MAD baseline makes the gate robust to the odd outlier in
// history (one slow CI run does not poison the baseline) while an
// actual regression — the newest record drifting beyond both the
// relative threshold and the noise band — trips it deterministically.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "autocfd/ledger/ledger.hpp"

namespace autocfd::ledger {

enum class Direction { LowerBetter, HigherBetter, Informational };

/// Which keys gate, and which way: "elapsed" lower-better, "speedup"
/// and "identical" higher-better, everything else informational.
[[nodiscard]] Direction metric_direction(const std::string& key);

struct SentinelOptions {
  /// Baseline window: how many earlier records of the group feed the
  /// median/MAD (fewer exist near the ledger's start).
  std::size_t window = 8;
  /// Minimum earlier records before a metric gates at all; below this
  /// the metric is reported as "no baseline yet" and never fails.
  std::size_t min_history = 3;
  /// Relative tolerance around the median (the floor of the band).
  double rel_threshold = 0.10;
  /// Noise band: the tolerance also admits mad_factor * MAD, so a
  /// metric whose history genuinely wobbles gets proportional slack.
  double mad_factor = 4.0;
};

/// One gated metric of one group's newest record.
struct SentinelFinding {
  std::string group;   // RunRecord::group_key()
  std::string input;   // the group's input, for the headline
  std::string metric;
  Direction direction = Direction::Informational;
  double value = 0.0;            // newest record's value
  double baseline_median = 0.0;  // over the window
  double baseline_mad = 0.0;
  double tolerance = 0.0;        // absolute band half-width applied
  std::size_t history = 0;       // earlier records consulted
  bool regressed = false;
};

struct SentinelReport {
  std::size_t groups = 0;           // groups with a newest record
  std::size_t metrics_checked = 0;  // gating metrics with enough history
  std::size_t metrics_waiting = 0;  // gating metrics below min_history
  /// Every checked metric, regressions first then by (group, metric).
  std::vector<SentinelFinding> findings;

  [[nodiscard]] std::vector<const SentinelFinding*> regressions() const;
  [[nodiscard]] bool ok() const { return regressions().empty(); }
};

/// Runs the sentinel over records in ledger (file) order: the last
/// record of each group is the candidate, the up-to-`window` records
/// before it are its baseline.
[[nodiscard]] SentinelReport run_sentinel(
    const std::vector<RunRecord>& records, const SentinelOptions& options = {});

/// Guards a candidate record against gating on nothing: when no record
/// before `records[index]` shares its group_key, but one of the same
/// kind and input exists under another engine, build_type or machine,
/// returns one "field: 'earlier' vs 'candidate'" entry per differing
/// field (against the latest such record). Empty when the candidate
/// has a comparable baseline or its input is new to the ledger.
[[nodiscard]] std::vector<std::string> identity_mismatch(
    const std::vector<RunRecord>& records, std::size_t index);

/// Human-readable verdict table (one line per checked metric, loud
/// REGRESSED lines first) and deterministic JSON for tooling.
void write_sentinel_text(const SentinelReport& report, std::ostream& os);
void write_sentinel_json(const SentinelReport& report, std::ostream& os);

}  // namespace autocfd::ledger
