// Run-history views over a telemetry ledger: per-group trend tables
// with ASCII sparklines (text), a full machine-readable dump (json)
// and a self-contained dashboard (html). A "group" is the sentinel's
// comparison unit — (kind, input, engine, build_type, machine) — so
// what the dashboards trend is exactly what the sentinel gates.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "autocfd/ledger/ledger.hpp"
#include "autocfd/obs/document.hpp"

namespace autocfd::ledger {

struct HistoryOptions {
  /// Sparklines sample the last `spark_width` records of a series.
  int spark_width = 32;
  /// Text/HTML views show the gating metrics (elapsed / speedup /
  /// identical) plus a short headline set; this widens them to every
  /// metric the group ever recorded. JSON always emits everything.
  bool all_metrics = false;
};

/// Renders the records (ledger order): JSON with the full series of
/// every group, text and HTML as one obs::Document of trend tables.
void write_history(const std::vector<RunRecord>& records, obs::Format format,
                   std::ostream& os, const HistoryOptions& options = {});

/// The ASCII sparkline the views share: one character per sample,
/// " .:-=+*#%@" from the series minimum to its maximum (a flat series
/// renders as '='). Exposed for tests.
[[nodiscard]] std::string sparkline(const std::vector<double>& values,
                                    int width);

}  // namespace autocfd::ledger
