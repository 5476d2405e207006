#include "autocfd/ledger/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "autocfd/obs/json_util.hpp"

namespace autocfd::ledger {

Direction metric_direction(const std::string& key) {
  if (key.find("elapsed") != std::string::npos) {
    return Direction::LowerBetter;
  }
  if (key.find("speedup") != std::string::npos ||
      key.find("identical") != std::string::npos) {
    return Direction::HigherBetter;
  }
  return Direction::Informational;
}

namespace {

/// Median of an unsorted copy; 0 for an empty series.
double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::LowerBetter: return "lower-better";
    case Direction::HigherBetter: return "higher-better";
    default: return "informational";
  }
}

}  // namespace

std::vector<const SentinelFinding*> SentinelReport::regressions() const {
  std::vector<const SentinelFinding*> out;
  for (const auto& f : findings) {
    if (f.regressed) out.push_back(&f);
  }
  return out;
}

SentinelReport run_sentinel(const std::vector<RunRecord>& records,
                            const SentinelOptions& options) {
  SentinelReport report;

  // Group records by identity, preserving ledger (chronological)
  // order within each group. std::map keys the result deterministically.
  std::map<std::string, std::vector<const RunRecord*>> groups;
  for (const auto& rec : records) groups[rec.group_key()].push_back(&rec);

  for (const auto& [key, series] : groups) {
    if (series.empty()) continue;
    ++report.groups;
    const RunRecord& newest = *series.back();

    for (const auto& [metric, value] : newest.metrics) {
      const Direction dir = metric_direction(metric);
      if (dir == Direction::Informational) continue;

      // Baseline: the last `window` earlier records carrying this
      // metric (a record that never measured it contributes nothing).
      std::vector<double> history;
      for (std::size_t i = series.size() - 1; i-- > 0;) {
        const auto it = series[i]->metrics.find(metric);
        if (it == series[i]->metrics.end()) continue;
        history.push_back(it->second);
        if (history.size() >= options.window) break;
      }
      if (history.size() < options.min_history) {
        ++report.metrics_waiting;
        continue;
      }
      ++report.metrics_checked;

      const double med = median_of(history);
      std::vector<double> deviations;
      deviations.reserve(history.size());
      for (const double v : history) deviations.push_back(std::fabs(v - med));
      const double mad = median_of(deviations);
      const double tol = std::max(options.rel_threshold * std::fabs(med),
                                  options.mad_factor * mad);

      SentinelFinding finding;
      finding.group = key;
      finding.input = newest.input;
      finding.metric = metric;
      finding.direction = dir;
      finding.value = value;
      finding.baseline_median = med;
      finding.baseline_mad = mad;
      finding.tolerance = tol;
      finding.history = history.size();
      finding.regressed = dir == Direction::LowerBetter
                              ? value > med + tol
                              : value < med - tol;
      report.findings.push_back(std::move(finding));
    }
  }

  // Regressions first so the verdict leads; then deterministic order.
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const SentinelFinding& a, const SentinelFinding& b) {
                     if (a.regressed != b.regressed) return a.regressed;
                     if (a.group != b.group) return a.group < b.group;
                     return a.metric < b.metric;
                   });
  return report;
}

std::vector<std::string> identity_mismatch(
    const std::vector<RunRecord>& records, std::size_t index) {
  const RunRecord& candidate = records.at(index);
  const RunRecord* other = nullptr;
  for (std::size_t i = 0; i < index; ++i) {
    const RunRecord& rec = records[i];
    if (rec.kind != candidate.kind || rec.input != candidate.input) continue;
    if (rec.group_key() == candidate.group_key()) return {};
    other = &rec;
  }
  if (other == nullptr) return {};
  std::vector<std::string> fields;
  const auto differ = [&fields](const char* name, const std::string& was,
                                const std::string& now) {
    if (was != now) {
      fields.push_back(std::string(name) + ": '" + was + "' vs '" + now +
                       "'");
    }
  };
  differ("engine", other->engine, candidate.engine);
  differ("build_type", other->build_type, candidate.build_type);
  differ("machine", other->machine, candidate.machine);
  return fields;
}

void write_sentinel_text(const SentinelReport& report, std::ostream& os) {
  const auto n_regressed = report.regressions().size();
  for (const auto& f : report.findings) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %-9s %-24s %-36s %.6g vs median %.6g (mad %.3g, "
                  "band +/-%.3g, %zu run(s), %s)\n",
                  f.regressed ? "REGRESSED" : "ok", f.input.c_str(),
                  f.metric.c_str(), f.value, f.baseline_median,
                  f.baseline_mad, f.tolerance, f.history,
                  direction_name(f.direction));
    os << line;
  }
  os << "perf_sentinel: " << report.groups << " group(s), "
     << report.metrics_checked << " metric(s) checked, "
     << report.metrics_waiting << " awaiting history, " << n_regressed
     << " regression(s)\n";
}

void write_sentinel_json(const SentinelReport& report, std::ostream& os) {
  using obs::json_escape;
  using obs::json_number;
  os << "{\n  \"groups\": " << report.groups
     << ",\n  \"metrics_checked\": " << report.metrics_checked
     << ",\n  \"metrics_waiting\": " << report.metrics_waiting
     << ",\n  \"regressions\": " << report.regressions().size()
     << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const auto& f = report.findings[i];
    os << (i > 0 ? "," : "") << "\n    {\"group\": \""
       << json_escape(f.group) << "\", \"input\": \""
       << json_escape(f.input) << "\", \"metric\": \""
       << json_escape(f.metric) << "\", \"direction\": \""
       << direction_name(f.direction) << "\", \"value\": "
       << json_number(f.value) << ", \"baseline_median\": "
       << json_number(f.baseline_median) << ", \"baseline_mad\": "
       << json_number(f.baseline_mad) << ", \"tolerance\": "
       << json_number(f.tolerance) << ", \"history\": " << f.history
       << ", \"regressed\": " << (f.regressed ? "true" : "false") << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace autocfd::ledger
