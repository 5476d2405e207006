#include "autocfd/ledger/history.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>

#include "autocfd/ledger/sentinel.hpp"
#include "autocfd/obs/json_util.hpp"

namespace autocfd::ledger {

std::string sparkline(const std::vector<double>& values, int width) {
  static const char kLevels[] = " .:-=+*#%@";
  constexpr int kNumLevels = 10;
  if (values.empty() || width <= 0) return "";
  const std::size_t n = values.size();
  const std::size_t take = std::min<std::size_t>(
      n, static_cast<std::size_t>(width));
  const std::size_t start = n - take;
  double lo = values[start], hi = values[start];
  for (std::size_t i = start; i < n; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  out.reserve(take);
  for (std::size_t i = start; i < n; ++i) {
    if (hi <= lo) {
      out += '=';
      continue;
    }
    const double t = (values[i] - lo) / (hi - lo);
    int level = static_cast<int>(t * (kNumLevels - 1) + 0.5);
    level = std::max(0, std::min(kNumLevels - 1, level));
    out += kLevels[level];
  }
  return out;
}

namespace {

/// One group's records in ledger order, with the metric series laid
/// out for rendering.
struct GroupView {
  std::string key;
  const RunRecord* newest = nullptr;
  std::vector<const RunRecord*> records;
  /// metric -> values, one per record that carried it (ledger order).
  std::map<std::string, std::vector<double>> series;
};

std::vector<GroupView> build_groups(const std::vector<RunRecord>& records) {
  std::map<std::string, GroupView> by_key;
  for (const auto& rec : records) {
    auto& group = by_key[rec.group_key()];
    group.key = rec.group_key();
    group.records.push_back(&rec);
    group.newest = &rec;
    for (const auto& [metric, value] : rec.metrics) {
      group.series[metric].push_back(value);
    }
  }
  std::vector<GroupView> out;
  out.reserve(by_key.size());
  for (auto& [key, group] : by_key) out.push_back(std::move(group));
  return out;
}

/// The metrics the human views lead with when all_metrics is off: the
/// gating keys plus the headline cost accounts.
bool is_headline(const std::string& metric) {
  if (metric_direction(metric) != Direction::Informational) return true;
  static const std::set<std::string> kHeadline = {
      "comm.share",        "comm.wait_s",   "comm.transfer_s",
      "comm.compute_s",    "total_flops",   "phase.total.wall_s",
      "cell.efficiency",   "cell.karp_flatt",
      "recovery.recovery_s",
  };
  return kHeadline.count(metric) > 0;
}

struct SeriesStats {
  double first = 0.0, last = 0.0, lo = 0.0, hi = 0.0;
};

SeriesStats stats_of(const std::vector<double>& values) {
  SeriesStats s;
  if (values.empty()) return s;
  s.first = values.front();
  s.last = values.back();
  s.lo = *std::min_element(values.begin(), values.end());
  s.hi = *std::max_element(values.begin(), values.end());
  return s;
}

obs::Document history_document(const std::vector<GroupView>& groups,
                               const HistoryOptions& options) {
  obs::Document doc;
  doc.title = "acfd run history";
  if (groups.empty()) doc.text("no records");
  for (const auto& group : groups) {
    const auto& head = *group.newest;
    doc.heading(head.kind + " " + head.input + " [" + head.engine +
                (head.engine.empty() ? "" : ", ") + head.build_type + ", " +
                head.machine + "] - " + std::to_string(group.records.size()) +
                " record(s)");
    auto& table = doc.table({{"metric", true}, {"first"}, {"last"}, {"min"},
                             {"max"}, {"trend", true}});
    for (const auto& [metric, values] : group.series) {
      if (!options.all_metrics && !is_headline(metric)) continue;
      const auto s = stats_of(values);
      std::string trend = "[";
      trend += sparkline(values, options.spark_width);
      trend += ']';
      table.add_row({metric, obs::fmt_number(s.first),
                     obs::fmt_number(s.last), obs::fmt_number(s.lo),
                     obs::fmt_number(s.hi), trend});
    }
  }
  return doc;
}

void write_json(const std::vector<GroupView>& groups, std::ostream& os) {
  using obs::json_escape;
  using obs::json_number;
  os << "{\n  \"schema_version\": " << kLedgerSchemaVersion
     << ",\n  \"groups\": [";
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& group = groups[g];
    const auto& head = *group.newest;
    os << (g > 0 ? "," : "") << "\n    {\"kind\": \""
       << json_escape(head.kind) << "\", \"input\": \""
       << json_escape(head.input) << "\", \"engine\": \""
       << json_escape(head.engine) << "\", \"build_type\": \""
       << json_escape(head.build_type) << "\", \"machine\": \""
       << json_escape(head.machine) << "\", \"records\": "
       << group.records.size() << ", \"series\": [";
    bool first = true;
    for (const auto& [metric, values] : group.series) {
      os << (first ? "" : ", ") << "\n      {\"metric\": \""
         << json_escape(metric) << "\", \"values\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i > 0 ? ", " : "") << json_number(values[i]);
      }
      os << "]}";
      first = false;
    }
    os << "\n    ]}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace

void write_history(const std::vector<RunRecord>& records, obs::Format format,
                   std::ostream& os, const HistoryOptions& options) {
  const auto groups = build_groups(records);
  if (format == obs::Format::Json) {
    write_json(groups, os);
  } else {
    obs::render(history_document(groups, options), format, os);
  }
}

}  // namespace autocfd::ledger
