#include "autocfd/ledger/history.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>

#include "autocfd/ledger/sentinel.hpp"
#include "autocfd/obs/html_util.hpp"
#include "autocfd/obs/json_util.hpp"

namespace autocfd::ledger {

std::optional<HistoryFormat> parse_history_format(std::string_view name) {
  if (name.empty() || name == "text") return HistoryFormat::Text;
  if (name == "json") return HistoryFormat::Json;
  if (name == "html") return HistoryFormat::Html;
  return std::nullopt;
}

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

void write_text(const std::vector<GroupView>& groups, std::ostream& os,
                const HistoryOptions& options) {
  if (groups.empty()) {
    os << "history: no records\n";
    return;
  }
  for (const auto& group : groups) {
    const auto& head = *group.newest;
    os << "== " << head.kind << " " << head.input << " [" << head.engine
       << (head.engine.empty() ? "" : ", ") << head.build_type << ", "
       << head.machine << "] - " << group.records.size() << " record(s)\n";
    char line[256];
    std::snprintf(line, sizeof line, "   %-36s %10s %10s %10s %10s  %s\n",
                  "metric", "first", "last", "min", "max", "trend");
    os << line;
    for (const auto& [metric, values] : group.series) {
      if (!options.all_metrics && !is_headline(metric)) continue;
      const auto s = stats_of(values);
      std::snprintf(line, sizeof line,
                    "   %-36s %10.5g %10.5g %10.5g %10.5g  [%s]\n",
                    metric.c_str(), s.first, s.last, s.lo, s.hi,
                    sparkline(values, options.spark_width).c_str());
      os << line;
    }
    os << "\n";
  }
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

void write_html(const std::vector<GroupView>& groups, std::ostream& os,
                const HistoryOptions& options) {
  using obs::html_escape;
  os << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        "<title>acfd run history</title>\n<style>\n"
        "body { font-family: sans-serif; margin: 2em; color: #222; }\n"
        "h2 { border-bottom: 1px solid #ccc; padding-bottom: 0.2em; }\n"
        "table { border-collapse: collapse; margin: 0.6em 0 1.6em; }\n"
        "th, td { padding: 0.25em 0.9em; text-align: right; }\n"
        "th { background: #f0f0f0; }\n"
        "td.metric, th.metric { text-align: left; font-family: monospace; }\n"
        "td.spark { font-family: monospace; white-space: pre;"
        " letter-spacing: 0.05em; background: #fafafa; }\n"
        "tr:nth-child(even) { background: #f7f7fb; }\n"
        ".meta { color: #777; font-size: 0.9em; }\n"
        "</style>\n</head>\n<body>\n<h1>acfd run history</h1>\n";
  if (groups.empty()) {
    os << "<p>No records.</p>\n";
  }
  for (const auto& group : groups) {
    const auto& head = *group.newest;
    os << "<h2>" << html_escape(head.kind) << " &middot; "
       << html_escape(head.input) << "</h2>\n<p class=\"meta\">engine "
       << html_escape(head.engine.empty() ? "-" : head.engine)
       << " &middot; " << html_escape(head.build_type) << " &middot; "
       << html_escape(head.machine) << " &middot; " << group.records.size()
       << " record(s)</p>\n<table>\n<tr><th class=\"metric\">metric</th>"
          "<th>first</th><th>last</th><th>min</th><th>max</th>"
          "<th>trend</th></tr>\n";
    for (const auto& [metric, values] : group.series) {
      if (!options.all_metrics && !is_headline(metric)) continue;
      const auto s = stats_of(values);
      char cells[160];
      std::snprintf(cells, sizeof cells,
                    "<td>%.5g</td><td>%.5g</td><td>%.5g</td><td>%.5g</td>",
                    s.first, s.last, s.lo, s.hi);
      os << "<tr><td class=\"metric\">" << html_escape(metric) << "</td>"
         << cells << "<td class=\"spark\">"
         << html_escape(sparkline(values, options.spark_width))
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  os << "</body>\n</html>\n";
}

}  // namespace

void write_history(const std::vector<RunRecord>& records,
                   HistoryFormat format, std::ostream& os,
                   const HistoryOptions& options) {
  const auto groups = build_groups(records);
  switch (format) {
    case HistoryFormat::Text: write_text(groups, os, options); break;
    case HistoryFormat::Json: write_json(groups, os); break;
    case HistoryFormat::Html: write_html(groups, os, options); break;
  }
}

}  // namespace autocfd::ledger
