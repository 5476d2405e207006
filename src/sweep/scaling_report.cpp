#include "autocfd/sweep/scaling_report.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "autocfd/obs/html_util.hpp"
#include "autocfd/obs/json_reader.hpp"
#include "autocfd/obs/json_util.hpp"

namespace autocfd::sweep {

using obs::html_bar;
using obs::html_escape;
using obs::json_escape;
using obs::json_number;

// --------------------------------------------------------------- JSON

namespace {

void write_cell_json(const ScalingCell& c, std::ostream& os,
                     const char* indent) {
  os << "{\"nranks\": " << c.nranks << ", \"partition\": \""
     << json_escape(c.partition) << "\", \"engine\": \""
     << json_escape(c.engine) << "\", \"fault_spec\": \""
     << json_escape(c.fault_spec) << "\", \"baseline\": "
     << (c.baseline ? "true" : "false")
     << ",\n" << indent << " \"elapsed_s\": " << json_number(c.elapsed_s)
     << ", \"speedup\": " << json_number(c.speedup)
     << ", \"efficiency\": " << json_number(c.efficiency)
     << ", \"karp_flatt\": " << json_number(c.karp_flatt)
     << ",\n" << indent << " \"compute_s\": " << json_number(c.compute_s)
     << ", \"transfer_s\": " << json_number(c.transfer_s)
     << ", \"wait_s\": " << json_number(c.wait_s)
     << ", \"recovery_s\": " << json_number(c.recovery_s)
     << ", \"retransmits\": " << c.retransmits
     << ", \"comm_share\": " << json_number(c.comm_share)
     << ",\n" << indent << " \"imbalance\": " << json_number(c.imbalance)
     << ", \"straggler_rank\": " << c.straggler_rank
     << ", \"messages\": " << c.messages << ", \"bytes\": " << c.bytes
     << ", \"syncs_after\": " << c.syncs_after
     << ", \"pipelined_loops\": " << c.pipelined_loops
     << ",\n" << indent << " \"sites\": [";
  for (std::size_t i = 0; i < c.sites.size(); ++i) {
    const auto& s = c.sites[i];
    os << (i > 0 ? ",\n  " : "\n  ") << indent;
    os << "{\"site\": " << s.site << ", \"kind\": \"" << json_escape(s.kind)
       << "\", \"label\": \"" << json_escape(s.label)
       << "\", \"messages\": " << s.messages << ", \"bytes\": " << s.bytes
       << ", \"wait_s\": " << json_number(s.wait_s)
       << ", \"cost_s\": " << json_number(s.cost_s)
       << ", \"share\": " << json_number(s.share) << "}";
  }
  os << "]}";
}

}  // namespace

void ScalingReport::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema_version\": " << schema_version << ",\n";
  os << "  \"title\": \"" << json_escape(title) << "\",\n";
  os << "  \"strategy\": \"" << json_escape(strategy) << "\",\n";
  os << "  \"fault_spec\": \"" << json_escape(fault_spec) << "\",\n";
  os << "  \"recovery_spec\": \"" << json_escape(recovery_spec) << "\",\n";
  os << "  \"seq_elapsed_s\": " << json_number(seq_elapsed_s) << ",\n";
  os << "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << (i > 0 ? ",\n    " : "\n    ");
    write_cell_json(cells[i], os, "    ");
  }
  os << "\n  ],\n";
  os << "  \"site_trends\": [";
  for (std::size_t i = 0; i < site_trends.size(); ++i) {
    const auto& t = site_trends[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"kind\": \"" << json_escape(t.kind) << "\", \"label\": \""
       << json_escape(t.label) << "\", \"shares\": [";
    for (std::size_t j = 0; j < t.shares.size(); ++j) {
      os << (j > 0 ? ", " : "") << json_number(t.shares[j]);
    }
    os << "]}";
  }
  os << "],\n";
  os << "  \"classification\": \"" << json_escape(classification) << "\",\n";
  os << "  \"crossover_nranks\": " << crossover_nranks << ",\n";
  os << "  \"crossover_site\": \"" << json_escape(crossover_site) << "\",\n";
  os << "  \"crossover_site_kind\": \"" << json_escape(crossover_site_kind)
     << "\",\n";
  os << "  \"plan_points\": [";
  for (std::size_t i = 0; i < plan_points.size(); ++i) {
    const auto& p = plan_points[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"nranks\": " << p.nranks << ", \"measured_partition\": \""
       << json_escape(p.measured_partition)
       << "\", \"measured_s\": " << json_number(p.measured_s)
       << ", \"planned_partition\": \"" << json_escape(p.planned_partition)
       << "\", \"planned_strategy\": \"" << json_escape(p.planned_strategy)
       << "\", \"predicted_s\": " << json_number(p.predicted_s)
       << ", \"static_predicted_s\": " << json_number(p.static_predicted_s)
       << ", \"improves\": " << (p.improves ? "true" : "false") << "}";
  }
  os << "],\n";
  os << "  \"recommended_nranks\": " << recommended_nranks << ",\n";
  os << "  \"recommended_partition\": \"" << json_escape(recommended_partition)
     << "\"\n}\n";
}

std::string ScalingReport::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::optional<ScalingReport> ScalingReport::parse(std::string_view text,
                                                  std::string* error) {
  const auto root = obs::parse_json(text, error);
  if (!root) {
    if (error != nullptr) *error = "scaling report: " + *error;
    return std::nullopt;
  }
  if (root->kind != obs::JsonValue::Kind::Object) {
    if (error != nullptr) {
      *error = "scaling report: top level is not an object";
    }
    return std::nullopt;
  }
  ScalingReport rep;
  rep.schema_version = static_cast<int>(root->int_or("schema_version", 0));
  if (rep.schema_version != kScalingReportSchemaVersion) {
    if (error != nullptr) {
      *error = "scaling report schema_version " +
               std::to_string(rep.schema_version) + " (this build expects " +
               std::to_string(kScalingReportSchemaVersion) +
               "); re-generate the sweep with this build's `acfd --sweep`";
    }
    return std::nullopt;
  }
  rep.title = root->str_or("title", "");
  rep.strategy = root->str_or("strategy", "");
  rep.fault_spec = root->str_or("fault_spec", "");
  rep.recovery_spec = root->str_or("recovery_spec", "");
  rep.seq_elapsed_s = root->num_or("seq_elapsed_s", 0.0);
  for (const auto& c : root->list("cells")) {
    ScalingCell cell;
    cell.nranks = static_cast<int>(c.int_or("nranks", 0));
    cell.partition = c.str_or("partition", "");
    cell.engine = c.str_or("engine", "");
    cell.fault_spec = c.str_or("fault_spec", "");
    cell.baseline = c.bool_or("baseline", false);
    cell.elapsed_s = c.num_or("elapsed_s", 0.0);
    cell.speedup = c.num_or("speedup", 0.0);
    cell.efficiency = c.num_or("efficiency", 0.0);
    cell.karp_flatt = c.num_or("karp_flatt", 0.0);
    cell.compute_s = c.num_or("compute_s", 0.0);
    cell.transfer_s = c.num_or("transfer_s", 0.0);
    cell.wait_s = c.num_or("wait_s", 0.0);
    cell.recovery_s = c.num_or("recovery_s", 0.0);
    cell.retransmits = c.int_or("retransmits", 0);
    cell.comm_share = c.num_or("comm_share", 0.0);
    cell.imbalance = c.num_or("imbalance", 0.0);
    cell.straggler_rank = static_cast<int>(c.int_or("straggler_rank", 0));
    cell.messages = c.int_or("messages", 0);
    cell.bytes = c.int_or("bytes", 0);
    cell.syncs_after = static_cast<int>(c.int_or("syncs_after", 0));
    cell.pipelined_loops = static_cast<int>(c.int_or("pipelined_loops", 0));
    for (const auto& s : c.list("sites")) {
      SiteShare share;
      share.site = static_cast<int>(s.int_or("site", -1));
      share.kind = s.str_or("kind", "");
      share.label = s.str_or("label", "");
      share.messages = s.int_or("messages", 0);
      share.bytes = s.int_or("bytes", 0);
      share.wait_s = s.num_or("wait_s", 0.0);
      share.cost_s = s.num_or("cost_s", 0.0);
      share.share = s.num_or("share", 0.0);
      cell.sites.push_back(std::move(share));
    }
    rep.cells.push_back(std::move(cell));
  }
  for (const auto& t : root->list("site_trends")) {
    SiteTrend trend;
    trend.kind = t.str_or("kind", "");
    trend.label = t.str_or("label", "");
    for (const auto& v : t.list("shares")) {
      if (v.kind == obs::JsonValue::Kind::Number) {
        trend.shares.push_back(v.number);
      }
    }
    rep.site_trends.push_back(std::move(trend));
  }
  rep.classification = root->str_or("classification", "");
  rep.crossover_nranks =
      static_cast<int>(root->int_or("crossover_nranks", -1));
  rep.crossover_site = root->str_or("crossover_site", "");
  rep.crossover_site_kind = root->str_or("crossover_site_kind", "");
  for (const auto& p : root->list("plan_points")) {
    PlanPoint point;
    point.nranks = static_cast<int>(p.int_or("nranks", 0));
    point.measured_partition = p.str_or("measured_partition", "");
    point.measured_s = p.num_or("measured_s", 0.0);
    point.planned_partition = p.str_or("planned_partition", "");
    point.planned_strategy = p.str_or("planned_strategy", "");
    point.predicted_s = p.num_or("predicted_s", 0.0);
    point.static_predicted_s = p.num_or("static_predicted_s", 0.0);
    point.improves = p.bool_or("improves", false);
    rep.plan_points.push_back(std::move(point));
  }
  rep.recommended_nranks =
      static_cast<int>(root->int_or("recommended_nranks", 0));
  rep.recommended_partition = root->str_or("recommended_partition", "");
  return rep;
}

std::optional<ScalingReport> ScalingReport::load(const std::string& path,
                                                 std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << file.rdbuf();
  auto rep = parse(buf.str(), error);
  if (!rep && error != nullptr) *error = path + ": " + *error;
  return rep;
}

// --------------------------------------------------------------- text

namespace {

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os.precision(prec);
  os << std::fixed << v;
  return os.str();
}

std::string fmt_pct(double frac) { return fmt(frac * 100.0, 1) + "%"; }

/// A `width`-character bar filled to `frac` (clamped to [0, 1]).
std::string ascii_bar(double frac, int width) {
  const int fill = static_cast<int>(
      std::clamp(frac, 0.0, 1.0) * width + 0.5);
  std::string bar(static_cast<std::size_t>(width), '.');
  for (int i = 0; i < fill; ++i) bar[static_cast<std::size_t>(i)] = '#';
  return bar;
}

}  // namespace

void ScalingReport::write_text(std::ostream& os) const {
  os << "=== scaling report: " << title << " ===\n";
  os << "strategy " << strategy << ", "
     << (fault_spec.empty() ? std::string("clean")
                            : "faults '" + fault_spec + "'");
  if (!recovery_spec.empty()) os << ", recovery '" << recovery_spec << "'";
  if (seq_elapsed_s > 0.0) {
    os << ", sequential baseline " << fmt(seq_elapsed_s, 4) << " s";
  }
  os << "\n";

  os << "\n--- cells ---\n";
  os << "  ranks partition   engine    elapsed(s)  speedup    eff"
        "  karp-flatt  comm%   imbal  syncs\n";
  for (const auto& c : cells) {
    os << "  " << std::setw(5) << c.nranks << " " << std::setw(-1);
    std::ostringstream part;
    part << c.partition << (c.baseline ? "*" : "");
    os << part.str();
    for (std::size_t pad = part.str().size(); pad < 12; ++pad) os << ' ';
    os << c.engine;
    for (std::size_t pad = c.engine.size(); pad < 10; ++pad) os << ' ';
    os << std::setw(10) << fmt(c.elapsed_s, 4) << "  " << std::setw(7)
       << fmt(c.speedup, 2) << " " << std::setw(6) << fmt_pct(c.efficiency)
       << "  " << std::setw(10) << fmt(c.karp_flatt, 4) << " " << std::setw(6)
       << fmt_pct(c.comm_share) << "  " << std::setw(6) << fmt(c.imbalance, 2)
       << "  " << std::setw(5) << c.syncs_after << "\n";
  }
  os << "  (* = baseline cell of its engine series)\n";
  bool any_recovery = false;
  for (const auto& c : cells) any_recovery |= c.retransmits > 0;
  if (any_recovery) {
    os << "\n--- recovery (reliable delivery under the fault plan) ---\n";
    for (const auto& c : cells) {
      if (c.retransmits == 0) continue;
      os << "  p=" << std::setw(4) << c.nranks << " " << c.partition << " ("
         << c.engine << "): " << c.retransmits << " retransmits, "
         << fmt(c.recovery_s, 4) << " s recovery wait ("
         << fmt_pct(c.wait_s > 0.0 ? c.recovery_s / c.wait_s : 0.0)
         << " of wait)\n";
    }
  }

  // One efficiency curve per engine series: the bar is ideal-scaled,
  // so perfectly parallel cells fill it at every rank count.
  std::vector<std::string> engines;
  for (const auto& c : cells) {
    if (std::find(engines.begin(), engines.end(), c.engine) == engines.end()) {
      engines.push_back(c.engine);
    }
  }
  for (const auto& engine : engines) {
    os << "\n--- parallel efficiency (" << engine << ") ---\n";
    for (const auto& c : cells) {
      if (c.engine != engine) continue;
      os << "  p=" << std::setw(4) << c.nranks << " " << c.partition;
      for (std::size_t pad = c.partition.size(); pad < 10; ++pad) os << ' ';
      os << "|" << ascii_bar(c.efficiency, 32) << "| " << fmt_pct(c.efficiency)
         << "  (speedup " << fmt(c.speedup, 2) << "x)\n";
    }
  }

  if (!site_trends.empty()) {
    os << "\n--- communication share by sync site (of total rank time) "
          "---\n";
    os << "  site";
    for (std::size_t pad = 4; pad < 44; ++pad) os << ' ';
    for (const auto& c : cells) {
      os << std::setw(8) << ("p=" + std::to_string(c.nranks));
    }
    os << "\n";
    for (const auto& t : site_trends) {
      std::string name = t.kind + " " + t.label;
      if (name.size() > 42) name = name.substr(0, 39) + "...";
      os << "  " << name;
      for (std::size_t pad = name.size(); pad < 44; ++pad) os << ' ';
      for (const auto share : t.shares) os << std::setw(8) << fmt_pct(share);
      os << "\n";
    }
  }

  os << "\n--- classification ---\n";
  os << "  " << classification;
  if (crossover_nranks > 0) {
    os << ": communication dominates from " << crossover_nranks << " ranks";
  } else {
    os << " throughout the sweep";
  }
  os << "\n";
  if (!crossover_site.empty()) {
    os << "  dominant communication site: " << crossover_site_kind << " "
       << crossover_site << "\n";
  }

  if (!plan_points.empty()) {
    os << "\n--- planner verdict per scale (scaling-aware search) ---\n";
    os << "  ranks  measured          planned             predicted(s)"
          "  static(s)\n";
    for (const auto& p : plan_points) {
      std::string measured = p.measured_partition;
      std::string planned = p.planned_partition + " (" + p.planned_strategy +
                            ")" + (p.improves ? " +" : "");
      os << "  " << std::setw(5) << p.nranks << "  " << measured;
      for (std::size_t pad = measured.size(); pad < 16; ++pad) os << ' ';
      os << planned;
      for (std::size_t pad = planned.size(); pad < 20; ++pad) os << ' ';
      os << std::setw(12) << fmt(p.predicted_s, 4) << " " << std::setw(10)
         << fmt(p.static_predicted_s, 4) << "\n";
    }
    if (recommended_nranks > 0) {
      os << "  recommendation: " << recommended_nranks << " ranks as "
         << recommended_partition << " (lowest predicted virtual time)\n";
    }
  }
}

// --------------------------------------------------------------- html

void ScalingReport::write_html(std::ostream& os) const {
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
     << html_escape(title) << " — scaling report</title>\n<style>\n"
        "body{font-family:sans-serif;margin:2em;max-width:75em}\n"
        "table{border-collapse:collapse;margin:1em 0}\n"
        "td,th{border:1px solid #ccc;padding:0.3em 0.6em;text-align:right}\n"
        "th{background:#f0f0f0}\ntd.l,th.l{text-align:left}\n"
        ".bar{height:0.8em;min-width:1px;display:inline-block}\n"
        ".cell{width:12em}\n</style></head><body>\n";
  os << "<h1>Scaling report: " << html_escape(title) << "</h1>\n";
  os << "<p>strategy <b>" << html_escape(strategy) << "</b>, "
     << (fault_spec.empty()
             ? std::string("clean")
             : "faults <b>" + html_escape(fault_spec) + "</b>");
  if (!recovery_spec.empty()) {
    os << ", recovery <b>" << html_escape(recovery_spec) << "</b>";
  }
  if (seq_elapsed_s > 0.0) {
    os << ", sequential baseline <b>" << fmt(seq_elapsed_s, 4) << " s</b>";
  }
  os << ", classification <b>" << html_escape(classification) << "</b>";
  if (!crossover_site.empty()) {
    os << " (dominant site: " << html_escape(crossover_site_kind) << " "
       << html_escape(crossover_site) << ")";
  }
  os << "</p>\n";

  os << "<h2>Efficiency curve</h2>\n<table><tr><th>ranks</th>"
        "<th class=\"l\">partition</th><th class=\"l\">engine</th>"
        "<th>elapsed</th><th>speedup</th><th>efficiency</th>"
        "<th class=\"l cell\"></th><th>Karp–Flatt</th><th>comm share</th>"
        "<th>imbalance</th></tr>\n";
  for (const auto& c : cells) {
    os << "<tr><td>" << c.nranks << (c.baseline ? "*" : "")
       << "</td><td class=\"l\">" << html_escape(c.partition)
       << "</td><td class=\"l\">" << html_escape(c.engine) << "</td><td>"
       << fmt(c.elapsed_s, 4) << " s</td><td>" << fmt(c.speedup, 2)
       << "x</td><td>" << fmt_pct(c.efficiency) << "</td><td class=\"l cell\">"
       << html_bar(c.efficiency, "#4a90d9") << "</td><td>"
       << fmt(c.karp_flatt, 4) << "</td><td>" << fmt_pct(c.comm_share)
       << "</td><td>" << fmt(c.imbalance, 2) << "</td></tr>\n";
  }
  os << "</table>\n";

  if (!site_trends.empty()) {
    os << "<h2>Communication share by sync site</h2>\n<table><tr>"
          "<th class=\"l\">site</th>";
    for (const auto& c : cells) os << "<th>p=" << c.nranks << "</th>";
    os << "</tr>\n";
    for (const auto& t : site_trends) {
      os << "<tr><td class=\"l\">" << html_escape(t.kind) << " "
         << html_escape(t.label) << "</td>";
      for (const auto share : t.shares) {
        os << "<td>" << fmt_pct(share) << "</td>";
      }
      os << "</tr>\n";
    }
    os << "</table>\n";
  }

  if (!plan_points.empty()) {
    os << "<h2>Planner verdict per scale</h2>\n<table><tr><th>ranks</th>"
          "<th class=\"l\">measured</th><th class=\"l\">planned</th>"
          "<th>predicted</th><th>static predicted</th></tr>\n";
    for (const auto& p : plan_points) {
      os << "<tr><td>" << p.nranks << "</td><td class=\"l\">"
         << html_escape(p.measured_partition) << "</td><td class=\"l\">"
         << html_escape(p.planned_partition) << " ("
         << html_escape(p.planned_strategy) << ")" << (p.improves ? " +" : "")
         << "</td><td>" << fmt(p.predicted_s, 4) << " s</td><td>"
         << fmt(p.static_predicted_s, 4) << " s</td></tr>\n";
    }
    os << "</table>\n";
    if (recommended_nranks > 0) {
      os << "<p>recommendation: <b>" << recommended_nranks << " ranks as "
         << html_escape(recommended_partition) << "</b></p>\n";
    }
  }
  os << "</body></html>\n";
}

std::optional<SweepFormat> parse_sweep_format(std::string_view name) {
  if (name.empty() || name == "text") return SweepFormat::Text;
  if (name == "json") return SweepFormat::Json;
  if (name == "html") return SweepFormat::Html;
  return std::nullopt;
}

void write_scaling_report(const ScalingReport& report, SweepFormat format,
                          std::ostream& os) {
  switch (format) {
    case SweepFormat::Json: report.write_json(os); break;
    case SweepFormat::Text: report.write_text(os); break;
    case SweepFormat::Html: report.write_html(os); break;
  }
}

}  // namespace autocfd::sweep
