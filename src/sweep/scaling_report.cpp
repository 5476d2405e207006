#include "autocfd/sweep/scaling_report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "autocfd/obs/json_reader.hpp"
#include "autocfd/obs/json_util.hpp"

namespace autocfd::sweep {

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

// --------------------------------------------------------------- views

obs::Document ScalingReport::document() const {
  using obs::fmt_percent;
  using obs::fmt_ratio;
  using obs::fmt_seconds;
  obs::Document doc;
  doc.title = "scaling report: " + title;
  std::string summary =
      "strategy " + strategy + ", " +
      (fault_spec.empty() ? std::string("clean")
                          : "faults '" + fault_spec + "'");
  if (!recovery_spec.empty()) summary += ", recovery '" + recovery_spec + "'";
  if (seq_elapsed_s > 0.0) {
    summary += ", sequential baseline " + fmt_seconds(seq_elapsed_s);
  }
  doc.text(summary);

  doc.heading("cells");
  auto& table = doc.table({{"ranks"}, {"partition", true}, {"engine", true},
                           {"elapsed"}, {"speedup"}, {"eff"}, {"karp-flatt"},
                           {"comm%"}, {"imbal"}, {"syncs"}});
  for (const auto& c : cells) {
    table.add_row({std::to_string(c.nranks),
                   c.partition + (c.baseline ? "*" : ""), c.engine,
                   fmt_seconds(c.elapsed_s), fmt_ratio(c.speedup),
                   fmt_percent(c.efficiency), fmt_ratio(c.karp_flatt, 4),
                   fmt_percent(c.comm_share), fmt_ratio(c.imbalance),
                   std::to_string(c.syncs_after)});
  }
  doc.text("(* = baseline cell of its engine series)");

  bool any_recovery = false;
  for (const auto& c : cells) any_recovery |= c.retransmits > 0;
  if (any_recovery) {
    doc.heading("recovery (reliable delivery under the fault plan)");
    auto& rec = doc.table({{"ranks"}, {"partition", true}, {"engine", true},
                           {"retransmits"}, {"recovery wait"}, {"of wait"}});
    for (const auto& c : cells) {
      if (c.retransmits == 0) continue;
      rec.add_row({std::to_string(c.nranks), c.partition, c.engine,
                   std::to_string(c.retransmits), fmt_seconds(c.recovery_s),
                   fmt_percent(c.wait_s > 0.0 ? c.recovery_s / c.wait_s
                                              : 0.0)});
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
    doc.heading("parallel efficiency (" + engine + ")");
    auto& curve = doc.table({{"ranks"}, {"partition", true},
                             {"efficiency", true}, {"speedup"}});
    for (const auto& c : cells) {
      if (c.engine != engine) continue;
      curve.add_row({std::to_string(c.nranks), c.partition,
                     {c.efficiency, fmt_percent(c.efficiency)},
                     fmt_ratio(c.speedup) + "x"});
    }
  }

  if (!site_trends.empty()) {
    doc.heading("communication share by sync site (of total rank time)");
    std::vector<obs::Column> columns = {{"site", true}};
    for (const auto& c : cells) {
      columns.push_back({"p=" + std::to_string(c.nranks)});
    }
    auto& trends = doc.table(std::move(columns));
    for (const auto& t : site_trends) {
      std::vector<obs::Cell> row = {t.kind + " " + t.label};
      for (const auto share : t.shares) row.emplace_back(fmt_percent(share));
      trends.add_row(std::move(row));
    }
  }

  doc.heading("classification");
  doc.text(classification +
           (crossover_nranks > 0
                ? ": communication dominates from " +
                      std::to_string(crossover_nranks) + " ranks"
                : std::string(" throughout the sweep")));
  if (!crossover_site.empty()) {
    doc.text("dominant communication site: " + crossover_site_kind + " " +
             crossover_site);
  }

  if (!plan_points.empty()) {
    doc.heading("planner verdict per scale (scaling-aware search)");
    auto& verdict = doc.table({{"ranks"}, {"measured", true}, {"planned", true},
                               {"predicted"}, {"static"}});
    for (const auto& p : plan_points) {
      verdict.add_row({std::to_string(p.nranks), p.measured_partition,
                       p.planned_partition + " (" + p.planned_strategy +
                           ")" + (p.improves ? " +" : ""),
                       fmt_seconds(p.predicted_s),
                       fmt_seconds(p.static_predicted_s)});
    }
    if (recommended_nranks > 0) {
      doc.text("recommendation: " + std::to_string(recommended_nranks) +
               " ranks as " + recommended_partition +
               " (lowest predicted virtual time)");
    }
  }
  return doc;
}

void write_scaling_report(const ScalingReport& report, obs::Format format,
                          std::ostream& os) {
  if (format == obs::Format::Json) {
    report.write_json(os);
  } else {
    obs::render(report.document(), format, os);
  }
}

}  // namespace autocfd::sweep
