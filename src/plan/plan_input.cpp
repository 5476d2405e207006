#include "autocfd/plan/plan_input.hpp"

#include <fstream>
#include <sstream>

#include "autocfd/obs/json_reader.hpp"

namespace autocfd::plan {

using obs::JsonValue;
using obs::parse_json;

double PlanInput::loop_time(int line) const {
  double total = 0.0;
  for (const auto& l : loops) {
    if (l.line == line) total += l.time_s;
  }
  return total;
}

double PlanInput::site_cost(const std::string& kind) const {
  double total = 0.0;
  for (const auto& s : sites) {
    if (s.kind == kind) total += s.cost_s;
  }
  return total;
}

long long PlanInput::site_messages(const std::string& kind) const {
  long long total = 0;
  for (const auto& s : sites) {
    if (s.kind == kind) total += s.messages;
  }
  return total;
}

std::optional<PlanInput> plan_input_from_json(std::string_view text,
                                              std::string* error) {
  const auto root = parse_json(text, error);
  if (!root) {
    if (error != nullptr) *error = "run report: " + *error;
    return std::nullopt;
  }
  if (root->kind != JsonValue::Kind::Object) {
    if (error != nullptr) *error = "run report: top level is not an object";
    return std::nullopt;
  }

  const auto schema_version = root->int_or("schema_version", 0);
  if (schema_version != prof::kRunReportSchemaVersion) {
    if (error != nullptr) {
      *error = "run report schema_version " +
               std::to_string(schema_version) + " (planner expects " +
               std::to_string(prof::kRunReportSchemaVersion) +
               "); re-generate the report with this build's "
               "`acfd --report=json`";
    }
    return std::nullopt;
  }

  PlanInput in;
  in.title = root->str_or("title", "");
  in.partition = root->str_or("partition", "");
  in.nranks = static_cast<int>(root->int_or("nranks", 0));
  in.elapsed_s = root->num_or("elapsed_s", 0.0);
  if (const auto* compile = root->find("compile")) {
    in.strategy = compile->str_or("strategy", "min");
  }

  if (const auto* profile = root->find("profile")) {
    in.total_compute_s = profile->num_or("total_compute_s", 0.0);
    for (const auto& e : profile->list("entries")) {
      in.loops.push_back({static_cast<int>(e.int_or("line", 0)),
                          e.num_or("time_s", 0.0)});
    }
  }

  for (const auto& s : root->list("sites")) {
    in.sites.push_back({static_cast<int>(s.int_or("site", -1)),
                        s.str_or("kind", ""), s.str_or("label", ""),
                        s.int_or("messages", 0), s.num_or("cost_s", 0.0)});
  }
  return in;
}

std::optional<PlanInput> load_plan_input(const std::string& path,
                                         std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << file.rdbuf();
  auto in = plan_input_from_json(buf.str(), error);
  if (!in && error != nullptr) *error = path + ": " + *error;
  return in;
}

PlanInput plan_input_from_report(const prof::RunReport& report) {
  PlanInput in;
  in.title = report.title;
  in.partition = report.partition;
  in.nranks = report.nranks;
  in.elapsed_s = report.elapsed_s;
  in.strategy = sync::combine_strategy_name(report.compile.strategy);

  in.total_compute_s = report.profile.total_seconds;
  for (const auto& e : report.profile.entries) {
    in.loops.push_back({static_cast<int>(e.loc.line), e.time_s});
  }
  for (const auto& s : report.sites) {
    in.sites.push_back({s.site, s.kind, s.label, s.messages, s.cost_s});
  }
  return in;
}

}  // namespace autocfd::plan
