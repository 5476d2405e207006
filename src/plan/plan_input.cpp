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

  PlanInput in;
  in.schema_version = static_cast<int>(root->int_or("schema_version", 0));
  if (in.schema_version != prof::kRunReportSchemaVersion) {
    if (error != nullptr) {
      *error = "run report schema_version " +
               std::to_string(in.schema_version) + " (planner expects " +
               std::to_string(prof::kRunReportSchemaVersion) +
               "); re-generate the report with this build's "
               "`acfd --report=json`";
    }
    return std::nullopt;
  }

  in.title = root->str_or("title", "");
  in.partition = root->str_or("partition", "");
  in.nranks = static_cast<int>(root->int_or("nranks", 0));
  in.engine = root->str_or("engine", "");
  in.elapsed_s = root->num_or("elapsed_s", 0.0);
  in.total_flops = root->num_or("total_flops", 0.0);
  if (const auto* compile = root->find("compile")) {
    in.strategy = compile->str_or("strategy", "min");
  }

  if (const auto* profile = root->find("profile")) {
    in.total_compute_s = profile->num_or("total_compute_s", 0.0);
    for (const auto& v : profile->list("rank_compute_s")) {
      if (v.kind == JsonValue::Kind::Number) {
        in.rank_compute_s.push_back(v.number);
      }
    }
    for (const auto& e : profile->list("entries")) {
      PlanInput::Loop loop;
      loop.line = static_cast<int>(e.int_or("line", 0));
      loop.is_loop = e.bool_or("loop", false);
      loop.self_dependent = e.bool_or("self_dependent", false);
      loop.loop_class = e.str_or("class", "");
      loop.count = e.int_or("count", 0);
      loop.time_s = e.num_or("time_s", 0.0);
      loop.share = e.num_or("share", 0.0);
      in.loops.push_back(std::move(loop));
    }
  }

  for (const auto& s : root->list("sites")) {
    PlanInput::Site site;
    site.site = static_cast<int>(s.int_or("site", -1));
    site.kind = s.str_or("kind", "");
    site.label = s.str_or("label", "");
    site.messages = s.int_or("messages", 0);
    site.bytes = s.int_or("bytes", 0);
    site.wait_s = s.num_or("wait_s", 0.0);
    site.cost_s = s.num_or("cost_s", 0.0);
    in.sites.push_back(std::move(site));
  }

  if (const auto* comm = root->find("comm")) {
    for (const auto& n : comm->list("neighbors")) {
      PlanInput::Link link;
      link.src = static_cast<int>(n.int_or("src", -1));
      link.dst = static_cast<int>(n.int_or("dst", -1));
      link.messages = n.int_or("messages", 0);
      link.bytes = n.int_or("bytes", 0);
      link.wait_s = n.num_or("wait_s", 0.0);
      in.links.push_back(link);
    }
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
  in.schema_version = prof::kRunReportSchemaVersion;
  in.title = report.title;
  in.partition = report.partition;
  in.nranks = report.nranks;
  in.engine = report.engine;
  in.elapsed_s = report.elapsed_s;
  in.total_flops = report.total_flops;
  in.strategy = sync::combine_strategy_name(report.compile.strategy);

  in.total_compute_s = report.profile.total_seconds;
  in.rank_compute_s = report.profile.rank_seconds;
  for (const auto& e : report.profile.entries) {
    PlanInput::Loop loop;
    loop.line = e.loc.line;
    loop.is_loop = e.is_loop;
    loop.self_dependent = e.self_dependent;
    loop.loop_class = e.loop_class;
    loop.count = e.count;
    loop.time_s = e.time_s;
    loop.share = e.share;
    in.loops.push_back(std::move(loop));
  }
  for (const auto& s : report.sites) {
    PlanInput::Site site;
    site.site = s.site;
    site.kind = s.kind;
    site.label = s.label;
    site.messages = s.messages;
    site.bytes = s.bytes;
    site.wait_s = s.wait_s;
    site.cost_s = s.cost_s;
    in.sites.push_back(std::move(site));
  }
  for (const auto& f : report.comm.neighbors) {
    PlanInput::Link link;
    link.src = f.src;
    link.dst = f.dst;
    link.messages = f.messages;
    link.bytes = f.bytes;
    link.wait_s = f.wait_s;
    in.links.push_back(link);
  }
  return in;
}

}  // namespace autocfd::plan
