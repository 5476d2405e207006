#include "autocfd/plan/plan_file.hpp"

#include <fstream>
#include <sstream>

#include "autocfd/obs/json_reader.hpp"
#include "autocfd/obs/json_util.hpp"

namespace autocfd::plan {

using obs::json_escape;
using obs::json_number;
using obs::JsonValue;
using obs::parse_json;

core::PlanOverrides PlanFile::to_overrides(std::string origin) const {
  core::PlanOverrides over;
  over.origin = std::move(origin);
  if (!partition.empty()) {
    over.partition = partition::PartitionSpec::parse(partition);
  }
  sync::CombineStrategy parsed;
  if (sync::parse_combine_strategy(strategy, parsed)) {
    over.strategy = parsed;
  }
  if (!rationale.empty()) over.decisions.push_back(rationale);
  over.decisions.insert(over.decisions.end(), decisions.begin(),
                        decisions.end());
  return over;
}

void PlanFile::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema_version\": " << schema_version << ",\n";
  os << "  \"planned_from\": \"" << json_escape(planned_from) << "\",\n";
  os << "  \"fault_spec\": \"" << json_escape(fault_spec) << "\",\n";
  os << "  \"nranks\": " << nranks << ",\n";
  os << "  \"partition\": \"" << json_escape(partition) << "\",\n";
  os << "  \"strategy\": \"" << json_escape(strategy) << "\",\n";
  os << "  \"static_partition\": \"" << json_escape(static_partition)
     << "\",\n";
  os << "  \"static_strategy\": \"" << json_escape(static_strategy)
     << "\",\n";
  os << "  \"predicted_s\": " << json_number(predicted_s) << ",\n";
  os << "  \"static_predicted_s\": " << json_number(static_predicted_s)
     << ",\n";
  os << "  \"rationale\": \"" << json_escape(rationale) << "\",\n";
  os << "  \"decisions\": [";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << json_escape(decisions[i]) << "\"";
  }
  os << "],\n";
  os << "  \"candidates\": [";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = candidates[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"partition\": \"" << json_escape(c.partition)
       << "\", \"strategy\": \"" << json_escape(c.strategy)
       << "\", \"feasible\": " << (c.feasible ? "true" : "false")
       << ", \"predicted_s\": " << json_number(c.predicted_s)
       << ", \"compute_s\": " << json_number(c.compute_s)
       << ", \"comm_s\": " << json_number(c.comm_s)
       << ", \"pipeline_s\": " << json_number(c.pipeline_s)
       << ", \"fault_s\": " << json_number(c.fault_s)
       << ", \"syncs_after\": " << c.syncs_after
       << ", \"pipelined_loops\": " << c.pipelined_loops
       << ", \"chosen\": " << (c.chosen ? "true" : "false")
       << ", \"is_static\": " << (c.is_static ? "true" : "false")
       << ", \"note\": \"" << json_escape(c.note) << "\"}";
  }
  os << "\n  ]\n}\n";
}

std::string PlanFile::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::optional<PlanFile> PlanFile::parse(std::string_view text,
                                        std::string* error) {
  const auto root = parse_json(text, error);
  if (!root) {
    if (error != nullptr) *error = "plan file: " + *error;
    return std::nullopt;
  }
  if (root->kind != JsonValue::Kind::Object) {
    if (error != nullptr) *error = "plan file: top level is not an object";
    return std::nullopt;
  }
  PlanFile plan;
  plan.schema_version = static_cast<int>(root->int_or("schema_version", 0));
  if (plan.schema_version != kPlanFileSchemaVersion) {
    if (error != nullptr) {
      *error = "plan file schema_version " +
               std::to_string(plan.schema_version) + " (this build expects " +
               std::to_string(kPlanFileSchemaVersion) +
               "); re-generate the plan with `acfd --plan-from`";
    }
    return std::nullopt;
  }
  plan.planned_from = root->str_or("planned_from", "");
  plan.fault_spec = root->str_or("fault_spec", "");
  plan.nranks = static_cast<int>(root->int_or("nranks", 0));
  plan.partition = root->str_or("partition", "");
  plan.strategy = root->str_or("strategy", "");
  plan.static_partition = root->str_or("static_partition", "");
  plan.static_strategy = root->str_or("static_strategy", "");
  plan.predicted_s = root->num_or("predicted_s", 0.0);
  plan.static_predicted_s = root->num_or("static_predicted_s", 0.0);
  plan.rationale = root->str_or("rationale", "");
  for (const auto& d : root->list("decisions")) {
    if (d.kind == JsonValue::Kind::String) plan.decisions.push_back(d.string);
  }
  for (const auto& c : root->list("candidates")) {
    Candidate cand;
    cand.partition = c.str_or("partition", "");
    cand.strategy = c.str_or("strategy", "");
    cand.feasible = c.bool_or("feasible", true);
    cand.predicted_s = c.num_or("predicted_s", 0.0);
    cand.compute_s = c.num_or("compute_s", 0.0);
    cand.comm_s = c.num_or("comm_s", 0.0);
    cand.pipeline_s = c.num_or("pipeline_s", 0.0);
    cand.fault_s = c.num_or("fault_s", 0.0);
    cand.syncs_after = static_cast<int>(c.int_or("syncs_after", 0));
    cand.pipelined_loops = static_cast<int>(c.int_or("pipelined_loops", 0));
    cand.chosen = c.bool_or("chosen", false);
    cand.is_static = c.bool_or("is_static", false);
    cand.note = c.str_or("note", "");
    plan.candidates.push_back(std::move(cand));
  }
  if (plan.partition.empty() || plan.strategy.empty()) {
    if (error != nullptr) {
      *error = "plan file: missing chosen partition/strategy";
    }
    return std::nullopt;
  }
  return plan;
}

std::optional<PlanFile> PlanFile::load(const std::string& path,
                                       std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << file.rdbuf();
  auto plan = parse(buf.str(), error);
  if (!plan && error != nullptr) *error = path + ": " + *error;
  return plan;
}

}  // namespace autocfd::plan
