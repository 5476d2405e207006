#include "autocfd/obs/provenance.hpp"

#include <sstream>

#include "autocfd/obs/json_util.hpp"

namespace autocfd::obs {

const char* decision_kind_name(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::LoopClassification: return "loop_classification";
    case DecisionKind::ScalarClassification: return "scalar_classification";
    case DecisionKind::SelfDependence: return "self_dependence";
    case DecisionKind::RegionHoist: return "region_hoist";
    case DecisionKind::RegionPin: return "region_pin";
    case DecisionKind::RegionExtent: return "region_extent";
    case DecisionKind::CombineMerge: return "combine_merge";
    case DecisionKind::PipelineMerge: return "pipeline_merge";
    case DecisionKind::PartitionChoice: return "partition_choice";
    case DecisionKind::PlannerOverride: return "planner_override";
  }
  return "?";
}

const char* decision_kind_tag(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::LoopClassification: return "classify";
    case DecisionKind::ScalarClassification: return "scalar";
    case DecisionKind::SelfDependence: return "self-dep";
    case DecisionKind::RegionHoist: return "hoist";
    case DecisionKind::RegionPin: return "pin";
    case DecisionKind::RegionExtent: return "region";
    case DecisionKind::CombineMerge: return "combine";
    case DecisionKind::PipelineMerge: return "pipeline";
    case DecisionKind::PartitionChoice: return "partition";
    case DecisionKind::PlannerOverride: return "planned";
  }
  return "?";
}

void ProvenanceLog::add(DecisionKind kind, SourceLoc loc, std::string subject,
                        std::string decision, std::string rationale,
                        std::vector<int> refs) {
  ProvenanceEntry e;
  e.kind = kind;
  e.loc = loc;
  e.subject = std::move(subject);
  e.decision = std::move(decision);
  e.rationale = std::move(rationale);
  e.refs = std::move(refs);
  entries_.push_back(std::move(e));
}

std::vector<const ProvenanceEntry*> ProvenanceLog::of_kind(
    DecisionKind kind) const {
  std::vector<const ProvenanceEntry*> out;
  for (const auto& e : entries_) {
    if (e.kind == kind) out.push_back(&e);
  }
  return out;
}

std::string ProvenanceLog::text_report() const {
  std::ostringstream os;
  for (const auto& e : entries_) {
    os << "explain: [" << decision_kind_tag(e.kind) << "] " << e.loc.str()
       << " " << e.subject << " -> " << e.decision;
    if (!e.refs.empty()) {
      os << " {";
      for (std::size_t i = 0; i < e.refs.size(); ++i) {
        os << (i > 0 ? "," : "") << e.refs[i];
      }
      os << "}";
    }
    if (!e.rationale.empty()) os << " (" << e.rationale << ")";
    os << '\n';
  }
  return os.str();
}

void ProvenanceLog::write_json(std::ostream& os) const {
  os << "{\"decisions\": [";
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"kind\": \"" << decision_kind_name(e.kind)
       << "\", \"line\": " << e.loc.line << ", \"column\": " << e.loc.column
       << ", \"subject\": \"" << json_escape(e.subject)
       << "\", \"decision\": \"" << json_escape(e.decision)
       << "\", \"rationale\": \"" << json_escape(e.rationale)
       << "\", \"refs\": [";
    for (std::size_t i = 0; i < e.refs.size(); ++i) {
      os << (i > 0 ? ", " : "") << e.refs[i];
    }
    os << "]}";
  }
  os << "\n]}";
}

}  // namespace autocfd::obs
