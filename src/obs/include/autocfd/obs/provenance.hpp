// Decision-provenance log: the "explain" engine of the pre-compiler.
//
// Every consequential decision the pipeline takes — classifying a field
// loop A/R/C/O per status array, splitting a self-dependence into its
// flow and anti halves, hoisting a sync region's start point out of a
// loop/branch/call (or pinning it), merging upper-bound regions into
// one synchronization point — appends a structured entry here. The log
// answers "why did the parallelizer do that?" without re-running the
// analysis under a debugger, and its JSON form is schema-stable so
// tools and tests can consume it.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "autocfd/support/diagnostics.hpp"

namespace autocfd::obs {

enum class DecisionKind {
  LoopClassification,  // ir: field loop typed A/R/C/O for one array
  ScalarClassification,  // ir: reduction-shaped scalar private/reduction
  SelfDependence,      // depend: direction-vector split of a self-dep
  RegionHoist,         // sync: start point hoisted out of an owner stmt
  RegionPin,           // sync: hoisting stopped (reader/goto/boundary)
  RegionExtent,        // sync: final upper-bound region of one pair
  CombineMerge,        // sync: one synchronization point for N regions
  PartitionChoice,     // core: partition resolved from directives
  PlannerOverride,     // plan: profile-guided plan overrode a heuristic
};

[[nodiscard]] const char* decision_kind_name(DecisionKind kind);

struct ProvenanceEntry {
  DecisionKind kind = DecisionKind::LoopClassification;
  SourceLoc loc;          // where in the *sequential* source
  std::string subject;    // what was decided about ("loop@12 array v")
  std::string decision;   // the chosen alternative ("C", "merged", ...)
  std::string rationale;  // why, in one sentence
  /// Cross-references: sync-region ids for combine decisions, grid
  /// dimensions for self-dependence splits. Empty when not applicable.
  std::vector<int> refs;
};

class ProvenanceLog {
 public:
  void add(ProvenanceEntry entry) { entries_.push_back(std::move(entry)); }
  void add(DecisionKind kind, SourceLoc loc, std::string subject,
           std::string decision, std::string rationale,
           std::vector<int> refs = {});

  [[nodiscard]] const std::vector<ProvenanceEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::vector<const ProvenanceEntry*> of_kind(
      DecisionKind kind) const;

  /// "explain: [classify] 12:3 loop@12 array v -> C (assigned and
  /// referenced in the nest)" — one line per entry, insertion order.
  [[nodiscard]] std::string text_report() const;

  /// {"decisions": [{"kind","line","column","subject","decision",
  /// "rationale","refs":[...]}, ...]} in insertion order.
  void write_json(std::ostream& os) const;

 private:
  std::vector<ProvenanceEntry> entries_;
};

/// Short tag used in the text report ("classify", "self-dep", ...).
[[nodiscard]] const char* decision_kind_tag(DecisionKind kind);

}  // namespace autocfd::obs
