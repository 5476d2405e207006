// The profile-guided planner (the feedback half of a CPF-style
// planner/orchestration split).
//
// Static heuristics choose the partition that minimizes *modelled*
// communication volume; they cannot see that a cheap-looking cut runs
// straight through the hot self-dependent sweeps, or that a fault plan
// degrades exactly the links the partition depends on. The planner
// closes that loop: it takes the measured evidence of a prior run (a
// PlanInput), enumerates every (partition shape x combine strategy)
// candidate over the same grid and rank count, prices each candidate
// with the virtual-time machine model re-weighted by the measured
// per-loop compute shares and per-site communication bill, biases the
// scores by an optional fault plan (stragglers, degraded links,
// jitter), and emits a deterministic PlanFile naming the winner.
//
// The cost model prices the schedule the runtime executes
// (codegen/comm_schedule.hpp) with the machine's alpha-beta model:
//   * halo exchanges: every rank's sends at each combined sync point
//     and cut dimension. Each rank posts all sends of a dimension
//     before its receives, so it pays its own sends and no chain of
//     other pairs;
//   * pipelined sweeps: the flow half of a mirror-image decomposition
//     serializes the blocks along the cut dimension — B x the loop's
//     per-rank compute plus (B-1) of the schedule's largest hand-off,
//     which pays one latency per grid line of the owned face;
//   * collectives: taken from the measured bill (rank count is fixed).
// A calibration pass against the measured baseline pins the model's
// execution count and residual scale, so scores stay anchored to
// reality rather than to the model's idea of it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/fault/fault.hpp"
#include "autocfd/mp/machine.hpp"
#include "autocfd/plan/plan_file.hpp"
#include "autocfd/plan/plan_input.hpp"

namespace autocfd::plan {

struct PlannerOptions {
  /// The sequential Fortran source the report was produced from.
  std::string source;
  /// Its extracted directives (grid + status arrays; nprocs/partition
  /// are taken from the PlanInput, not from here).
  core::Directives directives;
  mp::MachineConfig machine = mp::MachineConfig::pentium_ethernet_1999();
  /// Fault plan the planned run will execute under; biases the search
  /// to keep stragglers and degraded links off the critical path.
  std::optional<fault::FaultPlan> faults;
};

/// Runs the full search and returns the PlanFile (chosen + static
/// configurations, rationale, and the scored candidate table).
/// Throws CompileError when the source itself does not analyze.
[[nodiscard]] PlanFile make_plan(const PlanInput& input,
                                 const PlannerOptions& opts);

/// Per-site calibration of the communication model against a measured
/// run: for each halo and pipeline site of the report, the model's
/// predicted message count and transfer cost next to the measured ones.
/// The calibration test asserts predicted transfer stays within
/// tolerance.
struct SiteCalibration {
  int site = -1;
  std::string label;
  int point = -1;  // combined sync point or pipeline group ordinal
  int dim = -1;    // exchanged dimension
  long long measured_messages = 0;
  double measured_cost_s = 0.0;
  long long model_messages_per_exec = 0;
  /// Model transfer for the site, scaled to the measured execution
  /// count (measured_messages / model_messages_per_exec).
  double model_cost_s = 0.0;
};

[[nodiscard]] std::vector<SiteCalibration> calibrate_sites(
    const PlanInput& input, const PlannerOptions& opts);

}  // namespace autocfd::plan
