// The Auto-CFD pre-compiler pipeline (paper Figure 2):
//
//   sequential Fortran CFD source + directives
//     -> parse                         (fortran)
//     -> field-loop classification     (ir)
//     -> grid partitioning             (partition)
//     -> dependency analysis after
//        partitioning -> S_LDP         (depend)
//     -> self-dependence / mirror-
//        image decomposition           (depend)
//     -> upper-bound sync regions,
//        combining                     (sync)
//     -> SPMD restructuring            (codegen)
//     -> parallel source (printed) + executable program + report
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autocfd/codegen/restructure.hpp"
#include "autocfd/codegen/spmd_runtime.hpp"
#include "autocfd/core/directives.hpp"
#include "autocfd/depend/self_dep.hpp"
#include "autocfd/obs/obs.hpp"

namespace autocfd::core {

/// Summary the pre-compiler reports (Table 1's columns and more).
struct Report {
  int field_loops = 0;
  int dependence_pairs = 0;     // |S_LDP|
  int self_dependent_loops = 0;
  int mirror_image_loops = 0;   // mixed-direction self-dependences
  int pipelined_loops = 0;
  int syncs_before = 0;         // synchronization points before combining
  int syncs_after = 0;          // after combining
  double optimization_percent = 0.0;
  /// The combining strategy the counts above were produced under.
  sync::CombineStrategy strategy = sync::CombineStrategy::Min;
};

/// Decisions a profile-guided plan (src/plan) imposes on the pipeline
/// in place of its static heuristics. Every override is recorded in
/// the provenance log under the "planned" tag, so --explain shows what
/// the planner changed and why.
struct PlanOverrides {
  std::optional<partition::PartitionSpec> partition;
  std::optional<sync::CombineStrategy> strategy;
  /// Where the plan came from (plan-file path or "planner"), quoted in
  /// the provenance rationale.
  std::string origin;
  /// One human-readable line per planner decision ("chose 4x2 over
  /// 8x1; predicted 1.31x from measured comm matrix"), appended to the
  /// explain log verbatim.
  std::vector<std::string> decisions;
};

/// Everything the pre-compiler produces. Owns the restructured AST;
/// run() executes it on the simulated cluster.
struct ParallelProgram {
  fortran::SourceFile file;  // restructured SPMD program
  codegen::SpmdMeta meta;
  Report report;
  std::string parallel_source;  // printed SPMD source with MPI calls

  /// Executes on the simulated cluster. Attach an event sink (e.g. a
  /// trace::TraceRecorder) to capture the run's full event stream;
  /// meta.tags resolves its message tags back to sync-plan sites.
  [[nodiscard]] codegen::SpmdRunResult run(const mp::MachineConfig& machine,
                                           mp::EventSink* sink = nullptr) {
    return codegen::run_spmd(file, meta, machine, sink);
  }

  /// Overload with the full runtime knobs (fault injection, watchdog).
  [[nodiscard]] codegen::SpmdRunResult run(
      const mp::MachineConfig& machine,
      const codegen::SpmdRunOptions& options) {
    return codegen::run_spmd(file, meta, machine, options);
  }
};

/// Runs the whole pre-compiler. Throws CompileError on any hard error.
/// `strategy` selects how synchronizations are combined (the ablation
/// benches compare Min against Pairwise and None).
/// With an observability context, every pipeline phase is timed into
/// `obs->profiler` (wall time + phase counters), every classification /
/// hoisting / combining decision lands in `obs->provenance`, and the
/// profile is exported into `obs->metrics` under "compile.*".
/// With `plan`, the plan's partition/strategy replace the static
/// choices and its decision lines land in the provenance log.
[[nodiscard]] std::unique_ptr<ParallelProgram> parallelize(
    std::string_view source, const Directives& directives,
    sync::CombineStrategy strategy = sync::CombineStrategy::Min,
    obs::ObsContext* obs = nullptr, const PlanOverrides* plan = nullptr);

/// Directive extraction + parallelize in one call.
[[nodiscard]] std::unique_ptr<ParallelProgram> parallelize(
    std::string_view source, obs::ObsContext* obs = nullptr);

/// Analysis-only entry point: computes the report (sync counts etc.)
/// for one partition without restructuring. Used by the Table 1 bench
/// to sweep partitions cheaply.
[[nodiscard]] Report analyze_only(std::string_view source,
                                  const Directives& directives,
                                  obs::ObsContext* obs = nullptr);

/// analyze_only under an explicit combining strategy (the planner
/// scores Min/Pairwise/None candidates with this).
[[nodiscard]] Report analyze_only(std::string_view source,
                                  const Directives& directives,
                                  sync::CombineStrategy strategy,
                                  obs::ObsContext* obs);

/// What the planner's cost model needs to know about one candidate
/// configuration, extracted without restructuring or running: the
/// combined synchronization points with their aggregated halo content,
/// the ghost widths restructuring would allocate per status array
/// (they pad the slab payloads of every halo exchange), the
/// self-dependent loops with their pipeline geometry, and the pipeline
/// hand-offs they share.
struct PlanningFacts {
  Report report;
  partition::Grid grid;
  partition::PartitionSpec spec;
  sync::CombineStrategy strategy = sync::CombineStrategy::Min;

  /// Aggregated halo content of each combined synchronization point,
  /// in plan order (mirrors SyncPlan::halos_for).
  std::vector<std::vector<fortran::HaloSpec>> points;
  /// Ghost layers restructuring would allocate per status array.
  codegen::GhostWidths ghosts;

  struct SelfDep {
    int line = 0;  // source line of the self-dependent loop
    std::string array;
    /// Cut dimensions whose flow dependences force pipelining (dim,
    /// dir); empty when the partition leaves the loop local.
    std::vector<std::pair<int, int>> pipeline_dims;
  };
  std::vector<SelfDep> self_deps;

  /// One pipeline hand-off (SyncPlan::pipeline_groups): the source
  /// lines of the combined sweeps and the flow boundaries it carries
  /// along each (dim, dir).
  struct PipelineGroup {
    std::vector<int> lines;  // distinct member loop lines
    std::vector<std::pair<int, int>> dims;
    std::vector<fortran::HaloSpec> flows;
  };
  std::vector<PipelineGroup> pipelines;
};

/// Full analysis (classify -> depend -> sync plan) for one candidate
/// configuration. Throws CompileError when the candidate is infeasible
/// (e.g. a diagonal self-dependence across a cut dimension); the
/// planner treats that as "candidate rejected".
[[nodiscard]] PlanningFacts analyze_for_plan(
    std::string_view source, const Directives& directives,
    sync::CombineStrategy strategy = sync::CombineStrategy::Min,
    obs::ObsContext* obs = nullptr);

}  // namespace autocfd::core
