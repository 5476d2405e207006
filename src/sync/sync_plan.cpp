#include "autocfd/sync/sync_plan.hpp"

#include <algorithm>
#include <map>

namespace autocfd::sync {

const char* combine_strategy_name(CombineStrategy strategy) {
  switch (strategy) {
    case CombineStrategy::Min: return "min";
    case CombineStrategy::Pairwise: return "pairwise";
    case CombineStrategy::None: return "none";
  }
  return "?";
}

bool parse_combine_strategy(const std::string& name, CombineStrategy& out) {
  if (name == "min") {
    out = CombineStrategy::Min;
  } else if (name == "pairwise") {
    out = CombineStrategy::Pairwise;
  } else if (name == "none") {
    out = CombineStrategy::None;
  } else {
    return false;
  }
  return true;
}

double SyncPlan::optimization_percent() const {
  // A program with no dependent loop pairs has nothing to optimize;
  // report 0% rather than dividing by zero (NaN).
  if (syncs_before() == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(points.size()) /
                            static_cast<double>(regions.size()));
}

namespace {

std::vector<fortran::HaloSpec> to_specs(
    const std::map<std::string, partition::HaloWidths>& merged) {
  std::vector<fortran::HaloSpec> out;
  out.reserve(merged.size());
  for (const auto& [array, halo] : merged) {
    fortran::HaloSpec spec;
    spec.array = array;
    spec.lo_width = halo.lo;
    spec.hi_width = halo.hi;
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace

std::vector<fortran::HaloSpec> SyncPlan::halos_for(const CombinedSync& point) {
  std::map<std::string, partition::HaloWidths> merged;
  for (const auto* region : point.members) {
    auto& h = merged[region->pair->array];
    h = partition::HaloWidths::merge(h, region->pair->halo);
  }
  return to_specs(merged);
}

std::vector<fortran::HaloSpec> SyncPlan::flows_for(
    const PipelineGroup& group) const {
  std::map<std::string, partition::HaloWidths> merged;
  for (const int i : group.members) {
    const auto& mi = pipelines[static_cast<std::size_t>(i)].plan;
    auto& h = merged[mi.array];
    h = partition::HaloWidths::merge(h, mi.flow_halo);
  }
  return to_specs(merged);
}

namespace {

std::vector<CombinedSync> combine_none(const InlinedProgram& prog,
                                       const std::vector<SyncRegion>& regions,
                                       obs::ProvenanceLog* prov,
                                       CombineStats* stats) {
  std::vector<CombinedSync> out;
  for (const auto& r : regions) {
    if (!r.valid()) continue;
    CombinedSync point;
    point.members = {&r};
    point.intersection = r.slots;
    finalize_combined(prog, point, prov, stats);
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace

SyncPlan plan_synchronization(const InlinedProgram& prog,
                              const depend::DependenceSet& deps,
                              const partition::PartitionSpec& spec,
                              CombineStrategy strategy,
                              obs::ObsContext* obs) {
  auto* profiler = obs::ObsContext::profiler_of(obs);
  auto* prov = obs::ObsContext::provenance_of(obs);

  SyncPlan plan;
  {
    obs::PassProfiler::PhaseTimer t(profiler, "regions");
    plan.regions = build_regions(prog, deps, prov);
    t.count("regions", static_cast<double>(plan.regions.size()));
    for (const auto& r : plan.regions) t.count("hoist_steps", r.hoist_steps);
  }

  // Self-dependent loops: mirror-image decomposition. The flow half
  // becomes a pipeline plan; the anti half (old-value reads) becomes a
  // synthetic wrap-around dependence whose pre-sweep exchange joins the
  // ordinary regions and is combined with them.
  {
    obs::PassProfiler::PhaseTimer t(profiler, "self-dep");
    for (const auto* self : deps.self_pairs()) {
      t.count("loops_analyzed");
      const auto mi = depend::analyze_self_dependence(*self->reader->loop,
                                                      self->array, spec, prov);
      switch (mi.kind) {
        case depend::SelfDepKind::Mixed: t.count("mixed"); break;
        case depend::SelfDepKind::FlowOnly: t.count("flow_only"); break;
        case depend::SelfDepKind::AntiOnly: t.count("anti_only"); break;
        case depend::SelfDepKind::None: break;
      }
      if (!mi.pipeline_dims.empty()) {
        plan.pipelines.push_back(PipelinePlan{self->reader, mi});
      }
      if (mi.pre_halo.any()) {
        auto pair = std::make_unique<depend::LoopDependence>();
        pair->writer = self->writer;
        pair->reader = self->reader;
        pair->array = self->array;
        pair->halo = mi.pre_halo;
        pair->self = false;  // now an ordinary slot-placed exchange
        // Wrap around the innermost enclosing loop if there is one; a
        // one-shot sweep gets its old halo from the exchange that the
        // restructurer emits after initialization.
        const fortran::Stmt* wrap = nullptr;
        for (const auto* c : self->reader->context) {
          if (c->kind == fortran::StmtKind::Do) wrap = c;
        }
        if (wrap) {
          pair->wraps = true;
          pair->wrap_loop = wrap;
          t.count("synthetic_wraps");
          plan.regions.push_back(build_region(prog, *pair, prov));
          plan.regions.back().id = static_cast<int>(plan.regions.size()) - 1;
          plan.synthetic_pairs.push_back(std::move(pair));
        }
        // If there is no enclosing loop the initial exchange suffices and
        // no per-frame synchronization point is needed at all.
      }
      // FlowOnly self-dependences with a pipeline plan need no slot sync:
      // the pipelined receive delivers the updated boundary in-loop.
    }
  }

  {
    obs::PassProfiler::PhaseTimer t(profiler, "combine");
    CombineStats stats;
    switch (strategy) {
      case CombineStrategy::Min:
        plan.points = combine_min(prog, plan.regions, prov, &stats);
        break;
      case CombineStrategy::Pairwise:
        plan.points = combine_pairwise(prog, plan.regions, prov, &stats);
        break;
      case CombineStrategy::None:
        plan.points = combine_none(prog, plan.regions, prov, &stats);
        break;
    }
    t.count("intersections_evaluated", stats.intersections_evaluated);
    t.count("merges", stats.merges);
    t.count("points", stats.groups);

    // Pipeline hand-offs combine after the halo points are fixed: a
    // hand-off never moves across one.
    CombineStats pstats;
    plan.pipeline_groups = combine_pipelines(prog, plan.pipelines, plan.points,
                                             strategy, prov, &pstats);
    t.count("pipeline_merges", pstats.merges);
    t.count("pipeline_groups", pstats.groups);
  }
  return plan;
}

}  // namespace autocfd::sync
