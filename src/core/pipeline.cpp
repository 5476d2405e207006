#include "autocfd/core/pipeline.hpp"

#include <algorithm>
#include <set>

#include "autocfd/fortran/parser.hpp"
#include "autocfd/fortran/printer.hpp"

namespace autocfd::core {

namespace {

using obs::ObsContext;
using PhaseTimer = obs::PassProfiler::PhaseTimer;

/// Every block must own at least as many layers along a cut dimension
/// as it sends to a neighbor there. A halo exchange posts all sends of
/// a dimension before any receive, so a thinner block would have to
/// forward ghost cells it has not received yet. Reported once per
/// (array, dimension).
void check_block_extents(const sync::SyncPlan& plan,
                         const partition::Grid& grid,
                         const partition::PartitionSpec& spec,
                         DiagnosticEngine& diags) {
  std::set<std::pair<std::string, int>> reported;
  for (const auto& point : plan.points) {
    for (const auto& h : sync::SyncPlan::halos_for(point)) {
      for (int d = 0; d < grid.rank(); ++d) {
        const auto du = static_cast<std::size_t>(d);
        const int cuts = spec.cuts[du];
        if (cuts <= 1 || reported.count({h.array, d}) > 0) continue;
        const auto blocks =
            partition::BlockPartition::split_extent(grid.extents[du], cuts);
        for (int c = 0; c < cuts; ++c) {
          const auto& [lo, hi] = blocks[static_cast<std::size_t>(c)];
          const long long extent = hi - lo + 1;
          // The high neighbor reads our top lo-width layers, the low
          // neighbor our bottom hi-width layers.
          const int width = std::max(c + 1 < cuts ? h.lo_width[du] : 0,
                                     c > 0 ? h.hi_width[du] : 0);
          if (extent >= width) continue;
          diags.error({}, "array '" + h.array + "' needs a halo of width " +
                              std::to_string(width) + " along dimension " +
                              std::to_string(d + 1) + ", but partition " +
                              spec.str() + " gives block " +
                              std::to_string(c + 1) + " of that dimension " +
                              "an extent of " + std::to_string(extent) +
                              "; a block must own every layer it sends "
                              "(choose fewer cuts along that dimension)");
          reported.insert({h.array, d});
          break;
        }
      }
    }
  }
}

struct Analysis {
  std::map<std::string, std::vector<ir::FieldLoop>> loops_by_unit;
  depend::ProgramTrace trace;
  depend::DependenceSet deps;
  sync::InlinedProgram prog;
  sync::SyncPlan plan;
  partition::PartitionSpec spec;

  sync::CombineStrategy strategy = sync::CombineStrategy::Min;

  static Analysis run(fortran::SourceFile& file, const Directives& dirs,
                      DiagnosticEngine& diags,
                      sync::CombineStrategy strategy =
                          sync::CombineStrategy::Min,
                      ObsContext* obs = nullptr,
                      const PlanOverrides* overrides = nullptr) {
    auto* profiler = ObsContext::profiler_of(obs);
    auto* prov = ObsContext::provenance_of(obs);

    const std::string plan_origin =
        overrides != nullptr && !overrides->origin.empty() ? overrides->origin
                                                           : "plan";
    if (overrides != nullptr && overrides->strategy.has_value()) {
      strategy = *overrides->strategy;
    }

    Analysis a;
    a.strategy = strategy;
    {
      PhaseTimer t(profiler, "partition");
      if (overrides != nullptr && overrides->partition.has_value()) {
        a.spec = *overrides->partition;
      } else {
        a.spec = dirs.resolve_partition();
      }
      t.count("tasks", a.spec.num_tasks());
      if (prov != nullptr) {
        const char* rationale =
            overrides != nullptr && overrides->partition.has_value()
                ? nullptr
                : dirs.partition.has_value()
                      ? "taken verbatim from the partition directive"
                      : "balance-optimal partition for the directive's "
                        "processor count";
        prov->add(obs::DecisionKind::PartitionChoice, SourceLoc{},
                  "grid partition", a.spec.str(),
                  rationale != nullptr
                      ? std::string(rationale)
                      : "planned: imposed by " + plan_origin);
      }
    }
    if (prov != nullptr && overrides != nullptr) {
      if (overrides->strategy.has_value()) {
        prov->add(obs::DecisionKind::PlannerOverride, SourceLoc{},
                  "combine strategy",
                  sync::combine_strategy_name(*overrides->strategy),
                  "planned: imposed by " + plan_origin);
      }
      for (const auto& line : overrides->decisions) {
        prov->add(obs::DecisionKind::PlannerOverride, SourceLoc{}, "planner",
                  line, "from " + plan_origin);
      }
    }
    const auto cfg = dirs.field_config();
    {
      PhaseTimer t(profiler, "classify");
      for (const auto& unit : file.units) {
        a.loops_by_unit[unit.name] =
            ir::analyze_field_loops(unit, cfg, diags, prov);
        for (const auto& fl : a.loops_by_unit[unit.name]) {
          t.count("loops");
          for (const auto& [name, info] : fl.arrays) {
            t.count(std::string("class_") +
                    std::string(ir::loop_type_name(fl.type_for(name))));
          }
        }
      }
    }
    {
      PhaseTimer t(profiler, "depend");
      depend::DependenceStats stats;
      a.trace = depend::ProgramTrace::build(file, a.loops_by_unit, diags);
      a.deps = depend::analyze_dependences(a.trace, a.spec, diags, &stats);
      t.count("sites", static_cast<double>(a.trace.sites().size()));
      t.count("edges_tested", stats.edges_tested);
      t.count("pairs_admitted", stats.pairs_admitted);
      t.count("halo_carrying", stats.halo_carrying);
    }
    {
      PhaseTimer t(profiler, "inline");
      a.prog = sync::InlinedProgram::build(file, a.trace, a.spec, diags);
      t.count("slots", static_cast<double>(a.prog.slots().size()));
    }
    a.plan = sync::plan_synchronization(a.prog, a.deps, a.spec, strategy, obs);
    for (const auto& pp : a.plan.pipelines) {
      if (pp.plan.unsupported_diagonal) {
        diags.error(pp.site->loop->loop->loc,
                    "self-dependent loop on '" + pp.plan.array +
                        "' has diagonal dependences across a cut "
                        "dimension; mirror-image decomposition does not "
                        "apply (choose a partition that does not cut "
                        "those dimensions)");
      }
    }
    check_block_extents(a.plan, dirs.grid, a.spec, diags);
    return a;
  }

  Report report() const {
    Report r;
    for (const auto& [unit, loops] : loops_by_unit) {
      r.field_loops += static_cast<int>(loops.size());
    }
    r.dependence_pairs = static_cast<int>(deps.pairs.size());
    r.self_dependent_loops = static_cast<int>(deps.self_pairs().size());
    for (const auto& pp : plan.pipelines) {
      ++r.pipelined_loops;
      if (pp.plan.kind == depend::SelfDepKind::Mixed) {
        ++r.mirror_image_loops;
      }
    }
    r.syncs_before = plan.syncs_before();
    r.syncs_after = plan.syncs_after();
    r.optimization_percent = plan.optimization_percent();
    r.strategy = strategy;
    return r;
  }
};

}  // namespace

std::unique_ptr<ParallelProgram> parallelize(std::string_view source,
                                             const Directives& directives,
                                             sync::CombineStrategy strategy,
                                             obs::ObsContext* obs,
                                             const PlanOverrides* plan) {
  auto* profiler = ObsContext::profiler_of(obs);
  obs::PassProfiler::TotalTimer total(profiler);

  DiagnosticEngine diags;
  {
    PhaseTimer t(profiler, "directives");
    directives.validate(diags);
  }
  throw_if_errors(diags, "directives");

  auto program = std::make_unique<ParallelProgram>();
  {
    PhaseTimer t(profiler, "parse");
    program->file = fortran::parse_source(source, diags);
    t.count("units", static_cast<double>(program->file.units.size()));
  }
  throw_if_errors(diags, "parse");

  auto analysis =
      Analysis::run(program->file, directives, diags, strategy, obs, plan);
  throw_if_errors(diags, "analysis");
  program->report = analysis.report();

  codegen::SpmdOptions opts;
  opts.field = directives.field_config();
  opts.grid = directives.grid;
  opts.spec = analysis.spec;
  {
    PhaseTimer t(profiler, "restructure");
    program->meta =
        codegen::restructure(program->file, opts, analysis.loops_by_unit,
                             analysis.deps, analysis.plan, analysis.prog,
                             diags);
    t.count("sync_points", program->report.syncs_after);
    t.count("pipelined_loops", program->report.pipelined_loops);
  }
  throw_if_errors(diags, "restructure");

  {
    PhaseTimer t(profiler, "print");
    program->parallel_source = fortran::print_file(program->file);
    t.count("bytes", static_cast<double>(program->parallel_source.size()));
  }
  return program;
}

std::unique_ptr<ParallelProgram> parallelize(std::string_view source,
                                             obs::ObsContext* obs) {
  DiagnosticEngine diags;
  auto dirs = Directives::extract(source, diags);
  throw_if_errors(diags, "directive extraction");
  return parallelize(source, dirs, sync::CombineStrategy::Min, obs);
}

namespace {

/// Shared front half of the analysis-only entry points: validate the
/// directives, parse, and run the analysis pipeline.
Analysis analyze_source(std::string_view source, const Directives& directives,
                        sync::CombineStrategy strategy, obs::ObsContext* obs,
                        fortran::SourceFile& file) {
  auto* profiler = ObsContext::profiler_of(obs);
  obs::PassProfiler::TotalTimer total(profiler);

  DiagnosticEngine diags;
  {
    PhaseTimer t(profiler, "directives");
    directives.validate(diags);
  }
  throw_if_errors(diags, "directives");
  {
    PhaseTimer t(profiler, "parse");
    file = fortran::parse_source(source, diags);
    t.count("units", static_cast<double>(file.units.size()));
  }
  throw_if_errors(diags, "parse");
  auto analysis = Analysis::run(file, directives, diags, strategy, obs);
  throw_if_errors(diags, "analysis");
  return analysis;
}

}  // namespace

Report analyze_only(std::string_view source, const Directives& directives,
                    obs::ObsContext* obs) {
  return analyze_only(source, directives, sync::CombineStrategy::Min, obs);
}

Report analyze_only(std::string_view source, const Directives& directives,
                    sync::CombineStrategy strategy, obs::ObsContext* obs) {
  fortran::SourceFile file;
  return analyze_source(source, directives, strategy, obs, file).report();
}

PlanningFacts analyze_for_plan(std::string_view source,
                               const Directives& directives,
                               sync::CombineStrategy strategy,
                               obs::ObsContext* obs) {
  fortran::SourceFile file;
  auto analysis = analyze_source(source, directives, strategy, obs, file);

  PlanningFacts facts;
  facts.report = analysis.report();
  facts.grid = directives.grid;
  facts.spec = analysis.spec;
  facts.strategy = analysis.strategy;

  facts.points.reserve(analysis.plan.points.size());
  for (const auto& point : analysis.plan.points) {
    facts.points.push_back(sync::SyncPlan::halos_for(point));
  }

  facts.ghosts = codegen::ghost_widths(
      directives.grid.rank(), directives.field_config().status_arrays,
      analysis.deps, analysis.plan);

  facts.self_deps.reserve(analysis.plan.pipelines.size());
  for (const auto& pp : analysis.plan.pipelines) {
    PlanningFacts::SelfDep sd;
    sd.line = pp.site->loop->loop->loc.line;
    sd.array = pp.plan.array;
    sd.pipeline_dims = pp.plan.pipeline_dims;
    facts.self_deps.push_back(std::move(sd));
  }
  for (const auto& group : analysis.plan.pipeline_groups) {
    PlanningFacts::PipelineGroup pg;
    for (const int m : group.members) {
      const int line = analysis.plan.pipelines[static_cast<std::size_t>(m)]
                           .site->loop->loop->loc.line;
      if (std::find(pg.lines.begin(), pg.lines.end(), line) ==
          pg.lines.end()) {
        pg.lines.push_back(line);
      }
    }
    pg.dims = group.dims;
    pg.flows = analysis.plan.flows_for(group);
    facts.pipelines.push_back(std::move(pg));
  }
  return facts;
}

}  // namespace autocfd::core
