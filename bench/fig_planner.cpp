// Profile-guided planning figure: static heuristic vs planner.
//
// For each case study (aerofoil, sprayer) under each scenario (clean,
// straggler fault plan), the two-run workflow is executed end to end:
//   1. static run — the heuristic picks the partition; the run is
//      profiled into a unified run report;
//   2. plan — the planner re-scores every (partition x combine
//      strategy) candidate against the measured profile (and the fault
//      plan, when one is active) and emits a PlanFile;
//   3. planned run — the same program under the PlanFile's overrides
//      and the same scenario.
// The figure records static vs planned virtual elapsed time and the
// realized plan speedup, plus the planner's own predictions so the
// model can be tracked against reality. Planned results must stay
// bit-identical to the static run's gathered arrays.
#include "bench_util.hpp"

#include <memory>

#include "autocfd/fault/fault.hpp"
#include "autocfd/plan/planner.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/trace/recorder.hpp"

namespace {

using namespace autocfd;

struct App {
  std::string name;
  std::string source;
};

struct Scenario {
  std::string name;
  std::string faults;  // FaultPlan spec, empty = clean
};

struct Outcome {
  codegen::SpmdRunResult run;
  prof::RunReport report;
  std::string partition;
};

const auto kMachine = mp::MachineConfig::pentium_ethernet_1999();

/// One profiled run: parallelize `source` (optionally under plan
/// overrides), execute under the scenario's fault plan, and join the
/// trace into a run report the planner can consume.
Outcome run_profiled(const App& app, const Scenario& scenario,
                     const core::PlanOverrides* overrides) {
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(app.source, diags);
  dirs.nprocs = 4;
  obs::ObsContext obs;
  auto program = core::parallelize(app.source, dirs,
                                   sync::CombineStrategy::Min, &obs,
                                   overrides);
  fault::FaultInjector injector{scenario.faults.empty()
                                    ? fault::FaultPlan{}
                                    : fault::FaultPlan::parse(
                                          scenario.faults)};
  trace::TraceRecorder recorder;
  codegen::SpmdRunOptions run_opts;
  run_opts.sink = &recorder;
  run_opts.profile = true;
  if (!scenario.faults.empty()) run_opts.faults = &injector;
  Outcome out;
  out.run = program->run(kMachine, run_opts);
  prof::ReportOptions ropts;
  ropts.title = app.name;
  ropts.engine = "bytecode";
  out.report = prof::build_run_report(*program, out.run, recorder.trace(),
                                      &obs.provenance, ropts);
  out.partition = program->meta.spec.str();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cfd::AerofoilParams ap;
  ap.n1 = 40;
  ap.n2 = 20;
  ap.n3 = 8;
  ap.frames = 2;
  cfd::SprayerParams sp;
  sp.nx = 64;
  sp.ny = 32;
  sp.frames = 2;

  const App apps[] = {{"aerofoil", cfd::aerofoil_source(ap)},
                      {"sprayer", cfd::sprayer_source(sp)}};
  const Scenario scenarios[] = {{"clean", ""},
                                {"straggler", "seed=7,straggler=1:3"}};

  bench_util::heading(
      "Profile-guided planning: static heuristic vs planner, 4 ranks");
  std::printf("%-9s %-10s %-10s %-10s %12s %12s %9s %9s\n", "app",
              "scenario", "static", "planned", "static (s)", "planned (s)",
              "speedup", "predict");

  for (const auto& app : apps) {
    for (const auto& scenario : scenarios) {
      const auto statique = run_profiled(app, scenario, nullptr);

      plan::PlannerOptions popts;
      popts.source = app.source;
      DiagnosticEngine diags;
      popts.directives = core::Directives::extract(app.source, diags);
      popts.machine = kMachine;
      if (!scenario.faults.empty()) {
        popts.faults = fault::FaultPlan::parse(scenario.faults);
      }
      const auto input = plan::plan_input_from_report(statique.report);
      const auto plan_file = plan::make_plan(input, popts);
      const auto overrides = plan_file.to_overrides("fig_planner");

      const auto planned = run_profiled(app, scenario, &overrides);
      const bool identical =
          !codegen::first_mismatch(statique.run.gathered, planned.run.gathered);
      const double speedup = statique.run.elapsed / planned.run.elapsed;
      const double predicted =
          plan_file.predicted_s > 0.0
              ? plan_file.static_predicted_s / plan_file.predicted_s
              : 1.0;

      std::printf("%-9s %-10s %-10s %-10s %11.4fs %11.4fs %8.2fx %8.2fx%s\n",
                  app.name.c_str(), scenario.name.c_str(),
                  statique.partition.c_str(), planned.partition.c_str(),
                  statique.run.elapsed, planned.run.elapsed, speedup,
                  predicted,
                  identical ? "" : "  RESULTS DIVERGED");

      const std::string prefix = app.name + "." + scenario.name;
      bench_util::record(prefix + ".static.elapsed_s", statique.run.elapsed);
      bench_util::record(prefix + ".planned.elapsed_s", planned.run.elapsed);
      bench_util::record(prefix + ".plan_speedup", speedup);
      bench_util::record(prefix + ".predicted.static_s",
                         plan_file.static_predicted_s);
      bench_util::record(prefix + ".predicted.planned_s",
                         plan_file.predicted_s);
      bench_util::record(prefix + ".results_identical", identical ? 1 : 0);
      bench_util::record_str(prefix + ".static.partition",
                             plan_file.static_partition + " (" +
                                 plan_file.static_strategy + ")");
      bench_util::record_str(prefix + ".planned.partition",
                             plan_file.partition + " (" +
                                 plan_file.strategy + ")");
      bench_util::record_str(prefix + ".rationale", plan_file.rationale);
    }
  }
  bench_util::note(
      "\nA planned row beats its static row whenever the measured profile "
      "exposes a cost\nthe static volume heuristic cannot see (pipelined "
      "sweeps on the cut dimension,\nstragglers on the critical path).");

  // Host-time cost of planning itself: score the full candidate table
  // from an already-built report.
  {
    static const App bench_app = apps[0];
    static const Scenario clean = scenarios[0];
    static const auto statique = run_profiled(bench_app, clean, nullptr);
    static const auto input = plan::plan_input_from_report(statique.report);
    benchmark::RegisterBenchmark("make_plan/aerofoil",
                                 [](benchmark::State& s) {
                                   plan::PlannerOptions popts;
                                   popts.source = bench_app.source;
                                   DiagnosticEngine diags;
                                   popts.directives = core::Directives::extract(
                                       bench_app.source, diags);
                                   for (auto _ : s) {
                                     benchmark::DoNotOptimize(
                                         plan::make_plan(input, popts));
                                   }
                                 });
  }
  return bench_util::finish(argc, argv);
}
