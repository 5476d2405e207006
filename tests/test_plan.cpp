// Profile-guided planner: the contract of the src/plan subsystem.
//
//   * Foreign run reports are rejected by schema version with an
//     actionable diagnostic, never misread.
//   * A PlanFile is deterministic: write -> read -> write is
//     byte-identical, so CI can diff plans.
//   * The communication model is calibrated: per halo and pipeline
//     site, the model's predicted transfer cost matches the measured
//     bill.
//   * The measured gain of the chosen plan over the static choice
//     tracks the predicted gain.
//   * Planning is a fixed point: re-planning from a planned run's
//     report chooses the same configuration on both case studies.
//   * The planner never picks a candidate it predicts slower than the
//     static heuristic, every override lands in the provenance log,
//     and planned runs stay bit-identical across both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/obs/obs.hpp"
#include "autocfd/plan/plan_file.hpp"
#include "autocfd/plan/plan_input.hpp"
#include "autocfd/plan/planner.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::plan {
namespace {

struct App {
  std::string name;
  std::string source;
};

App test_aerofoil() {
  cfd::AerofoilParams p;
  p.n1 = 24;
  p.n2 = 10;
  p.n3 = 4;
  p.frames = 2;
  return {"aerofoil", cfd::aerofoil_source(p)};
}

App test_sprayer() {
  cfd::SprayerParams p;
  p.nx = 24;
  p.ny = 16;
  p.frames = 2;
  return {"sprayer", cfd::sprayer_source(p)};
}

const auto kMachine = mp::MachineConfig::pentium_ethernet_1999();

struct ProfiledRun {
  codegen::SpmdRunResult run;
  prof::RunReport report;
  core::Directives dirs;
};

ProfiledRun run_profiled(const App& app,
                         const core::PlanOverrides* overrides = nullptr) {
  DiagnosticEngine diags;
  ProfiledRun out;
  out.dirs = core::Directives::extract(app.source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  out.dirs.nprocs = 4;
  obs::ObsContext obs;
  auto program = core::parallelize(app.source, out.dirs,
                                   sync::CombineStrategy::Min, &obs,
                                   overrides);
  trace::TraceRecorder recorder;
  codegen::SpmdRunOptions run_opts;
  run_opts.sink = &recorder;
  run_opts.profile = true;
  out.run = program->run(kMachine, run_opts);
  prof::ReportOptions ropts;
  ropts.title = app.name;
  ropts.engine = "bytecode";
  out.report = prof::build_run_report(*program, out.run, recorder.trace(),
                                      &obs.provenance, ropts);
  return out;
}

PlanFile plan_from(const App& app, const ProfiledRun& profiled) {
  PlannerOptions opts;
  opts.source = app.source;
  opts.directives = profiled.dirs;
  opts.machine = kMachine;
  return make_plan(plan_input_from_report(profiled.report), opts);
}

TEST(PlanInput, RejectsForeignSchemaVersion) {
  std::string error;
  const auto input = plan_input_from_json(
      R"({"schema_version": 1, "title": "x", "partition": "2x2"})", &error);
  EXPECT_FALSE(input.has_value());
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
  EXPECT_NE(error.find("re-generate"), std::string::npos) << error;

  // A pre-versioning report (no stamp at all) is just as foreign.
  error.clear();
  const auto unstamped =
      plan_input_from_json(R"({"title": "x", "partition": "2x2"})", &error);
  EXPECT_FALSE(unstamped.has_value());
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
}

TEST(PlanInput, JsonRoundTripMatchesInMemoryPath) {
  const auto app = test_sprayer();
  const auto profiled = run_profiled(app);
  std::ostringstream os;
  prof::write_report_json(profiled.report, os);
  std::string error;
  const auto from_json = plan_input_from_json(os.str(), &error);
  ASSERT_TRUE(from_json.has_value()) << error;
  const auto direct = plan_input_from_report(profiled.report);
  EXPECT_EQ(from_json->partition, direct.partition);
  EXPECT_EQ(from_json->nranks, direct.nranks);
  EXPECT_EQ(from_json->strategy, direct.strategy);
  EXPECT_DOUBLE_EQ(from_json->elapsed_s, direct.elapsed_s);
  EXPECT_DOUBLE_EQ(from_json->total_compute_s, direct.total_compute_s);
  EXPECT_EQ(from_json->loops.size(), direct.loops.size());
  EXPECT_EQ(from_json->sites.size(), direct.sites.size());
  ASSERT_FALSE(direct.sites.empty());
  EXPECT_DOUBLE_EQ(from_json->site_cost("halo"), direct.site_cost("halo"));
  EXPECT_EQ(from_json->site_messages("halo"), direct.site_messages("halo"));
}

TEST(PlanFile, WriteReadWriteIsByteIdentical) {
  const auto app = test_aerofoil();
  const auto plan = plan_from(app, run_profiled(app));
  const auto first = plan.json();
  std::string error;
  const auto reread = PlanFile::parse(first, &error);
  ASSERT_TRUE(reread.has_value()) << error;
  EXPECT_EQ(reread->json(), first);
}

TEST(PlanFile, ParseRejectsSchemaMismatch) {
  std::string error;
  const auto plan =
      PlanFile::parse(R"({"schema_version": 99, "partition": "2x2"})", &error);
  EXPECT_FALSE(plan.has_value());
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
}

// Cost-model calibration: per halo and pipeline site, the model
// prices the measured run's own partition; predicted transfer must
// match the measured bill (the model prices the schedule the runtime
// executes, so the tolerance is tight). A site-dimension whose layers
// are all zero wide sends nothing, and the model must predict exactly
// that. The aerofoil run pipelines a mirror-image sweep, so its
// hand-off site is checked too.
TEST(Planner, PerSiteTransferMatchesMeasuredBill) {
  for (const auto& app : {test_aerofoil(), test_sprayer()}) {
    const auto profiled = run_profiled(app);
    PlannerOptions opts;
    opts.source = app.source;
    opts.directives = profiled.dirs;
    const auto calibration =
        calibrate_sites(plan_input_from_report(profiled.report), opts);
    ASSERT_FALSE(calibration.empty()) << app.name;
    const bool has_pipeline = std::any_of(
        calibration.begin(), calibration.end(), [](const auto& site) {
          return site.label.starts_with("pipeline#") &&
                 site.measured_messages > 0;
        });
    EXPECT_EQ(has_pipeline, app.name == "aerofoil") << app.name;
    for (const auto& site : calibration) {
      ASSERT_EQ(site.measured_messages > 0, site.model_messages_per_exec > 0)
          << app.name << " " << site.label;
      if (site.measured_messages == 0) continue;
      EXPECT_EQ(site.measured_messages % site.model_messages_per_exec, 0)
          << app.name << " " << site.label
          << ": measured message count is not a whole number of "
             "model executions";
      EXPECT_NEAR(site.model_cost_s, site.measured_cost_s,
                  0.05 * site.measured_cost_s)
          << app.name << " " << site.label;
    }
  }
}

// Planning is a fixed point: plan once from the static run, execute
// the planned configuration, plan again from that run's report — the
// second plan must choose the same configuration.
TEST(Planner, ReplanningAPlannedRunConverges) {
  for (const auto& app : {test_aerofoil(), test_sprayer()}) {
    const auto static_run = run_profiled(app);
    const auto plan1 = plan_from(app, static_run);
    const auto overrides = plan1.to_overrides("test-plan");
    const auto planned_run = run_profiled(app, &overrides);
    EXPECT_EQ(planned_run.report.partition, plan1.partition) << app.name;
    const auto plan2 = plan_from(app, planned_run);
    EXPECT_EQ(plan2.partition, plan1.partition) << app.name;
    EXPECT_EQ(plan2.strategy, plan1.strategy) << app.name;
  }
}

TEST(Planner, NeverPredictsChosenSlowerThanStatic) {
  for (const auto& app : {test_aerofoil(), test_sprayer()}) {
    const auto plan = plan_from(app, run_profiled(app));
    EXPECT_LE(plan.predicted_s, plan.static_predicted_s) << app.name;
    // The chosen and static rows both appear in the candidate table.
    bool saw_chosen = false, saw_static = false;
    for (const auto& c : plan.candidates) {
      saw_chosen = saw_chosen || c.chosen;
      saw_static = saw_static || c.is_static;
    }
    EXPECT_TRUE(saw_chosen) << app.name;
    EXPECT_TRUE(saw_static) << app.name;
  }
}

// The model prices each rank's own sends; the runtime posts every send
// of a dimension before any receive, so it pays exactly that. On the
// fig_planner aerofoil (40x20x8, clean, the size of
// examples/aerofoil.f) the measured static/planned gain therefore
// tracks the predicted one.
TEST(Planner, MeasuredGainTracksPrediction) {
  cfd::AerofoilParams p;
  p.n1 = 40;
  p.n2 = 20;
  p.n3 = 8;
  p.frames = 2;
  const App app{"aerofoil", cfd::aerofoil_source(p)};
  const auto static_run = run_profiled(app);
  const auto plan = plan_from(app, static_run);
  const auto overrides = plan.to_overrides("gain-test");
  const auto planned_run = run_profiled(app, &overrides);
  ASSERT_GT(plan.predicted_s, 0.0);
  const double predicted = plan.static_predicted_s / plan.predicted_s;
  const double measured = static_run.run.elapsed / planned_run.run.elapsed;
  EXPECT_NEAR(measured, predicted, 0.10 * predicted)
      << plan.static_partition << " -> " << plan.partition;
  // And the planned run is never slower than the static one.
  EXPECT_LE(planned_run.run.elapsed, static_run.run.elapsed)
      << plan.static_partition << " -> " << plan.partition;
}

TEST(Planner, OverridesLandInProvenance) {
  const auto app = test_aerofoil();
  const auto plan = plan_from(app, run_profiled(app));
  const auto overrides = plan.to_overrides("unit-plan.json");

  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(app.source, diags);
  dirs.nprocs = 4;
  obs::ObsContext obs;
  (void)core::parallelize(app.source, dirs, sync::CombineStrategy::Min, &obs,
                          &overrides);
  const auto planned =
      obs.provenance.of_kind(obs::DecisionKind::PlannerOverride);
  ASSERT_FALSE(planned.empty());
  bool names_origin = false;
  for (const auto* entry : planned) {
    names_origin = names_origin ||
                   entry->rationale.find("unit-plan.json") != std::string::npos;
  }
  EXPECT_TRUE(names_origin)
      << "no planner-override entry quotes the plan file it came from";
  // The partition decision itself is recorded as imposed by the plan.
  bool partition_planned = false;
  for (const auto* entry :
       obs.provenance.of_kind(obs::DecisionKind::PartitionChoice)) {
    partition_planned =
        partition_planned ||
        entry->rationale.find("planned: imposed by unit-plan.json") !=
            std::string::npos;
  }
  EXPECT_TRUE(partition_planned);
}

TEST(Planner, PlannedRunsBitIdenticalAcrossEngines) {
  const auto app = test_aerofoil();
  const auto plan = plan_from(app, run_profiled(app));
  const auto overrides = plan.to_overrides("engine-test");

  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(app.source, diags);
  dirs.nprocs = 4;
  auto program = core::parallelize(app.source, dirs,
                                   sync::CombineStrategy::Min, nullptr,
                                   &overrides);
  codegen::SpmdRunOptions tree_opts, byte_opts;
  tree_opts.engine = interp::EngineKind::Tree;
  byte_opts.engine = interp::EngineKind::Bytecode;
  const auto tree = program->run(kMachine, tree_opts);
  const auto byte_ = program->run(kMachine, byte_opts);
  EXPECT_EQ(tree.elapsed, byte_.elapsed);
  ASSERT_EQ(tree.gathered.size(), byte_.gathered.size());
  for (const auto& [name, values] : tree.gathered) {
    const auto it = byte_.gathered.find(name);
    ASSERT_NE(it, byte_.gathered.end()) << name;
    ASSERT_EQ(values.size(), it->second.size()) << name;
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], it->second[i]) << name << "[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace autocfd::plan
