// Scaling observatory: the contract of the src/sweep subsystem.
//
//   * A SweepSpec parses every field of its JSON; foreign schema
//     versions are rejected with an actionable diagnostic, never
//     misread, and so are empty/invalid rank lists.
//   * A sweep is deterministic: running the same spec twice yields
//     byte-identical ScalingReport JSON, and write -> read -> write
//     of that JSON is byte-identical too, so CI can diff sweeps.
//   * Aggregation is exact: every cell's costs equal the sums over its
//     underlying RunReport (rank breakdowns, comm-matrix rank totals,
//     per-site bills) — including under a timing-only fault plan.
//   * The curves are coherent: the baseline cell has speedup 1, a
//     sequential baseline yields Karp-Flatt estimates, and site
//     trends align share-for-share with the cells they came from.
//   * With plan: true, every distinct rank count gets a planner
//     verdict and the recommendation is the argmin predicted time.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/sweep/sweep.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::sweep {
namespace {

struct App {
  std::string name;
  std::string source;
  core::Directives dirs;
};

/// The defaults are small test sizes; examples/aerofoil.f is 40x20x8.
App test_aerofoil(long long n1 = 24, long long n2 = 10, long long n3 = 4) {
  cfd::AerofoilParams p;
  p.n1 = n1;
  p.n2 = n2;
  p.n3 = n3;
  p.frames = 2;
  App app{"aerofoil", cfd::aerofoil_source(p), {}};
  DiagnosticEngine diags;
  app.dirs = core::Directives::extract(app.source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  return app;
}

/// The defaults are small test sizes; examples/sprayer.f is 64x32.
App test_sprayer(long long nx = 24, long long ny = 16) {
  cfd::SprayerParams p;
  p.nx = nx;
  p.ny = ny;
  p.frames = 2;
  App app{"sprayer", cfd::sprayer_source(p), {}};
  DiagnosticEngine diags;
  app.dirs = core::Directives::extract(app.source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  return app;
}

/// A standalone profiled run on `nranks` ranks under the static
/// heuristic's partition, as `acfd --nprocs N --report=json` makes it.
prof::RunReport standalone_report(const App& app, int nranks) {
  core::Directives dirs = app.dirs;
  dirs.nprocs = nranks;
  obs::ObsContext obs;
  auto program = core::parallelize(app.source, dirs,
                                   sync::CombineStrategy::Min, &obs);
  trace::TraceRecorder recorder;
  codegen::SpmdRunOptions opts;
  opts.sink = &recorder;
  opts.profile = true;
  const auto run =
      program->run(mp::MachineConfig::pentium_ethernet_1999(), opts);
  prof::ReportOptions ropts;
  ropts.title = app.name;
  ropts.engine = "bytecode";
  return prof::build_run_report(*program, run, recorder.trace(),
                                &obs.provenance, ropts);
}

/// Asserts one cell is an exact view of the report it was distilled
/// from: identical elapsed time and exactly-summed decompositions.
void expect_reconciles(const ScalingCell& cell, const prof::RunReport& rep) {
  EXPECT_EQ(cell.nranks, rep.nranks);
  EXPECT_EQ(cell.partition, rep.partition);
  EXPECT_EQ(cell.engine, rep.engine);
  EXPECT_EQ(cell.elapsed_s, rep.elapsed_s);

  double compute = 0.0, transfer = 0.0, wait = 0.0;
  for (const auto& rb : rep.ranks) {
    compute += rb.compute;
    transfer += rb.transfer;
    wait += rb.wait;
  }
  EXPECT_EQ(cell.compute_s, compute);
  EXPECT_EQ(cell.transfer_s, transfer);
  EXPECT_EQ(cell.wait_s, wait);

  long long messages = 0, bytes = 0;
  for (const auto& rt : rep.comm.rank_totals) {
    messages += rt.messages_sent;
    bytes += rt.bytes_sent;
  }
  EXPECT_EQ(cell.messages, messages);
  EXPECT_EQ(cell.bytes, bytes);

  EXPECT_EQ(cell.syncs_after, rep.compile.syncs_after);
  EXPECT_EQ(cell.pipelined_loops, rep.compile.pipelined_loops);

  ASSERT_EQ(cell.sites.size(), rep.sites.size());
  const double total = compute + transfer + wait;
  for (std::size_t i = 0; i < cell.sites.size(); ++i) {
    EXPECT_EQ(cell.sites[i].site, rep.sites[i].site);
    EXPECT_EQ(cell.sites[i].wait_s, rep.sites[i].wait_s);
    EXPECT_EQ(cell.sites[i].cost_s, rep.sites[i].cost_s);
    if (total > 0.0) {
      EXPECT_EQ(cell.sites[i].share,
                (rep.sites[i].wait_s + rep.sites[i].cost_s) / total);
    }
  }
}

// ------------------------------------------------------------ spec

TEST(SweepSpec, RejectsForeignSchemaVersion) {
  std::string error;
  const auto spec =
      SweepSpec::parse(R"({"schema_version": 99, "ranks": [1, 2]})", &error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
  EXPECT_NE(error.find("99"), std::string::npos) << error;
  // The diagnostic must say what to do, not just what went wrong.
  EXPECT_NE(error.find("expects"), std::string::npos) << error;

  error.clear();
  const auto unstamped = SweepSpec::parse(R"({"ranks": [1]})", &error);
  EXPECT_FALSE(unstamped.has_value());
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
}

TEST(SweepSpec, RejectsEmptyOrInvalidRanks) {
  std::string error;
  EXPECT_FALSE(SweepSpec::parse(R"({"schema_version": 1})", &error));
  EXPECT_NE(error.find("ranks"), std::string::npos) << error;

  EXPECT_FALSE(SweepSpec::parse(
      R"({"schema_version": 1, "ranks": [2, 0]})", &error));
  EXPECT_NE(error.find("not positive"), std::string::npos) << error;
}

// A literal spec that sets every field parses into exactly those
// values (every field differs from its default).
TEST(SweepSpec, JsonRoundTrips) {
  std::string error;
  const auto parsed = SweepSpec::parse(R"({
    "schema_version": 1,
    "title": "round \"trip\"",
    "ranks": [1, 2, 4],
    "partitions": {"4": ["2x2x1", "4x1x1"]},
    "engines": ["bytecode", "tree"],
    "strategy": "pairwise",
    "faults": "seed=11,jitter=0.5:0.03",
    "recovery": "budget=4,rto=0.002,backoff=2,cap=0.02",
    "sequential_baseline": true,
    "plan": true
  })", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->schema_version, kSweepSpecSchemaVersion);
  EXPECT_EQ(parsed->title, "round \"trip\"");
  EXPECT_EQ(parsed->ranks, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(parsed->partitions,
            (std::map<int, std::vector<std::string>>{
                {4, {"2x2x1", "4x1x1"}}}));
  EXPECT_EQ(parsed->engines,
            (std::vector<std::string>{"bytecode", "tree"}));
  EXPECT_EQ(parsed->strategy, "pairwise");
  EXPECT_EQ(parsed->faults, "seed=11,jitter=0.5:0.03");
  EXPECT_EQ(parsed->recovery, "budget=4,rto=0.002,backoff=2,cap=0.02");
  EXPECT_TRUE(parsed->sequential_baseline);
  EXPECT_TRUE(parsed->plan);
}

// ------------------------------------------------------------ sweep

TEST(Sweep, DeterministicAndByteIdenticalJson) {
  const auto app = test_aerofoil();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {1, 2};

  const auto first = run_sweep(app.source, app.dirs, spec);
  const auto second = run_sweep(app.source, app.dirs, spec);
  EXPECT_EQ(first.report.json(), second.report.json());

  // write -> read -> write is byte-identical.
  std::string error;
  const auto parsed = ScalingReport::parse(first.report.json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->json(), first.report.json());
}

TEST(ScalingReport, RejectsForeignSchemaVersion) {
  std::string error;
  const auto rep =
      ScalingReport::parse(R"({"schema_version": 7, "cells": []})", &error);
  EXPECT_FALSE(rep.has_value());
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
  EXPECT_NE(error.find("--sweep"), std::string::npos) << error;
}

TEST(Sweep, CellsReconcileExactlyWithRunReports) {
  const auto app = test_aerofoil();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {1, 2, 4};

  const auto result = run_sweep(app.source, app.dirs, spec);
  ASSERT_EQ(result.report.cells.size(), 3u);
  ASSERT_EQ(result.cell_reports.size(), 3u);
  for (std::size_t i = 0; i < result.report.cells.size(); ++i) {
    expect_reconciles(result.report.cells[i], result.cell_reports[i]);
  }
  // A sweep cell reproduces a standalone run of the same scale exactly.
  for (const auto& cell : result.report.cells) {
    if (cell.nranks > 1) {
      expect_reconciles(cell, standalone_report(app, cell.nranks));
    }
  }

  // The 1-rank cell is the baseline of the series: speedup exactly 1,
  // full efficiency, and a comm share of zero (nothing to talk to).
  const auto& base = result.report.cells.front();
  EXPECT_TRUE(base.baseline);
  EXPECT_EQ(base.nranks, 1);
  EXPECT_EQ(base.speedup, 1.0);
  EXPECT_EQ(base.efficiency, 1.0);
  EXPECT_EQ(base.comm_share, 0.0);
  for (std::size_t i = 1; i < result.report.cells.size(); ++i) {
    const auto& cell = result.report.cells[i];
    EXPECT_FALSE(cell.baseline);
    EXPECT_EQ(cell.speedup, base.elapsed_s / cell.elapsed_s);
    EXPECT_EQ(cell.efficiency, cell.speedup / cell.nranks);
    // Against a 1-rank baseline the Karp-Flatt estimate is defined.
    const double p = cell.nranks;
    EXPECT_EQ(cell.karp_flatt,
              (1.0 / cell.speedup - 1.0 / p) / (1.0 - 1.0 / p));
  }
}

TEST(Sweep, TimingOnlyFaultsPerturbTimeButStillReconcile) {
  const auto app = test_sprayer();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {2, 4};
  spec.faults = "seed=11,jitter=0.5:0.03";

  const auto faulted = run_sweep(app.source, app.dirs, spec);
  ASSERT_EQ(faulted.report.cells.size(), 2u);
  EXPECT_FALSE(faulted.report.fault_spec.empty());
  for (std::size_t i = 0; i < faulted.report.cells.size(); ++i) {
    EXPECT_EQ(faulted.report.cells[i].fault_spec,
              faulted.report.fault_spec);
    expect_reconciles(faulted.report.cells[i], faulted.cell_reports[i]);
  }

  // The same sweep clean: jitter only stretches virtual time, so the
  // faulted cells are never faster and move the same wire traffic.
  spec.faults.clear();
  const auto clean = run_sweep(app.source, app.dirs, spec);
  ASSERT_EQ(clean.report.cells.size(), faulted.report.cells.size());
  for (std::size_t i = 0; i < clean.report.cells.size(); ++i) {
    EXPECT_GE(faulted.report.cells[i].elapsed_s,
              clean.report.cells[i].elapsed_s);
    EXPECT_EQ(faulted.report.cells[i].messages,
              clean.report.cells[i].messages);
    EXPECT_EQ(faulted.report.cells[i].bytes, clean.report.cells[i].bytes);
  }
}

TEST(Sweep, LossyPlanUnderRecoveryKeepsCellsComparable) {
  // A plan with real loss would kill every cell fail-fast; with the
  // sweep's recovery knob the cells complete and stay comparable:
  // aggregation still reconciles exactly, the recovery accounting is a
  // sub-account of wait, and the report round-trips its new fields.
  const auto app = test_sprayer();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {2, 4};
  spec.faults = "seed=11,drop=0.05,corrupt=0.03";
  spec.recovery = "default";

  const auto result = run_sweep(app.source, app.dirs, spec);
  ASSERT_EQ(result.report.cells.size(), 2u);
  EXPECT_FALSE(result.report.recovery_spec.empty());

  long long total_retransmits = 0;
  for (std::size_t i = 0; i < result.report.cells.size(); ++i) {
    const auto& cell = result.report.cells[i];
    const auto& rep = result.cell_reports[i];
    expect_reconciles(cell, rep);
    // Recovery columns reconcile exactly with the underlying report.
    double recovery = 0.0;
    for (const auto& rb : rep.ranks) recovery += rb.recovery;
    EXPECT_EQ(cell.recovery_s, recovery);
    EXPECT_EQ(cell.retransmits, rep.recovery.retransmits);
    EXPECT_LE(cell.recovery_s, cell.wait_s + 1e-12);
    total_retransmits += cell.retransmits;
  }
  EXPECT_GT(total_retransmits, 0)
      << "lossy plan injected nothing, test is vacuous";

  // The recovery fields survive a JSON write -> read round trip.
  std::string error;
  const auto parsed = ScalingReport::parse(result.report.json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->recovery_spec, result.report.recovery_spec);
  for (std::size_t i = 0; i < parsed->cells.size(); ++i) {
    EXPECT_EQ(parsed->cells[i].recovery_s, result.report.cells[i].recovery_s);
    EXPECT_EQ(parsed->cells[i].retransmits,
              result.report.cells[i].retransmits);
  }
}

TEST(Sweep, SequentialBaselineYieldsKarpFlatt) {
  const auto app = test_sprayer();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {2};
  spec.partitions[2] = {"2x1"};
  spec.sequential_baseline = true;

  const auto result = run_sweep(app.source, app.dirs, spec);
  ASSERT_EQ(result.report.cells.size(), 1u);
  EXPECT_GT(result.report.seq_elapsed_s, 0.0);
  const auto& cell = result.report.cells.front();
  // Normalized to the sequential run, not to itself.
  EXPECT_FALSE(cell.baseline);
  EXPECT_EQ(cell.speedup, result.report.seq_elapsed_s / cell.elapsed_s);
  EXPECT_EQ(cell.efficiency, cell.speedup / 2.0);
  EXPECT_EQ(cell.karp_flatt,
            (1.0 / cell.speedup - 1.0 / 2.0) / (1.0 - 1.0 / 2.0));
}

TEST(Sweep, SiteTrendsAlignWithCells) {
  const auto app = test_aerofoil();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {1, 2, 4};

  const auto result = run_sweep(app.source, app.dirs, spec);
  for (const auto& trend : result.report.site_trends) {
    ASSERT_EQ(trend.shares.size(), result.report.cells.size());
    for (std::size_t i = 0; i < result.report.cells.size(); ++i) {
      // Each trend entry is the sum of that (kind, label) site's
      // shares inside cell i — zero where the site does not exist.
      double expected = 0.0;
      for (const auto& site : result.report.cells[i].sites) {
        if (site.kind == trend.kind && site.label == trend.label) {
          expected += site.share;
        }
      }
      EXPECT_EQ(trend.shares[i], expected)
          << trend.kind << " " << trend.label << " cell " << i;
    }
  }
  // The 1-rank cell communicates nothing, so every trend starts at 0.
  for (const auto& trend : result.report.site_trends) {
    EXPECT_EQ(trend.shares.front(), 0.0);
  }
}

// Also on the example-sized sweeps (aerofoil on 1, 2, 4 and 8 ranks,
// sprayer on 1, 2 and 4), where efficiency must never rise with the
// rank count.
TEST(Sweep, ClassifiesAndNamesCrossoverSite) {
  struct Case {
    App app;
    std::vector<int> ranks;
    bool example_sized;
  };
  const Case cases[] = {{test_aerofoil(), {1, 2, 4}, false},
                        {test_aerofoil(40, 20, 8), {1, 2, 4, 8}, true},
                        {test_sprayer(64, 32), {1, 2, 4}, true}};
  for (const auto& [app, ranks, example_sized] : cases) {
    SCOPED_TRACE(app.name + " on " + std::to_string(ranks.back()));
    SweepSpec spec;
    spec.title = app.name;
    spec.ranks = ranks;

    const auto result = run_sweep(app.source, app.dirs, spec);
    EXPECT_TRUE(result.report.classification == "comm-bound" ||
                result.report.classification == "compute-bound");
    if (result.report.crossover_nranks > 0) {
      // A crossover names the site that dominates the bill there.
      EXPECT_FALSE(result.report.crossover_site.empty());
      EXPECT_FALSE(result.report.crossover_site_kind.empty());
      bool found = false;
      for (const auto& cell : result.report.cells) {
        if (cell.nranks != result.report.crossover_nranks) continue;
        EXPECT_GE(cell.comm_share, 0.5);
        for (const auto& site : cell.sites) {
          found = found || (site.label == result.report.crossover_site &&
                            site.kind == result.report.crossover_site_kind);
        }
      }
      EXPECT_TRUE(found);
    }
    if (example_sized) {
      const auto& cells = result.report.cells;
      for (std::size_t i = 1; i < cells.size(); ++i) {
        EXPECT_LE(cells[i].efficiency, cells[i - 1].efficiency + 1e-12)
            << cells[i].nranks << " ranks";
      }
    }
  }
}

TEST(Sweep, PlanPointsCoverEveryScaleAndRecommendArgmin) {
  const auto app = test_sprayer();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {2, 4};
  spec.plan = true;

  const auto result = run_sweep(app.source, app.dirs, spec);
  ASSERT_EQ(result.report.plan_points.size(), 2u);
  double best = 0.0;
  for (const auto& point : result.report.plan_points) {
    EXPECT_GT(point.predicted_s, 0.0);
    EXPECT_FALSE(point.planned_partition.empty());
    // The planner never predicts its pick slower than the static one.
    EXPECT_LE(point.predicted_s, point.static_predicted_s);
    if (best == 0.0 || point.predicted_s < best) best = point.predicted_s;
  }
  ASSERT_GT(result.report.recommended_nranks, 0);
  for (const auto& point : result.report.plan_points) {
    if (point.nranks == result.report.recommended_nranks) {
      EXPECT_EQ(point.predicted_s, best);
      EXPECT_EQ(point.planned_partition,
                result.report.recommended_partition);
    }
  }
}

TEST(Sweep, RejectsMismatchedPartitionAndUnknownNames) {
  const auto app = test_sprayer();
  SweepSpec spec;
  spec.title = app.name;
  spec.ranks = {2};
  spec.partitions[2] = {"2x2"};  // 4 ranks under a 2-rank key
  EXPECT_THROW(run_sweep(app.source, app.dirs, spec), std::invalid_argument);

  spec.partitions.clear();
  spec.strategy = "sometimes";
  EXPECT_THROW(run_sweep(app.source, app.dirs, spec), std::invalid_argument);

  spec.strategy = "min";
  spec.engines = {"jit"};
  EXPECT_THROW(run_sweep(app.source, app.dirs, spec), CompileError);
}

}  // namespace
}  // namespace autocfd::sweep
