// The profiling layer's contract: attribution is *complete* (per rank,
// attributed compute seconds equal the cluster's own compute clock and
// attributed flops equal the run total), *engine-independent* (tree
// walker and bytecode engine charge bit-identical flops to identical
// source keys), and the communication matrix *reconciles* with the
// cluster's per-rank accounting — clean and under a timing-only fault
// plan. On top of that, run reports must be deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fault/fault.hpp"
#include "autocfd/ledger/history.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/sweep/scaling_report.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::prof {
namespace {

std::string aerofoil_small() {
  cfd::AerofoilParams p;
  p.n1 = 32;
  p.n2 = 16;
  p.n3 = 6;
  p.frames = 1;
  return cfd::aerofoil_source(p);
}

std::string sprayer_small() {
  cfd::SprayerParams p;
  p.nx = 48;
  p.ny = 24;
  p.frames = 1;
  return cfd::sprayer_source(p);
}

struct ProfiledRun {
  std::unique_ptr<core::ParallelProgram> program;
  codegen::SpmdRunResult result;
  trace::Trace trace;
  obs::ObsContext obs;
};

ProfiledRun run_profiled(const std::string& source,
                         const std::string& partition,
                         interp::EngineKind engine,
                         mp::FaultHook* faults = nullptr,
                         mp::RecoveryConfig recovery = {}) {
  ProfiledRun out;
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(source, diags);
  dirs.partition = partition::PartitionSpec::parse(partition);
  out.program =
      core::parallelize(source, dirs, sync::CombineStrategy::Min, &out.obs);
  trace::TraceRecorder recorder;
  codegen::SpmdRunOptions opts;
  opts.sink = &recorder;
  opts.engine = engine;
  opts.profile = true;
  opts.faults = faults;
  opts.recovery = recovery;
  out.result =
      out.program->run(mp::MachineConfig::pentium_ethernet_1999(), opts);
  out.trace = recorder.take();
  return out;
}

void expect_near_rel(double a, double b, double rel) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  EXPECT_LE(std::abs(a - b), rel * scale) << a << " vs " << b;
}

// ------------------------------------------------------- completeness

struct CaseStudy {
  const char* app;
  const char* partition;
};

// Prints by content, so the ctest names stay the same from run to run
// (the default printer shows the char pointers' addresses).
void PrintTo(const CaseStudy& c, std::ostream* os) {
  *os << c.app << "_" << c.partition;
}

class AttributionCompleteness : public ::testing::TestWithParam<CaseStudy> {
};

TEST_P(AttributionCompleteness, AttributedComputeEqualsRankClocks) {
  const auto [app, partition] = GetParam();
  const std::string source =
      std::string(app) == "aerofoil" ? aerofoil_small() : sprayer_small();
  auto run = run_profiled(source, partition, interp::EngineKind::Bytecode);
  const int nranks = run.program->meta.spec.num_tasks();
  ASSERT_EQ(run.result.profiles.size(), static_cast<std::size_t>(nranks));

  const auto profile = build_source_profile(run.result.profiles);
  ASSERT_EQ(profile.nranks, nranks);
  EXPECT_FALSE(profile.entries.empty());

  const auto& stats = run.result.cluster.ranks;
  ASSERT_EQ(stats.size(), static_cast<std::size_t>(nranks));
  double flops_sum = 0.0;
  for (int r = 0; r < nranks; ++r) {
    const auto& st = stats[static_cast<std::size_t>(r)];
    // Attributed compute seconds == the cluster's compute clock. Unit
    // sums associate differently than the interpreter's flush deltas,
    // so allow last-bit noise but nothing more.
    expect_near_rel(profile.rank_seconds[static_cast<std::size_t>(r)],
                    st.compute_time, 1e-9);
    // Attributed compute + communication == the rank's whole clock.
    expect_near_rel(profile.rank_seconds[static_cast<std::size_t>(r)] +
                        st.comm_time,
                    st.compute_time + st.comm_time, 1e-9);
    flops_sum += profile.rank_flops[static_cast<std::size_t>(r)];
  }
  // Flops are integer-valued doubles: sums are exact, equality is too.
  EXPECT_EQ(flops_sum, run.result.total_flops);
  EXPECT_EQ(profile.total_flops, run.result.total_flops);

  // Shares are a partition of 1.
  double share_sum = 0.0;
  for (const auto& e : profile.entries) share_sum += e.share;
  expect_near_rel(share_sum, 1.0, 1e-9);

  // The run report's books balance too: each rank row's parts sum to
  // the rank's own clock, the slowest rank is the run's elapsed time,
  // and the profile's per-rank compute equals the breakdown's.
  const auto report = build_run_report(*run.program, run.result, run.trace,
                                       &run.obs.provenance, {});
  const double tol = 1e-9 * std::max(report.elapsed_s, 1e-12);
  ASSERT_EQ(report.ranks.size(), static_cast<std::size_t>(nranks));
  ASSERT_EQ(report.profile.rank_seconds.size(), report.ranks.size());
  double slowest = 0.0;
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& b = report.ranks[r];
    EXPECT_NEAR(b.total(), stats[r].total_time(), tol) << r;
    EXPECT_NEAR(report.profile.rank_seconds[r], b.compute, tol) << r;
    slowest = std::max(slowest, b.total());
  }
  EXPECT_NEAR(slowest, report.elapsed_s, tol);
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudies, AttributionCompleteness,
    ::testing::Values(CaseStudy{"aerofoil", "2x2x1"},
                      CaseStudy{"sprayer", "2x2"}));

TEST(StmtProfile, DisabledRunCollectsNothing) {
  const std::string source = sprayer_small();
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(source, diags);
  dirs.partition = partition::PartitionSpec::parse("2x2");
  auto program = core::parallelize(source, dirs);
  const auto result =
      program->run(mp::MachineConfig::pentium_ethernet_1999());
  EXPECT_TRUE(result.profiles.empty());
}

// ------------------------------------------------- engine equivalence

TEST(EngineEquivalence, TreeAndBytecodeChargeIdenticalFlops) {
  for (const auto& [source, partition] :
       {std::make_pair(aerofoil_small(), std::string("2x2x1")),
        std::make_pair(sprayer_small(), std::string("2x2"))}) {
    auto tree = run_profiled(source, partition, interp::EngineKind::Tree);
    auto byte =
        run_profiled(source, partition, interp::EngineKind::Bytecode);
    const auto tp = build_source_profile(tree.result.profiles);
    const auto bp = build_source_profile(byte.result.profiles);

    ASSERT_EQ(tp.entries.size(), bp.entries.size());
    for (std::size_t i = 0; i < tp.entries.size(); ++i) {
      const auto& te = tp.entries[i];
      const auto& be = bp.entries[i];
      EXPECT_EQ(te.loc.line, be.loc.line);
      EXPECT_EQ(te.loc.column, be.loc.column);
      // Bit-identical attribution: same flops, same entry counts.
      EXPECT_EQ(te.flops, be.flops) << "line " << te.loc.line;
      EXPECT_EQ(te.count, be.count) << "line " << te.loc.line;
    }
    EXPECT_EQ(tp.total_flops, bp.total_flops);
  }
}

// -------------------------------------------------------- comm matrix

void expect_matrix_reconciles(const CommMatrix& matrix,
                              const std::vector<mp::RankStats>& stats) {
  ASSERT_EQ(matrix.rank_totals.size(), stats.size());
  for (std::size_t r = 0; r < stats.size(); ++r) {
    const auto& t = matrix.rank_totals[r];
    const auto& st = stats[r];
    EXPECT_EQ(t.messages_sent, st.messages_sent) << "rank " << r;
    EXPECT_EQ(t.bytes_sent, st.bytes_sent) << "rank " << r;
    EXPECT_EQ(t.messages_received, st.messages_received) << "rank " << r;
    EXPECT_EQ(t.bytes_received, st.bytes_received) << "rank " << r;
  }
  // Cell sums are the same totals grouped by (src, dst, tag).
  long long cell_msgs = 0, total_sent = 0;
  for (const auto& cell : matrix.cells) cell_msgs += cell.messages;
  for (const auto& st : stats) total_sent += st.messages_sent;
  EXPECT_EQ(cell_msgs, total_sent);
}

TEST(CommMatrix, ReconcilesWithClusterAccounting) {
  auto run =
      run_profiled(aerofoil_small(), "2x2x1", interp::EngineKind::Bytecode);
  const auto matrix =
      build_comm_matrix(run.trace, &run.program->meta.tags, 16);
  expect_matrix_reconciles(matrix, run.result.cluster.ranks);

  // Every cell's tag resolves against the registry, and halo traffic
  // exists on this app.
  long long halo_bytes = 0;
  for (const auto& cell : matrix.cells) {
    EXPECT_FALSE(cell.label.empty());
    if (cell.halo) halo_bytes += cell.bytes;
  }
  EXPECT_GT(halo_bytes, 0);
}

TEST(CommMatrix, ReconcilesUnderTimingOnlyFaults) {
  auto plan = fault::FaultPlan::parse("seed=11,jitter=0.5:0.03");
  fault::FaultInjector injector{plan};
  auto run = run_profiled(aerofoil_small(), "2x2x1",
                          interp::EngineKind::Bytecode, &injector);
  const auto matrix =
      build_comm_matrix(run.trace, &run.program->meta.tags, 16);
  expect_matrix_reconciles(matrix, run.result.cluster.ranks);
  EXPECT_GT(injector.counters().delayed, 0);
}

TEST(CommMatrix, ReconcilesUnderRecoveredLoss) {
  // Reliable delivery absorbs the drops/corruptions; the matrix must
  // still reconcile exactly, and its new recovery columns must agree
  // with the runtime's per-rank accounting.
  auto plan = fault::FaultPlan::parse("seed=11,drop=0.2,corrupt=0.1");
  fault::FaultInjector injector{plan};
  auto run = run_profiled(aerofoil_small(), "2x2x1",
                          interp::EngineKind::Bytecode, &injector,
                          mp::RecoveryConfig::parse("default"));
  const auto matrix =
      build_comm_matrix(run.trace, &run.program->meta.tags, 16);
  expect_matrix_reconciles(matrix, run.result.cluster.ranks);

  long long cell_retransmits = 0, stat_retransmits = 0;
  double cell_recovery = 0.0, stat_recovery = 0.0;
  for (const auto& cell : matrix.cells) {
    cell_retransmits += cell.retransmits;
    cell_recovery += cell.recovery_s;
  }
  for (const auto& st : run.result.cluster.ranks) {
    stat_retransmits += st.retransmits;
    stat_recovery += st.recovery_time;
  }
  ASSERT_GT(stat_retransmits, 0) << "plan injected nothing, test is vacuous";
  EXPECT_EQ(cell_retransmits, stat_retransmits);
  EXPECT_NEAR(cell_recovery, stat_recovery, 1e-12);
}

TEST(CommMatrix, TimelineRowsSumToRankClocks) {
  auto run =
      run_profiled(sprayer_small(), "2x2", interp::EngineKind::Bytecode);
  const auto matrix =
      build_comm_matrix(run.trace, &run.program->meta.tags, 24);
  const auto breakdown = trace::rank_breakdown(run.trace);
  ASSERT_EQ(matrix.timeline.ranks.size(), breakdown.size());
  for (std::size_t r = 0; r < breakdown.size(); ++r) {
    TimelineCell sum;
    for (const auto& cell : matrix.timeline.ranks[r]) {
      sum.compute += cell.compute;
      sum.transfer += cell.transfer;
      sum.wait += cell.wait;
    }
    expect_near_rel(sum.compute, breakdown[r].compute, 1e-9);
    expect_near_rel(sum.transfer, breakdown[r].transfer, 1e-9);
    expect_near_rel(sum.wait, breakdown[r].wait, 1e-9);
  }
}

TEST(CommMatrix, ZeroElapsedTraceCollapsesToOneBucket) {
  // A zero-iteration run: every event is zero-width at t = 0, so the
  // bucket width degenerates to 0. The timeline must collapse to a
  // single bucket instead of keeping 24 unreachable ones.
  trace::Trace zero;
  zero.nranks = 2;
  zero.per_rank.resize(2);
  mp::TraceEvent e;
  e.kind = mp::EventKind::Compute;
  e.rank = 0;
  e.t0 = e.t1 = 0.0;
  zero.per_rank[0].push_back(e);
  const auto matrix = build_comm_matrix(zero, nullptr, 24);
  EXPECT_EQ(matrix.timeline.nbuckets, 1);
  EXPECT_EQ(matrix.timeline.bucket_s, 0.0);
  ASSERT_EQ(matrix.timeline.ranks.size(), 2u);
  ASSERT_EQ(matrix.timeline.ranks[0].size(), 1u);
  EXPECT_EQ(matrix.timeline.ranks[0][0].total(), 0.0);

  // A trace whose *final* event ends at t = 0 while an earlier span has
  // real width (elapsed() == 0, bucket width 0): the compute time must
  // land in the surviving bucket, not be silently dropped.
  trace::Trace degenerate;
  degenerate.nranks = 1;
  degenerate.per_rank.resize(1);
  mp::TraceEvent compute;
  compute.kind = mp::EventKind::Compute;
  compute.rank = 0;
  compute.t0 = 0.0;
  compute.t1 = 0.5;
  degenerate.per_rank[0].push_back(compute);
  mp::TraceEvent marker;
  marker.kind = mp::EventKind::Compute;
  marker.rank = 0;
  marker.t0 = marker.t1 = 0.0;
  degenerate.per_rank[0].push_back(marker);
  ASSERT_EQ(degenerate.elapsed(), 0.0);
  const auto m2 = build_comm_matrix(degenerate, nullptr, 24);
  EXPECT_EQ(m2.timeline.nbuckets, 1);
  ASSERT_EQ(m2.timeline.ranks[0].size(), 1u);
  EXPECT_DOUBLE_EQ(m2.timeline.ranks[0][0].compute, 0.5);
}

// ------------------------------------------------------------ reports

TEST(RunReport, ProvenanceAttachesLoopClasses) {
  auto run =
      run_profiled(sprayer_small(), "2x2", interp::EngineKind::Bytecode);
  ReportOptions opts;
  opts.title = "sprayer";
  opts.engine = "bytecode";
  const auto report = build_run_report(*run.program, run.result, run.trace,
                                       &run.obs.provenance, opts);
  int classified = 0;
  for (const auto& e : report.profile.entries) {
    if (e.is_loop && !e.loop_class.empty()) ++classified;
  }
  EXPECT_GT(classified, 0);

  // Every registered sync-plan site appears, halo sites carry the
  // explain engine's merge rationale.
  ASSERT_EQ(report.sites.size(), run.program->meta.tags.size());
  int halo_with_why = 0;
  for (const auto& s : report.sites) {
    if (s.kind == "halo" && !s.why.empty()) ++halo_with_why;
  }
  EXPECT_GT(halo_with_why, 0);
}

TEST(RunReport, JsonIsDeterministicAcrossRuns) {
  const auto render = [] {
    auto run =
        run_profiled(sprayer_small(), "2x2", interp::EngineKind::Bytecode);
    ReportOptions opts;
    opts.title = "sprayer";
    opts.engine = "bytecode";
    opts.seq_elapsed_s = 1.0;
    const auto report = build_run_report(
        *run.program, run.result, run.trace, &run.obs.provenance, opts);
    std::ostringstream os;
    write_report_json(report, os);
    return os.str();
  };
  const std::string a = render();
  const std::string b = render();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"speedup\""), std::string::npos);
}

TEST(RunReport, TextAndHtmlRender) {
  auto run =
      run_profiled(sprayer_small(), "2x2", interp::EngineKind::Bytecode);
  ReportOptions opts;
  opts.title = "sprayer <&> \"quoted\"";
  opts.engine = "bytecode";
  const auto report = build_run_report(*run.program, run.result, run.trace,
                                       &run.obs.provenance, opts);
  std::ostringstream text, html;
  write_report(report, obs::Format::Text, text);
  write_report(report, obs::Format::Html, html);
  EXPECT_NE(text.str().find("hot spots"), std::string::npos);
  EXPECT_NE(text.str().find("communication matrix"), std::string::npos);
  // HTML must escape the title, not interpolate it raw — in the run
  // report and in the other two HTML pages, which share its escaper.
  sweep::ScalingReport scaling;
  scaling.title = opts.title;
  ledger::RunRecord rec;
  rec.kind = "run";
  rec.input = opts.title;
  rec.metrics["elapsed_s"] = 1.0;
  std::ostringstream scaling_html, history_html;
  sweep::write_scaling_report(scaling, obs::Format::Html, scaling_html);
  ledger::write_history({rec}, obs::Format::Html, history_html);
  for (const auto& page :
       {html.str(), scaling_html.str(), history_html.str()}) {
    EXPECT_EQ(page.find("<&>"), std::string::npos);
    EXPECT_NE(page.find("&lt;&amp;&gt; &quot;quoted&quot;"),
              std::string::npos);
  }
}

TEST(RunReport, RecoverySummaryReconcilesAndRenders) {
  auto plan = fault::FaultPlan::parse("seed=11,drop=0.06,corrupt=0.03");
  fault::FaultInjector injector{plan};
  auto run = run_profiled(sprayer_small(), "2x2",
                          interp::EngineKind::Bytecode, &injector,
                          mp::RecoveryConfig::parse("default"));
  ReportOptions opts;
  opts.title = "sprayer";
  opts.engine = "bytecode";
  opts.recovery_enabled = true;
  const auto report = build_run_report(*run.program, run.result, run.trace,
                                       &run.obs.provenance, opts);

  long long retransmits = 0, recovered = 0;
  double recovery_s = 0.0;
  for (const auto& st : run.result.cluster.ranks) {
    retransmits += st.retransmits;
    recovered += st.recovered;
    recovery_s += st.recovery_time;
  }
  ASSERT_GT(retransmits, 0) << "plan injected nothing, test is vacuous";
  EXPECT_TRUE(report.recovery.enabled);
  EXPECT_EQ(report.recovery.retransmits, retransmits);
  EXPECT_EQ(report.recovery.recovered, recovered);
  EXPECT_NEAR(report.recovery.recovery_s, recovery_s, 1e-12);

  EXPECT_GT(report.recovery.recovered, 0);

  // The per-rank rows carry the recovery split and sum to the summary,
  // and each row's parts still sum to the rank's own clock.
  const double tol = 1e-9 * std::max(report.elapsed_s, 1e-12);
  ASSERT_EQ(report.ranks.size(), run.result.cluster.ranks.size());
  double rank_recovery = 0.0;
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& rb = report.ranks[r];
    EXPECT_LE(rb.recovery, rb.wait + 1e-12);
    EXPECT_NEAR(rb.total(), run.result.cluster.ranks[r].total_time(), tol);
    rank_recovery += rb.recovery;
  }
  EXPECT_NEAR(rank_recovery, report.recovery.recovery_s, 1e-12);

  std::ostringstream json, text;
  write_report_json(report, json);
  EXPECT_NE(json.str().find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.str().find("\"retransmits\""), std::string::npos);
  write_report(report, obs::Format::Text, text);
  EXPECT_NE(text.str().find("recovery:"), std::string::npos);
}

// ------------------------------------------------------- metrics view

TEST(ProfileMetrics, ExportsTotalsAndHotLoop) {
  auto run =
      run_profiled(sprayer_small(), "2x2", interp::EngineKind::Bytecode);
  auto profile = build_source_profile(run.result.profiles);
  attach_provenance(profile, run.obs.provenance);
  obs::MetricsRegistry reg;
  profile_to_metrics(profile, reg);
  EXPECT_EQ(reg.counter("prof.units"),
            static_cast<std::int64_t>(profile.entries.size()));
  EXPECT_GT(reg.counter("prof.loops"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("prof.flops"), profile.total_flops);
  EXPECT_GT(reg.gauge("prof.hot.time_s"), 0.0);
  EXPECT_GT(reg.gauge("prof.rank.0.compute_s"), 0.0);
}

}  // namespace
}  // namespace autocfd::prof
