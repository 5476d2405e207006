// Observability: pass profiler, decision provenance, metrics registry,
// and the acceptance criteria of the three on a full aerofoil pipeline
// (every field loop explained, every combined point cross-referenced,
// phase wall times accounting for the pipeline total).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/obs/json_util.hpp"
#include "autocfd/obs/obs.hpp"
#include "autocfd/trace/metrics_bridge.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd {
namespace {

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

TEST(JsonUtil, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\ny\t"), "x\\ny\\t");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonUtil, NumbersAreAlwaysValidJson) {
  EXPECT_EQ(obs::json_number(2.0), "2");
  EXPECT_EQ(obs::json_number(std::nan("")), "0");
  // Infinities are clamped to finite values, never "inf".
  EXPECT_EQ(obs::json_number(HUGE_VAL).find("inf"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram / MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Histogram, BucketsAndSummaryStats) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.mean(), 555.5 / 4.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(h.bucket_counts()[0], 1);
  EXPECT_EQ(h.bucket_counts()[1], 1);
  EXPECT_EQ(h.bucket_counts()[2], 1);
  EXPECT_EQ(h.bucket_counts()[3], 1);
}

TEST(Histogram, EmptyHistogramHasZeroStats) {
  obs::Histogram h(obs::seconds_buckets());
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.counter("never.touched"), 0);
  reg.add("c");
  reg.add("c", 4);
  EXPECT_EQ(reg.counter("c"), 5);
  reg.set_gauge("g", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 2.5);
  reg.histogram("h", {1.0}).observe(0.5);
  ASSERT_NE(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(MetricsRegistry, JsonIsDeterministicAndSchemaStable) {
  obs::MetricsRegistry reg;
  reg.add("z.counter", 2);
  reg.add("a.counter", 1);
  reg.set_gauge("gauge", 1.5);
  reg.histogram("lat", {1.0, 2.0}).observe(0.5);
  const std::string json = reg.json();
  // Top-level sections and sorted keys.
  const auto a = json.find("\"a.counter\"");
  const auto z = json.find("\"z.counter\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
  for (const char* needle :
       {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"count\"", "\"min\"",
        "\"max\"", "\"sum\"", "\"mean\"", "\"buckets\"", "\"le\"", "\"inf\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Two registries with the same content serialize identically.
  obs::MetricsRegistry reg2;
  reg2.histogram("lat", {1.0, 2.0}).observe(0.5);
  reg2.set_gauge("gauge", 1.5);
  reg2.add("a.counter", 1);
  reg2.add("z.counter", 2);
  EXPECT_EQ(json, reg2.json());
}

// ---------------------------------------------------------------------------
// PassProfiler
// ---------------------------------------------------------------------------

TEST(PassProfiler, RecordsPhasesWithCounters) {
  obs::PassProfiler profiler;
  {
    obs::PassProfiler::PhaseTimer t(&profiler, "alpha");
    t.count("widgets", 3);
    t.count("widgets");
  }
  ASSERT_EQ(profiler.phases().size(), 1u);
  const auto* p = profiler.find("alpha");
  ASSERT_NE(p, nullptr);
  EXPECT_GE(p->wall_s, 0.0);
  EXPECT_DOUBLE_EQ(p->counters.at("widgets"), 4.0);
  EXPECT_EQ(profiler.find("beta"), nullptr);
}

TEST(PassProfiler, SameNamePhasesAccumulate) {
  obs::PassProfiler profiler;
  for (int i = 0; i < 3; ++i) {
    obs::PassProfiler::PhaseTimer t(&profiler, "loop");
    t.count("iters");
  }
  ASSERT_EQ(profiler.phases().size(), 1u);
  EXPECT_DOUBLE_EQ(profiler.phases()[0].counters.at("iters"), 3.0);
}

TEST(PassProfiler, NullProfilerIsANoOp) {
  obs::PassProfiler::PhaseTimer t(nullptr, "ghost");
  t.count("x", 100);
  t.stop();  // must not crash
}

TEST(PassProfiler, ExportsToMetricsUnderCompileNamespace) {
  obs::PassProfiler profiler;
  {
    obs::PassProfiler::TotalTimer total(&profiler);
    obs::PassProfiler::PhaseTimer t(&profiler, "parse");
    t.count("units", 2);
  }
  obs::MetricsRegistry reg;
  profiler.to_metrics(reg);
  EXPECT_EQ(reg.counter("compile.parse.units"), 2);
  EXPECT_GE(reg.gauge("compile.parse.wall_s"), 0.0);
  EXPECT_GT(reg.gauge("compile.total.wall_s"), 0.0);
}

// ---------------------------------------------------------------------------
// ProvenanceLog
// ---------------------------------------------------------------------------

TEST(ProvenanceLog, TextAndJsonReports) {
  obs::ProvenanceLog log;
  log.add(obs::DecisionKind::LoopClassification, {12, 3}, "loop@12 array v",
          "C", "assigned and referenced");
  log.add(obs::DecisionKind::CombineMerge, {40, 1}, "sync point at slot 7",
          "merged 2 regions", "2 region(s) share a 3-slot intersection",
          {0, 1});
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.of_kind(obs::DecisionKind::CombineMerge).size(), 1u);
  EXPECT_TRUE(log.of_kind(obs::DecisionKind::RegionHoist).empty());

  const std::string text = log.text_report();
  EXPECT_NE(text.find("explain: [classify] 12:3 loop@12 array v -> C"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{0,1}"), std::string::npos) << text;

  std::ostringstream os;
  log.write_json(os);
  const std::string json = os.str();
  for (const char* needle :
       {"\"decisions\"", "\"kind\": \"loop_classification\"",
        "\"kind\": \"combine_merge\"", "\"refs\": [0, 1]", "\"line\": 12"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

// ---------------------------------------------------------------------------
// Trace -> metrics bridge (hand-built trace: exact expectations)
// ---------------------------------------------------------------------------

TEST(TraceMetricsBridge, FoldsEventsIntoRuntimeMetrics) {
  trace::Trace t;
  t.nranks = 2;
  t.per_rank.resize(2);
  mp::TraceEvent send;
  send.kind = mp::EventKind::Send;
  send.rank = 0;
  send.bytes = 1024;
  send.n_messages = 2;
  send.t1 = 1.0;
  t.per_rank[0].push_back(send);
  mp::TraceEvent recv;
  recv.kind = mp::EventKind::Recv;
  recv.rank = 1;
  recv.wait = 0.25;
  recv.t1 = 1.5;
  t.per_rank[1].push_back(recv);
  mp::TraceEvent coll;
  coll.kind = mp::EventKind::AllReduce;
  coll.rank = 0;
  coll.wait = 0.125;
  coll.t1 = 2.0;
  t.per_rank[0].push_back(coll);
  mp::TraceEvent lost;
  lost.kind = mp::EventKind::Unreceived;
  lost.rank = 0;
  lost.bytes = 8;
  t.unreceived.push_back(lost);

  obs::MetricsRegistry reg;
  trace::trace_to_metrics(t, reg);

  EXPECT_EQ(reg.counter("runtime.messages"), 2);
  EXPECT_EQ(reg.counter("runtime.bytes"), 1024);
  EXPECT_EQ(reg.counter("runtime.collectives"), 1);
  EXPECT_EQ(reg.counter("runtime.unreceived"), 1);

  const auto* bytes = reg.find_histogram("runtime.send_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->count(), 1);
  EXPECT_DOUBLE_EQ(bytes->sum(), 1024.0);
  const auto* wait = reg.find_histogram("runtime.recv_wait_s");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 1);
  EXPECT_DOUBLE_EQ(wait->sum(), 0.25);
  const auto* r0 = reg.find_histogram("runtime.rank.0.send_bytes");
  ASSERT_NE(r0, nullptr);
  EXPECT_EQ(r0->count(), 1);
  const auto* r1 = reg.find_histogram("runtime.rank.1.send_bytes");
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->count(), 0);

  EXPECT_GT(reg.gauge("runtime.elapsed_s"), 0.0);
  EXPECT_GE(reg.gauge("runtime.rank.1.wait_s"), 0.25);
}

TEST(TraceMetricsBridge, ZeroMessageRankStillGetsItsHistograms) {
  // A rank that never communicates (1-rank "cluster", compute only)
  // must still appear in the registry with empty histograms and zeroed
  // gauges — consumers key on the metric names, not on traffic.
  trace::Trace t;
  t.nranks = 2;
  t.per_rank.resize(2);
  mp::TraceEvent compute;
  compute.kind = mp::EventKind::Compute;
  compute.rank = 0;
  compute.t0 = 0.0;
  compute.t1 = 0.5;
  t.per_rank[0].push_back(compute);
  // rank 1 recorded no events at all.

  obs::MetricsRegistry reg;
  trace::trace_to_metrics(t, reg);

  for (int r = 0; r < 2; ++r) {
    const std::string prefix = "runtime.rank." + std::to_string(r) + ".";
    const auto* bytes = reg.find_histogram(prefix + "send_bytes");
    ASSERT_NE(bytes, nullptr) << "rank " << r;
    EXPECT_EQ(bytes->count(), 0) << "rank " << r;
    const auto* wait = reg.find_histogram(prefix + "recv_wait_s");
    ASSERT_NE(wait, nullptr) << "rank " << r;
    EXPECT_EQ(wait->count(), 0) << "rank " << r;
  }
  EXPECT_EQ(reg.counter("runtime.messages"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.rank.0.compute_s"), 0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.rank.1.compute_s"), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.rank.1.wait_s"), 0.0);
}

TEST(TraceMetricsBridge, SingleEventRun) {
  trace::Trace t;
  t.nranks = 1;
  t.per_rank.resize(1);
  mp::TraceEvent compute;
  compute.kind = mp::EventKind::Compute;
  compute.rank = 0;
  compute.t0 = 0.0;
  compute.t1 = 2.0;
  t.per_rank[0].push_back(compute);

  obs::MetricsRegistry reg;
  trace::trace_to_metrics(t, reg);
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.elapsed_s"), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.rank.0.compute_s"), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("runtime.rank.0.transfer_s"), 0.0);
  EXPECT_EQ(reg.counter("runtime.messages"), 0);
  EXPECT_EQ(reg.counter("runtime.collectives"), 0);
}

TEST(TraceMetricsBridge, JsonIsDeterministicAcrossBridgings) {
  trace::Trace t;
  t.nranks = 3;
  t.per_rank.resize(3);
  for (int r = 0; r < 3; ++r) {
    mp::TraceEvent send;
    send.kind = mp::EventKind::Send;
    send.rank = r;
    send.bytes = 64 * (r + 1);
    send.n_messages = 1;
    send.t1 = 0.1 * (r + 1);
    t.per_rank[static_cast<std::size_t>(r)].push_back(send);
  }
  const auto render = [&] {
    obs::MetricsRegistry reg;
    trace::trace_to_metrics(t, reg);
    return reg.json();
  };
  const std::string a = render();
  const std::string b = render();
  EXPECT_EQ(a, b);
  // Metric ordering is sorted, so rank 10 would sort before rank 2 —
  // the schema relies on map ordering, which json() must preserve.
  EXPECT_LT(a.find("runtime.rank.0.send_bytes"),
            a.find("runtime.rank.1.send_bytes"));
  EXPECT_LT(a.find("runtime.rank.1.send_bytes"),
            a.find("runtime.rank.2.send_bytes"));
}

// ---------------------------------------------------------------------------
// Full-pipeline acceptance (aerofoil at trace_viewer's laptop size)
// ---------------------------------------------------------------------------

// trace_viewer's laptop-friendly aerofoil on 4 ranks: small enough to
// run per test, big enough to exercise every decision kind.
std::string aerofoil_src() {
  cfd::AerofoilParams p;
  p.n1 = 48;
  p.n2 = 20;
  p.n3 = 8;
  p.frames = 2;
  return cfd::aerofoil_source(p);
}

struct AerofoilObs {
  obs::ObsContext obs;
  std::unique_ptr<core::ParallelProgram> program;

  AerofoilObs() {
    const auto src = aerofoil_src();
    DiagnosticEngine diags;
    auto dirs = core::Directives::extract(src, diags);
    dirs.partition = partition::PartitionSpec::parse("4x1x1");
    program = core::parallelize(src, dirs, sync::CombineStrategy::Min, &obs);
  }
};

TEST(ObsPipeline, EveryFieldLoopHasAClassificationEntry) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  ASSERT_GT(rep.field_loops, 0);
  // One classification decision per (loop, status array); the distinct
  // source lines cover every field loop.
  std::set<std::uint32_t> lines;
  for (const auto* e :
       f.obs.provenance.of_kind(obs::DecisionKind::LoopClassification)) {
    EXPECT_TRUE(e->loc.valid()) << e->subject;
    EXPECT_FALSE(e->decision.empty());
    EXPECT_FALSE(e->rationale.empty());
    lines.insert(e->loc.line);
  }
  EXPECT_GE(static_cast<int>(lines.size()), rep.field_loops);

  // Reduction-shaped scalars: the per-point `acc` is private, `resmax`
  // a true reduction, each with its reason.
  int private_acc = 0, resmax = 0;
  for (const auto* e :
       f.obs.provenance.of_kind(obs::DecisionKind::ScalarClassification)) {
    if (e->subject.ends_with("scalar 'acc'")) {
      ++private_acc;
      EXPECT_EQ(e->decision, "private");
      EXPECT_TRUE(e->rationale.starts_with("killed at line "))
          << e->rationale;
      EXPECT_TRUE(e->rationale.ends_with(", dead after the nest"))
          << e->rationale;
    } else if (e->subject.ends_with("scalar 'resmax'")) {
      ++resmax;
      EXPECT_EQ(e->decision, "reduction");
      EXPECT_EQ(e->rationale, "not killed in the nest");
    }
  }
  EXPECT_GT(private_acc, 0);
  EXPECT_EQ(resmax, 1);
  const std::string text = f.obs.provenance.text_report();
  EXPECT_NE(text.find("scalar 'resmax' -> reduction (not killed in the nest)"),
            std::string::npos);
  EXPECT_NE(text.find("scalar 'acc' -> private (killed at line "),
            std::string::npos);
}

TEST(ObsPipeline, EveryCombinedSyncListsItsMergedRegions) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  ASSERT_GT(rep.syncs_after, 0);
  const auto merges =
      f.obs.provenance.of_kind(obs::DecisionKind::CombineMerge);
  EXPECT_EQ(static_cast<int>(merges.size()), rep.syncs_after);
  for (const auto* e : merges) {
    ASSERT_FALSE(e->refs.empty()) << e->subject;
    for (const int id : e->refs) {
      EXPECT_GE(id, 0) << e->subject;
      EXPECT_LT(id, rep.syncs_before) << e->subject;
    }
  }
  // Combining never drops a region: the merged ids cover all regions.
  std::set<int> covered;
  for (const auto* e : merges) covered.insert(e->refs.begin(), e->refs.end());
  EXPECT_EQ(static_cast<int>(covered.size()), rep.syncs_before);
}

TEST(ObsPipeline, SelfDependentLoopsAreExplained) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  ASSERT_GT(rep.self_dependent_loops, 0);
  const auto entries =
      f.obs.provenance.of_kind(obs::DecisionKind::SelfDependence);
  EXPECT_FALSE(entries.empty());
}

TEST(ObsPipeline, PhaseWallTimesAccountForTheTotal) {
  AerofoilObs f;
  const double total = f.obs.profiler.total_wall_s();
  const double phases = f.obs.profiler.phase_sum_s();
  ASSERT_GT(total, 0.0);
  // The phases are contiguous RAII scopes over the whole pipeline, so
  // their sum must be within 5% of the measured total (acceptance
  // criterion; the slack covers scope-transition overhead).
  EXPECT_NEAR(phases, total, 0.05 * total)
      << f.obs.profiler.text_report();
}

TEST(ObsPipeline, ProfileCountersMatchTheReport) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  const auto* classify = f.obs.profiler.find("classify");
  ASSERT_NE(classify, nullptr);
  EXPECT_DOUBLE_EQ(classify->counters.at("loops"),
                   static_cast<double>(rep.field_loops));
  const auto* regions = f.obs.profiler.find("regions");
  ASSERT_NE(regions, nullptr);
  const auto* combine = f.obs.profiler.find("combine");
  ASSERT_NE(combine, nullptr);
  EXPECT_DOUBLE_EQ(combine->counters.at("points"),
                   static_cast<double>(rep.syncs_after));
  const auto* depend = f.obs.profiler.find("depend");
  ASSERT_NE(depend, nullptr);
  EXPECT_GE(depend->counters.at("edges_tested"),
            depend->counters.at("pairs_admitted"));
  EXPECT_DOUBLE_EQ(depend->counters.at("pairs_admitted"),
                   static_cast<double>(rep.dependence_pairs));
}

TEST(ObsPipeline, MetricsExportUnifiesCompileAndRuntime) {
  AerofoilObs f;
  f.obs.export_profile_to_metrics();
  EXPECT_GT(f.obs.metrics.gauge("compile.total.wall_s"), 0.0);
  EXPECT_EQ(f.obs.metrics.counter("compile.classify.loops"),
            f.program->report.field_loops);

  // Simulated run feeds the same registry through the trace bridge.
  trace::TraceRecorder recorder;
  auto run = f.program->run(mp::MachineConfig::pentium_ethernet_1999(),
                            &recorder);
  (void)run;
  trace::trace_to_metrics(recorder.trace(), f.obs.metrics);
  EXPECT_GT(f.obs.metrics.counter("runtime.messages"), 0);
  const auto* h = f.obs.metrics.find_histogram("runtime.send_bytes");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0);
  // One document, both halves present, valid deterministic JSON.
  const std::string json = f.obs.metrics.json();
  EXPECT_NE(json.find("\"compile.total.wall_s\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime.send_bytes\""), std::string::npos);
}

TEST(ObsPipeline, NullContextStillProducesTheSameProgram) {
  const auto src = aerofoil_src();
  obs::ObsContext obs;
  auto with = core::parallelize(src, &obs);
  auto without = core::parallelize(src, nullptr);
  EXPECT_EQ(with->parallel_source, without->parallel_source);
  EXPECT_EQ(with->report.syncs_after, without->report.syncs_after);
  EXPECT_FALSE(obs.provenance.entries().empty());
}

}  // namespace
}  // namespace autocfd
