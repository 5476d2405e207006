// Telemetry ledger: the contract of the src/ledger subsystem.
//
//   * A RunRecord round-trips write -> read -> write byte-identically,
//     including escape-heavy strings and extreme doubles — the
//     property that lets CI diff ledgers.
//   * The reader is tolerant: corrupt lines and foreign
//     schema_versions cost exactly themselves, with actionable
//     warnings naming the line; blank lines are free.
//   * The regression sentinel is direction-aware and robust: a 2x
//     elapsed regression trips it naming the metric, identical series
//     and improvements never do, and metrics below min_history wait
//     instead of gating.
//   * The builders distill real artifacts: a finished run report, a
//     bench sidecar (file and maps), and a sweep appends one coherent
//     record per cell. A run record does not depend on what else the
//     caller put in the metrics registry.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/ledger/history.hpp"
#include "autocfd/ledger/ledger.hpp"
#include "autocfd/ledger/record_builders.hpp"
#include "autocfd/ledger/sentinel.hpp"
#include "autocfd/obs/obs.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/support/output_paths.hpp"
#include "autocfd/sweep/sweep.hpp"
#include "autocfd/trace/metrics_bridge.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::ledger {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(testing::TempDir()) / name).string();
}

RunRecord make_rec(const std::string& input, double elapsed,
                   const std::string& kind = "run") {
  RunRecord rec;
  rec.kind = kind;
  rec.input = input;
  rec.build_type = "Release";
  rec.engine = "bytecode";
  rec.machine = "pentium_ethernet_1999";
  rec.metrics["elapsed_s"] = elapsed;
  return rec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------- round trips

TEST(LedgerRoundTrip, WriteReadWriteIsByteIdentical) {
  RunRecord rec = make_rec("aerofoil", 1.25);
  rec.source_fnv = source_fingerprint("program x\nend\n");
  rec.partition = "2x2x1";
  rec.strategy = "min";
  rec.nranks = 4;
  rec.seed = 7;
  rec.metrics["speedup"] = 1.0 / 3.0;
  rec.metrics["huge"] = 1e308;
  rec.metrics["tiny"] = 5e-324;
  rec.metrics["neg"] = -0.1;
  rec.attrs["hot.0.class"] = "A,C";
  rec.attrs["nasty"] = "quote\" back\\slash\nnewline\ttab";

  const std::string once = rec.json();
  const auto parsed = parse_ledger(once + "\n", "mem");
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_TRUE(parsed.warnings.empty());
  EXPECT_EQ(parsed.records[0].json(), once);
  EXPECT_EQ(parsed.records[0].attrs.at("nasty"),
            "quote\" back\\slash\nnewline\ttab");
}

TEST(LedgerRoundTrip, MultiRecordFileRoundTrips) {
  const std::string path = temp_path("multi.jsonl");
  std::error_code ec;
  fs::remove(path, ec);
  for (int i = 0; i < 5; ++i) {
    ASSERT_FALSE(append_record(path, make_rec("aerofoil", 1.0 + i)));
  }
  const auto first = read_file(path);
  const auto loaded = read_ledger(path);
  ASSERT_EQ(loaded.records.size(), 5u);
  EXPECT_TRUE(loaded.warnings.empty());

  const std::string rewritten = path + ".rw";
  fs::remove(rewritten, ec);
  for (const auto& rec : loaded.records) {
    ASSERT_FALSE(append_record(rewritten, rec));
  }
  EXPECT_EQ(read_file(rewritten), first);
}

TEST(LedgerRoundTrip, AppendIntoMissingDirectoryReportsError) {
  const auto err = append_record(
      temp_path("no_such_dir/sub/ledger.jsonl"), make_rec("a", 1.0));
  ASSERT_TRUE(err.has_value());
}

// --------------------------------------------------- tolerant reader

TEST(LedgerReader, CorruptLineIsSkippedWithLineNumber) {
  const std::string text = make_rec("a", 1.0).json() + "\n" +
                           "{this is not json\n" +
                           make_rec("a", 2.0).json() + "\n";
  const auto result = parse_ledger(text, "led.jsonl");
  ASSERT_EQ(result.records.size(), 2u);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("led.jsonl:2:"), std::string::npos)
      << result.warnings[0];
  EXPECT_NE(result.warnings[0].find("skipped"), std::string::npos);
}

TEST(LedgerReader, ForeignSchemaVersionIsSkippedWithActionableWarning) {
  RunRecord foreign = make_rec("a", 1.0);
  foreign.schema_version = 99;
  const std::string text =
      foreign.json() + "\n" + make_rec("a", 2.0).json() + "\n";
  const auto result = parse_ledger(text, "led.jsonl");
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].metrics.at("elapsed_s"), 2.0);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("schema_version 99"), std::string::npos)
      << result.warnings[0];
  EXPECT_NE(result.warnings[0].find("re-record or migrate"),
            std::string::npos);
}

TEST(LedgerReader, BlankLinesAreFreeAndMissingFileIsOneWarning) {
  const auto result =
      parse_ledger("\n\n" + make_rec("a", 1.0).json() + "\n\n", "mem");
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_TRUE(result.warnings.empty());

  const auto missing = read_ledger(temp_path("never_written.jsonl"));
  EXPECT_TRUE(missing.records.empty());
  EXPECT_EQ(missing.warnings.size(), 1u);
}

// ------------------------------------------------------------ sentinel

std::vector<RunRecord> history_of(const std::string& metric,
                                  std::initializer_list<double> values) {
  std::vector<RunRecord> records;
  for (const double v : values) {
    RunRecord rec = make_rec("aerofoil", 0.0);
    rec.metrics.erase("elapsed_s");
    rec.metrics[metric] = v;
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(Sentinel, DetectsDoubledElapsedNamingTheMetric) {
  const auto records =
      history_of("elapsed_s", {1.0, 1.0, 1.0, 1.0, 2.0});
  const auto report = run_sentinel(records);
  const auto regressions = report.regressions();
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0]->metric, "elapsed_s");
  EXPECT_EQ(regressions[0]->input, "aerofoil");
  EXPECT_DOUBLE_EQ(regressions[0]->baseline_median, 1.0);
  EXPECT_FALSE(report.ok());
}

TEST(Sentinel, IdenticalSeriesNeverTrips) {
  const auto report = run_sentinel(
      history_of("elapsed_s", {1.5, 1.5, 1.5, 1.5, 1.5, 1.5}));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.metrics_checked, 1u);
}

TEST(Sentinel, HigherBetterDirectionFlagsDropsNotRises) {
  // A speedup *drop* regresses...
  EXPECT_FALSE(
      run_sentinel(history_of("speedup", {2.0, 2.0, 2.0, 2.0, 1.0})).ok());
  // ...a speedup rise does not...
  EXPECT_TRUE(
      run_sentinel(history_of("speedup", {2.0, 2.0, 2.0, 2.0, 3.0})).ok());
  // ...and an elapsed *decrease* (an improvement) does not.
  EXPECT_TRUE(
      run_sentinel(history_of("elapsed_s", {2.0, 2.0, 2.0, 2.0, 1.0})).ok());
}

TEST(Sentinel, IdentityBitFlippingToZeroTrips) {
  const auto report = run_sentinel(
      history_of("results.identical", {1.0, 1.0, 1.0, 1.0, 0.0}));
  const auto regressions = report.regressions();
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0]->metric, "results.identical");
}

TEST(Sentinel, BelowMinHistoryWaitsInsteadOfGating) {
  const auto report =
      run_sentinel(history_of("elapsed_s", {1.0, 1.0, 5.0}));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.metrics_checked, 0u);
  EXPECT_EQ(report.metrics_waiting, 1u);
}

TEST(Sentinel, NoisyHistoryGetsProportionalSlack) {
  // MAD of {1.0, 1.3, 0.9, 1.4, 1.1} around median 1.1 is 0.2; the
  // band admits 4 * 0.2 = 0.8, so 1.7 passes while 2.5 still trips.
  EXPECT_TRUE(run_sentinel(
                  history_of("elapsed_s", {1.0, 1.3, 0.9, 1.4, 1.1, 1.7}))
                  .ok());
  EXPECT_FALSE(run_sentinel(
                   history_of("elapsed_s", {1.0, 1.3, 0.9, 1.4, 1.1, 2.5}))
                   .ok());
}

TEST(Sentinel, TextAndJsonOutputsNameTheVerdict) {
  const auto report =
      run_sentinel(history_of("elapsed_s", {1.0, 1.0, 1.0, 1.0, 2.0}));
  std::ostringstream text, json;
  write_sentinel_text(report, text);
  write_sentinel_json(report, json);
  EXPECT_NE(text.str().find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.str().find("elapsed_s"), std::string::npos);
  EXPECT_NE(json.str().find("\"regressed\": true"), std::string::npos);
}

// A committed baseline sidecar and a fresh one gate as a two-record
// ledger, the way CI runs perf_sentinel --min-history=1 --threshold=0.10
// --sidecar=BENCH_<fig>.json --sidecar=out/BENCH_<fig>.json.
using Numbers = std::map<std::string, double>;
using Strings = std::map<std::string, std::string>;

const Strings kReleaseMeta{{"meta.build_type", "Release"},
                           {"meta.engine", "bytecode"},
                           {"meta.machine", "pentium_ethernet_1999"}};

std::vector<RunRecord> sidecar_pair(const Numbers& base, const Numbers& cur,
                                    const Strings& base_strings = kReleaseMeta,
                                    const Strings& cur_strings = kReleaseMeta) {
  return {record_from_sidecar("fig_x", base, base_strings),
          record_from_sidecar("fig_x", cur, cur_strings)};
}

SentinelReport gate_pair(const std::vector<RunRecord>& pair) {
  SentinelOptions options;
  options.min_history = 1;
  options.rel_threshold = 0.10;
  return run_sentinel(pair, options);
}

TEST(Sentinel, SidecarPairGatesElapsedBeyondTheThreshold) {
  const auto up12 =
      gate_pair(sidecar_pair({{"a.elapsed_s", 1.0}}, {{"a.elapsed_s", 1.12}}));
  ASSERT_EQ(up12.regressions().size(), 1u);
  EXPECT_EQ(up12.regressions()[0]->metric, "a.elapsed_s");
  const auto up9 =
      gate_pair(sidecar_pair({{"a.elapsed_s", 1.0}}, {{"a.elapsed_s", 1.09}}));
  EXPECT_TRUE(up9.ok());
  EXPECT_EQ(up9.metrics_checked, 1u);
}

TEST(Sentinel, SidecarPairGatesSpeedupAndIdentityDrops) {
  const auto slower =
      gate_pair(sidecar_pair({{"a.speedup", 2.0}}, {{"a.speedup", 1.78}}));
  ASSERT_EQ(slower.regressions().size(), 1u);
  EXPECT_EQ(slower.regressions()[0]->metric, "a.speedup");
  const auto differs = gate_pair(sidecar_pair({{"a.results_identical", 1.0}},
                                              {{"a.results_identical", 0.0}}));
  ASSERT_EQ(differs.regressions().size(), 1u);
  EXPECT_EQ(differs.regressions()[0]->metric, "a.results_identical");
}

TEST(Sentinel, SidecarPairSkipsOneSidedAndRetypedKeys) {
  // b.* exists only in the baseline; c.* became a string in the fresh
  // sidecar; d.* was a string in the baseline. None of them gates.
  Strings cur_strings = kReleaseMeta;
  cur_strings["c.elapsed_s"] = "n/a";
  Strings base_strings = kReleaseMeta;
  base_strings["d.elapsed_s"] = "n/a";
  const auto report = gate_pair(sidecar_pair(
      {{"a.elapsed_s", 1.0}, {"b.elapsed_s", 1.0}, {"c.elapsed_s", 1.0}},
      {{"a.elapsed_s", 1.0}, {"d.elapsed_s", 9.0}}, base_strings,
      cur_strings));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.metrics_checked, 1u);  // a.elapsed_s
  EXPECT_EQ(report.metrics_waiting, 1u);  // d.elapsed_s
}

TEST(Sentinel, SidecarPairWithMismatchedBuildTypeIsRefused) {
  Strings debug = kReleaseMeta;
  debug["meta.build_type"] = "Debug";
  const auto pair = sidecar_pair({{"a.elapsed_s", 1.0}},
                                 {{"a.elapsed_s", 10.0}}, kReleaseMeta, debug);
  // The pair splits into two identity groups, so the sentinel alone
  // checks nothing and would pass...
  EXPECT_EQ(gate_pair(pair).metrics_checked, 0u);
  // ...so the fresh record is refused, naming the differing field.
  const auto mismatch = identity_mismatch(pair, 1);
  ASSERT_EQ(mismatch.size(), 1u);
  EXPECT_EQ(mismatch[0], "build_type: 'Release' vs 'Debug'");
  // The first record of an input, and a matched pair, pass the guard.
  EXPECT_TRUE(identity_mismatch(pair, 0).empty());
  EXPECT_TRUE(identity_mismatch(
                  sidecar_pair({{"a.elapsed_s", 1.0}}, {{"a.elapsed_s", 1.0}}),
                  1)
                  .empty());
}

// ----------------------------------------------------------- builders

TEST(RecordBuilders, DistillsARealRunReport) {
  cfd::AerofoilParams p;
  p.n1 = 16;
  p.n2 = 8;
  p.n3 = 4;
  p.frames = 1;
  const auto source = cfd::aerofoil_source(p);
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(source, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.dump();
  dirs.partition = partition::PartitionSpec::parse("2x1x1");

  obs::ObsContext obs;
  auto program = core::parallelize(source, dirs,
                                   sync::CombineStrategy::Min, &obs);
  trace::TraceRecorder recorder;
  codegen::SpmdRunOptions opts;
  opts.sink = &recorder;
  opts.profile = true;
  const auto run =
      program->run(mp::MachineConfig::pentium_ethernet_1999(), opts);
  prof::ReportOptions ropts;
  ropts.title = "aerofoil";
  ropts.engine = "bytecode";
  const auto report = prof::build_run_report(*program, run,
                                             recorder.trace(), nullptr,
                                             ropts);

  RunMeta meta;
  meta.kind = "run";
  meta.input = "aerofoil";
  meta.machine = "pentium_ethernet_1999";
  meta.source = source;
  const auto rec = make_run_record(meta, &report, &obs);

  EXPECT_EQ(rec.kind, "run");
  EXPECT_EQ(rec.engine, "bytecode");
  EXPECT_EQ(rec.partition, "2x1x1");
  EXPECT_EQ(rec.nranks, 2);
  EXPECT_EQ(rec.source_fnv, source_fingerprint(source));
  EXPECT_DOUBLE_EQ(rec.metrics.at("elapsed_s"), report.elapsed_s);
  EXPECT_GT(rec.metrics.at("comm.messages"), 0.0);
  EXPECT_GT(rec.metrics.at("compile.field_loops"), 0.0);
  EXPECT_TRUE(rec.metrics.count("hot.0.time_s"));
  EXPECT_TRUE(rec.attrs.count("hot.0.class"));
  EXPECT_TRUE(rec.metrics.count("phase.total.wall_s"));
  // comm.share is a true share of the rank-time decomposition.
  const double share = rec.metrics.at("comm.share");
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
  // And the whole thing round-trips like any other record.
  const auto back = parse_ledger(rec.json() + "\n", "mem");
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].json(), rec.json());

  // What a caller exports into the metrics registry (acfd
  // --metrics-out) never reaches the record: the same run gives the
  // same record with or without it.
  trace::trace_to_metrics(recorder.trace(), obs.metrics);
  obs.metrics.set_gauge("runtime.elapsed_s", 2.0 * report.elapsed_s);
  obs.metrics.add("engine.bytecode.kernels_compiled", 3);
  ASSERT_FALSE(obs.metrics.histograms().empty());
  EXPECT_EQ(make_run_record(meta, &report, &obs).json(), rec.json());
}

TEST(RecordBuilders, LiftsSidecarMetaIntoIdentity) {
  std::map<std::string, double> numbers{{"meta.seed", 7.0},
                                        {"aero.elapsed_s", 1.5},
                                        {"meta.schema_version", 1.0}};
  std::map<std::string, std::string> strings{
      {"meta.build_type", "Debug"},
      {"meta.engine", "tree"},
      {"meta.machine", "pentium_ethernet_1999"},
      {"hot.0.class", "A"}};
  const auto rec = record_from_sidecar("fig_x", numbers, strings);
  EXPECT_EQ(rec.kind, "bench");
  EXPECT_EQ(rec.input, "fig_x");
  EXPECT_EQ(rec.build_type, "Debug");
  EXPECT_EQ(rec.engine, "tree");
  EXPECT_EQ(rec.seed, 7);
  EXPECT_EQ(rec.metrics.at("aero.elapsed_s"), 1.5);
  EXPECT_EQ(rec.attrs.at("hot.0.class"), "A");
  EXPECT_FALSE(rec.metrics.count("meta.seed"));
}

TEST(RecordBuilders, StampsTheConfiguredBuildType) {
  // The stamp is the configured CMake build type, not an NDEBUG guess:
  // a RelWithDebInfo build must not pass for Release, or perf_sentinel's
  // identity guard could not refuse such a pair. The expected value
  // comes from CMAKE_BUILD_TYPE through a separate definition.
  EXPECT_EQ(build_type_name(), AUTOCFD_TEST_BUILD_TYPE);
  EXPECT_EQ(record_from_sidecar("fig_x", {}, {}).build_type,
            AUTOCFD_TEST_BUILD_TYPE);
  RunMeta meta;
  meta.kind = "run";
  EXPECT_EQ(make_run_record(meta, nullptr, nullptr).build_type,
            AUTOCFD_TEST_BUILD_TYPE);
}

TEST(RecordBuilders, ReadsASidecarFileAndStripsThePrefix) {
  const std::string path = temp_path("BENCH_fig_demo.json");
  {
    std::ofstream os(path);
    os << "{\n  \"demo.elapsed_s\": 2.5,\n  \"meta.engine\": "
          "\"bytecode\"\n}\n";
  }
  std::string error;
  const auto rec = record_from_sidecar_file(path, &error);
  ASSERT_TRUE(rec.has_value()) << error;
  EXPECT_EQ(rec->input, "fig_demo");
  EXPECT_EQ(rec->engine, "bytecode");
  EXPECT_EQ(rec->metrics.at("demo.elapsed_s"), 2.5);

  EXPECT_FALSE(
      record_from_sidecar_file(temp_path("missing.json"), &error));
  EXPECT_NE(error.find("missing.json"), std::string::npos);
}

// ----------------------------------------------------- sweep producer

TEST(SweepLedger, AppendsOneCoherentRecordPerCell) {
  cfd::AerofoilParams p;
  p.n1 = 16;
  p.n2 = 8;
  p.n3 = 4;
  p.frames = 1;
  const auto source = cfd::aerofoil_source(p);
  DiagnosticEngine diags;
  const auto dirs = core::Directives::extract(source, diags);
  ASSERT_FALSE(diags.has_errors());

  sweep::SweepSpec spec;
  spec.title = "aerofoil";
  spec.ranks = {1, 2};
  const std::string path = temp_path("sweep.jsonl");
  std::error_code ec;
  fs::remove(path, ec);
  sweep::SweepOptions options;
  options.ledger_path = path;
  const auto result = sweep::run_sweep(source, dirs, spec, options);
  EXPECT_TRUE(result.ledger_error.empty()) << result.ledger_error;

  const auto loaded = read_ledger(path);
  ASSERT_EQ(loaded.records.size(), result.report.cells.size());
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    const auto& rec = loaded.records[i];
    const auto& cell = result.report.cells[i];
    EXPECT_EQ(rec.kind, "sweep-cell");
    EXPECT_EQ(rec.input, "aerofoil");
    EXPECT_EQ(rec.nranks, cell.nranks);
    EXPECT_EQ(rec.partition, cell.partition);
    EXPECT_DOUBLE_EQ(rec.metrics.at("elapsed_s"), cell.elapsed_s);
    EXPECT_DOUBLE_EQ(rec.metrics.at("cell.speedup"), cell.speedup);
    EXPECT_DOUBLE_EQ(rec.metrics.at("cell.efficiency"), cell.efficiency);
    EXPECT_TRUE(rec.metrics.count("cell.comm_share"));
  }
}

// ------------------------------------------------------------ history

TEST(History, SparklineShapesFollowTheSeries) {
  EXPECT_EQ(sparkline({1.0, 1.0, 1.0}, 8), "===");
  const auto rising = sparkline({0.0, 1.0, 2.0, 3.0}, 8);
  EXPECT_EQ(rising.front(), ' ');
  EXPECT_EQ(rising.back(), '@');
  // Only the last `width` samples are drawn.
  EXPECT_EQ(sparkline({9.0, 9.0, 1.0, 1.0}, 2).size(), 2u);
}

TEST(History, RendersAllThreeFormats) {
  std::vector<RunRecord> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(make_rec("aerofoil", 1.0 + 0.1 * i));
  }
  std::ostringstream text, json, html;
  write_history(records, obs::Format::Text, text);
  write_history(records, obs::Format::Json, json);
  write_history(records, obs::Format::Html, html);
  EXPECT_NE(text.str().find("== run aerofoil"), std::string::npos);
  EXPECT_NE(text.str().find("elapsed_s"), std::string::npos);
  EXPECT_NE(json.str().find("\"metric\": \"elapsed_s\""),
            std::string::npos);
  EXPECT_NE(html.str().find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.str().find("elapsed_s"), std::string::npos);
}

// ----------------------------------------------- output-path guarding

TEST(OutputPaths, LedgerAndHistoryDestinationsAreValidated) {
  // The same validator acfd routes --ledger/--history-out through.
  const auto bad = support::validate_output_paths(
      {{"--ledger", temp_path("no_such_dir/ledger.jsonl")}});
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("--ledger"), std::string::npos);

  const auto dup = support::validate_output_paths(
      {{"--ledger", temp_path("same.jsonl")},
       {"--history-out", temp_path("same.jsonl")}});
  ASSERT_TRUE(dup.has_value());

  const auto ok = support::validate_output_paths(
      {{"--ledger", temp_path("fine.jsonl")}});
  EXPECT_FALSE(ok.has_value());
}

}  // namespace
}  // namespace autocfd::ledger
