// acfd: the Auto-CFD pre-compiler as a command-line tool.
//
//   acfd input.f [-o output.f] [--partition 4x1x1 | --nprocs 6]
//        [--strategy min|pairwise|none] [--run] [--analyze]
//        [--report[=json|text|html]] [--report-out r.json]
//        [--explain[=text|json]] [--profile] [--metrics-out m.json]
//        [--faults=SPEC] [--recovery[=SPEC]] [--watchdog=SEC]
//        [--plan-from=report.json --plan-out=plan.json] [--plan=plan.json]
//        [--sweep=spec.json --sweep-out=scaling.json [--sweep-format=FMT]]
//
// Reads a sequential Fortran CFD program (directives embedded as
// !$acfd comments or overridden on the command line), writes the SPMD
// message-passing program, prints the optimization report, and — with
// --run — executes both versions on the simulated cluster and checks
// they agree.
//
// Observability:
//   --explain          print why every decision was taken (the
//                      decision-provenance log); =json emits the log as
//                      a single JSON document on stdout and moves all
//                      human-readable chatter to stderr, so
//                      `acfd ... --explain=json | python3 -m json.tool`
//                      round-trips.
//   --profile          print the pass profile (per-phase wall time and
//                      counters).
//   --metrics-out F    write the unified metrics registry (compile
//                      phases; plus per-rank runtime histograms when
//                      --run is given) as JSON to F.
//   --report[=FMT]     execute (implies --run) with source-attributed
//                      profiling on and emit the unified run report —
//                      compile decisions joined with per-loop runtime
//                      cost, the communication matrix and per-rank
//                      timelines. FMT: text (default) | json | html.
//   --report-out F     write the run report to F instead of stdout.
//
// Profile-guided planning (the two-run workflow):
//   --plan-from F      read a prior run's --report=json file, search
//                      partition shapes x combine strategies against the
//                      measured profile and comm matrix (biased by
//                      --faults when given), and emit a PlanFile; no
//                      compile or run happens in this mode.
//   --plan-out F       write the PlanFile to F (default: stdout).
//   --plan F           apply a PlanFile: its partition and combining
//                      strategy override the static heuristics, and
//                      every override shows up under --explain.
//
// Scaling observatory (the multi-run workflow):
//   --sweep F          read a SweepSpec (rank counts x partitions x
//                      engines, optional fault plan), execute every
//                      cell on the simulated cluster, and emit one
//                      ScalingReport — speedup/efficiency curves,
//                      Karp-Flatt serial fractions, per-site
//                      communication-share trends, comm-bound vs
//                      compute-bound crossover. With "plan": true in
//                      the spec, the planner's candidate table is
//                      scored at every scale point.
//   --sweep-out F      write the ScalingReport to F (default stdout);
//                      format from the extension unless --sweep-format.
//   --sweep-format FMT json | text (default) | html.
//
// Telemetry ledger (the persistent memory between invocations):
//   --ledger F         append one schema-versioned RunRecord per
//                      execution to the JSONL ledger F: a --run
//                      distills its run report and pass profile, a
//                      --sweep appends one record per cell. The ledger
//                      feeds tools/perf_sentinel (the regression gate)
//                      and --history (the trend views).
//   --history[=FMT]    render trend tables over the ledger named by
//                      --ledger and any sidecars under --history-bench;
//                      needs no input program. FMT: text (default) |
//                      json | html (a self-contained dashboard).
//   --history-out F    write the history view to F instead of stdout.
//   --history-bench D  also fold every BENCH_*.json in directory D
//                      into the history as "bench" records.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/fault/fault.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/ledger/history.hpp"
#include "autocfd/ledger/ledger.hpp"
#include "autocfd/ledger/record_builders.hpp"
#include "autocfd/plan/planner.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/support/output_paths.hpp"
#include "autocfd/sweep/sweep.hpp"
#include "autocfd/trace/metrics_bridge.hpp"
#include "autocfd/trace/recorder.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: acfd input.f [options]\n"
      "  -o FILE            write the SPMD program to FILE (default:\n"
      "                     input with a _par suffix)\n"
      "  --partition SPEC   partition, e.g. 4x1x1 (overrides directives)\n"
      "  --nprocs N         processor count for the partition search\n"
      "  --strategy S       sync combining: min (default) | pairwise | none\n"
      "  --run              execute on the simulated cluster and validate\n"
      "  --engine=E         statement executor: bytecode (default) | tree\n"
      "                     (the reference tree-walker; results are\n"
      "                     bit-identical, bytecode is just faster)\n"
      "  --analyze          print the analysis report only (no output file)\n"
      "  --report[=FMT]     run (implies --run) with profiling and emit the\n"
      "                     unified run report; FMT: text (default) | json\n"
      "                     | html\n"
      "  --report-out F     write the run report to F instead of stdout\n"
      "  --explain[=FMT]    print decision provenance; FMT: text | json\n"
      "                     (json: the log goes to stdout alone, human\n"
      "                     output to stderr)\n"
      "  --profile          print per-phase wall times and counters\n"
      "  --metrics-out F    write unified metrics JSON to F\n"
      "  --faults=SPEC      chaos-test the run under a seeded fault plan,\n"
      "                     e.g. seed=7,jitter=0.3:0.05,straggler=1:2\n"
      "                     (see fault::FaultPlan::parse)\n"
      "  --recovery[=SPEC]  reliable delivery: retransmit dropped or\n"
      "                     corrupted messages on a virtual-time backoff\n"
      "                     schedule instead of failing fast. SPEC tunes\n"
      "                     budget=N,rto=SEC,backoff=MULT,cap=SEC\n"
      "                     (default budget=8,rto=0.002,backoff=2,cap=0.02)\n"
      "  --watchdog=SEC     virtual-time watchdog deadline for blocked\n"
      "                     communication (default 30; <= 0 disables)\n"
      "  --plan-from F      plan from a prior --report=json file (honors\n"
      "                     --faults) and emit a PlanFile; no compile/run\n"
      "  --plan-out F       write the PlanFile to F (default: stdout)\n"
      "  --plan F           apply a PlanFile's partition/strategy overrides\n"
      "  --sweep F          execute the sweep spec F (rank counts x\n"
      "                     partitions x engines) and emit a ScalingReport\n"
      "  --sweep-out F      write the ScalingReport to F (default: stdout;\n"
      "                     format from the extension)\n"
      "  --sweep-format FMT json | text (default) | html\n"
      "  --ledger F         append one RunRecord per execution (or per\n"
      "                     sweep cell) to the JSONL ledger F\n"
      "  --history[=FMT]    render run-history trends from --ledger and\n"
      "                     --history-bench; no input program needed.\n"
      "                     FMT: text (default) | json | html\n"
      "  --history-out F    write the history view to F\n"
      "  --history-bench D  fold BENCH_*.json sidecars in D into the\n"
      "                     history\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autocfd;

  if (argc < 2) {
    usage();
    return 2;
  }
  // --history needs no input program, so argv[1] may already be an
  // option; every other mode requires the input path first.
  const bool has_input = argv[1][0] != '-';
  std::string input_path = has_input ? argv[1] : "";
  std::string output_path;
  std::string partition_arg;
  std::string metrics_path;
  std::string report_path;
  bool want_report = false;
  auto report_format = obs::Format::Text;
  int nprocs = 0;
  auto strategy = sync::CombineStrategy::Min;
  bool run = false, analyze_only = false;
  bool explain = false, explain_json = false, profile = false;
  std::string faults_spec;
  std::string recovery_spec;
  bool recovery_on = false;
  std::string plan_from_path, plan_out_path, plan_path;
  std::string sweep_spec_path, sweep_out_path, sweep_format_arg;
  bool sweep_format_set = false;
  double watchdog = mp::Cluster::kDefaultWatchdog;
  auto engine = interp::EngineKind::Bytecode;
  std::string ledger_path;
  bool want_history = false;
  auto history_format = obs::Format::Text;
  std::string history_out_path, history_bench_dir;

  for (int i = has_input ? 2 : 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-o") {
      output_path = next();
    } else if (arg == "--partition") {
      partition_arg = next();
    } else if (arg == "--nprocs") {
      nprocs = std::atoi(next());
    } else if (arg == "--strategy") {
      const std::string s = next();
      if (s == "min") strategy = sync::CombineStrategy::Min;
      else if (s == "pairwise") strategy = sync::CombineStrategy::Pairwise;
      else if (s == "none") strategy = sync::CombineStrategy::None;
      else {
        usage();
        return 2;
      }
    } else if (arg == "--run") {
      run = true;
    } else if (arg == "--analyze") {
      analyze_only = true;
    } else if (arg == "--report" || arg.rfind("--report=", 0) == 0) {
      const std::string fmt =
          arg.size() > 8 && arg[8] == '=' ? arg.substr(9) : "";
      const auto parsed = obs::parse_format(fmt);
      if (!parsed) {
        std::fprintf(stderr,
                     "acfd: unknown report format '%s' (expected json, "
                     "text or html)\n",
                     fmt.c_str());
        return 2;
      }
      want_report = true;
      report_format = *parsed;
    } else if (arg == "--report-out") {
      report_path = next();
    } else if (arg == "--explain" || arg == "--explain=text") {
      explain = true;
    } else if (arg == "--explain=json") {
      explain = explain_json = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--metrics-out") {
      metrics_path = next();
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_spec = arg.substr(9);
    } else if (arg == "--faults") {
      faults_spec = next();
    } else if (arg == "--recovery") {
      recovery_on = true;
    } else if (arg.rfind("--recovery=", 0) == 0) {
      recovery_on = true;
      recovery_spec = arg.substr(11);
    } else if (arg.rfind("--plan-from=", 0) == 0) {
      plan_from_path = arg.substr(12);
    } else if (arg == "--plan-from") {
      plan_from_path = next();
    } else if (arg.rfind("--plan-out=", 0) == 0) {
      plan_out_path = arg.substr(11);
    } else if (arg == "--plan-out") {
      plan_out_path = next();
    } else if (arg.rfind("--plan=", 0) == 0) {
      plan_path = arg.substr(7);
    } else if (arg == "--plan") {
      plan_path = next();
    } else if (arg.rfind("--sweep=", 0) == 0) {
      sweep_spec_path = arg.substr(8);
    } else if (arg == "--sweep") {
      sweep_spec_path = next();
    } else if (arg.rfind("--sweep-out=", 0) == 0) {
      sweep_out_path = arg.substr(12);
    } else if (arg == "--sweep-out") {
      sweep_out_path = next();
    } else if (arg.rfind("--sweep-format=", 0) == 0) {
      sweep_format_arg = arg.substr(15);
      sweep_format_set = true;
    } else if (arg == "--sweep-format") {
      sweep_format_arg = next();
      sweep_format_set = true;
    } else if (arg.rfind("--ledger=", 0) == 0) {
      ledger_path = arg.substr(9);
    } else if (arg == "--ledger") {
      ledger_path = next();
    } else if (arg == "--history" || arg.rfind("--history=", 0) == 0) {
      const std::string fmt =
          arg.size() > 9 && arg[9] == '=' ? arg.substr(10) : "";
      const auto parsed = obs::parse_format(fmt);
      if (!parsed) {
        std::fprintf(stderr,
                     "acfd: unknown history format '%s' (expected text, "
                     "json or html)\n",
                     fmt.c_str());
        return 2;
      }
      want_history = true;
      history_format = *parsed;
    } else if (arg.rfind("--history-out=", 0) == 0) {
      history_out_path = arg.substr(14);
    } else if (arg == "--history-out") {
      history_out_path = next();
    } else if (arg.rfind("--history-bench=", 0) == 0) {
      history_bench_dir = arg.substr(16);
    } else if (arg == "--history-bench") {
      history_bench_dir = next();
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      watchdog = std::atof(arg.c_str() + 11);
    } else if (arg == "--watchdog") {
      watchdog = std::atof(next());
    } else if (arg.rfind("--engine=", 0) == 0) {
      try {
        engine = interp::parse_engine_kind(arg.substr(9));
      } catch (const CompileError& e) {
        std::fprintf(stderr, "acfd: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--engine") {
      engine = interp::parse_engine_kind(next());
    } else {
      usage();
      return 2;
    }
  }

  if (!report_path.empty() && !want_report) {
    // --report-out alone implies --report; pick the format from the
    // file extension.
    want_report = true;
    report_format = obs::format_for_path(report_path);
  }
  if (want_report) run = true;  // a run report needs a run
  if (want_report && explain_json && report_path.empty()) {
    std::fprintf(stderr,
                 "acfd: --report and --explain=json both write stdout; "
                 "give the report a file with --report-out\n");
    return 2;
  }

  if (want_history) {
    // History mode: ledger (and/or sidecars) in, trend view out; no
    // program is compiled or run.
    if (ledger_path.empty() && history_bench_dir.empty()) {
      std::fprintf(stderr,
                   "acfd: --history needs --ledger and/or --history-bench "
                   "to read from\n");
      return 2;
    }
    if (!history_out_path.empty()) {
      if (const auto problem = support::validate_output_paths(
              {{"--history-out", history_out_path}})) {
        std::fprintf(stderr, "acfd: %s\n", problem->c_str());
        return 2;
      }
    }
    std::vector<ledger::RunRecord> records;
    if (!ledger_path.empty()) {
      auto loaded = ledger::read_ledger(ledger_path);
      for (const auto& warning : loaded.warnings) {
        std::fprintf(stderr, "acfd: warning: %s\n", warning.c_str());
      }
      records = std::move(loaded.records);
    }
    if (!history_bench_dir.empty()) {
      std::error_code dec;
      std::vector<std::string> sidecars;
      for (const auto& entry :
           std::filesystem::directory_iterator(history_bench_dir, dec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            entry.path().extension() == ".json") {
          sidecars.push_back(entry.path().string());
        }
      }
      if (dec) {
        std::fprintf(stderr, "acfd: cannot list '%s': %s\n",
                     history_bench_dir.c_str(), dec.message().c_str());
        return 2;
      }
      std::sort(sidecars.begin(), sidecars.end());
      for (const auto& sidecar : sidecars) {
        std::string err;
        auto rec = ledger::record_from_sidecar_file(sidecar, &err);
        if (!rec) {
          std::fprintf(stderr, "acfd: warning: %s (skipped)\n", err.c_str());
          continue;
        }
        records.push_back(std::move(*rec));
      }
    }
    if (history_out_path.empty()) {
      std::ostringstream os;
      ledger::write_history(records, history_format, os);
      std::fprintf(stdout, "%s", os.str().c_str());
    } else {
      std::ofstream hos(history_out_path);
      ledger::write_history(records, history_format, hos);
      hos.flush();
      if (!hos) {
        std::fprintf(stderr, "acfd: cannot write history file '%s'\n",
                     history_out_path.c_str());
        return 1;
      }
      std::fprintf(stdout, "acfd: wrote %s (%zu record(s))\n",
                   history_out_path.c_str(), records.size());
    }
    return 0;
  }
  if (!has_input) {
    usage();
    return 2;
  }
  if (!history_out_path.empty() || !history_bench_dir.empty()) {
    std::fprintf(stderr,
                 "acfd: --history-out/--history-bench only make sense "
                 "with --history\n");
    return 2;
  }

  // In --explain=json mode stdout carries exactly one JSON document;
  // everything human-readable goes to stderr instead.
  std::FILE* const chat = explain_json ? stderr : stdout;

  // A directory also "opens" successfully and reads as empty, so probe
  // the path explicitly before blaming the program for being empty.
  std::error_code ec;
  if (!std::filesystem::exists(input_path, ec)) {
    std::fprintf(stderr, "acfd: input file '%s' does not exist\n",
                 input_path.c_str());
    return 1;
  }
  if (!std::filesystem::is_regular_file(input_path, ec)) {
    std::fprintf(stderr, "acfd: input '%s' is not a regular file\n",
                 input_path.c_str());
    return 1;
  }
  std::ifstream in(input_path);
  if (!in) {
    std::fprintf(stderr, "acfd: input file '%s' exists but is not readable\n",
                 input_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string source = buf.str();

  if (!analyze_only && output_path.empty()) {
    output_path = input_path;
    const auto dot = output_path.rfind('.');
    output_path.insert(dot == std::string::npos ? output_path.size() : dot,
                       "_par");
  }

  // Check every output destination now, before minutes of simulated
  // run time: duplicates and unwritable directories become immediate
  // diagnostics instead of a failure at the final write.
  {
    std::vector<support::OutputPath> outputs;
    if (!analyze_only) outputs.push_back({"-o", output_path});
    if (!metrics_path.empty()) {
      outputs.push_back({"--metrics-out", metrics_path});
    }
    if (!report_path.empty()) {
      outputs.push_back({"--report-out", report_path});
    }
    if (!plan_out_path.empty()) {
      outputs.push_back({"--plan-out", plan_out_path});
    }
    if (!sweep_out_path.empty()) {
      outputs.push_back({"--sweep-out", sweep_out_path});
    }
    if (!ledger_path.empty()) {
      outputs.push_back({"--ledger", ledger_path});
    }
    if (const auto problem = support::validate_output_paths(outputs)) {
      std::fprintf(stderr, "acfd: %s\n", problem->c_str());
      return 2;
    }
  }

  try {
    DiagnosticEngine diags;
    auto dirs = core::Directives::extract(source, diags);
    if (diags.has_errors()) {
      std::fprintf(stderr, "%s", diags.dump().c_str());
      return 1;
    }
    if (!partition_arg.empty()) {
      dirs.partition = partition::PartitionSpec::parse(partition_arg);
    }
    if (nprocs > 0) dirs.nprocs = nprocs;

    if (!sweep_spec_path.empty()) {
      // Sweep mode: spec in, ScalingReport out; every cell runs on the
      // simulated cluster, no SPMD source file is written.
      std::string err;
      auto spec = sweep::SweepSpec::load(sweep_spec_path, &err);
      if (!spec) {
        std::fprintf(stderr, "acfd: %s\n", err.c_str());
        return 2;
      }
      if (spec->title.empty()) {
        spec->title = std::filesystem::path(input_path).stem().string();
      }
      auto format = obs::format_for_path(sweep_out_path);
      if (sweep_format_set) {
        const auto parsed = obs::parse_format(sweep_format_arg);
        if (!parsed) {
          std::fprintf(stderr,
                       "acfd: unknown sweep format '%s' (expected json, "
                       "text or html)\n",
                       sweep_format_arg.c_str());
          return 2;
        }
        format = *parsed;
      }
      sweep::SweepOptions sopts;
      sopts.watchdog = watchdog;
      sopts.ledger_path = ledger_path;
      const auto result = sweep::run_sweep(source, dirs, *spec, sopts);
      if (!result.ledger_error.empty()) {
        std::fprintf(stderr, "acfd: ledger append failed: %s\n",
                     result.ledger_error.c_str());
      } else if (!ledger_path.empty()) {
        std::fprintf(chat, "acfd: appended %zu record(s) to %s\n",
                     result.report.cells.size(), ledger_path.c_str());
      }
      const std::string crossed =
          result.report.crossover_nranks > 0
              ? " from " + std::to_string(result.report.crossover_nranks) +
                    " ranks"
              : "";
      std::fprintf(chat, "acfd: sweep '%s': %zu cell(s), %s%s\n",
                   spec->title.c_str(), result.report.cells.size(),
                   result.report.classification.c_str(), crossed.c_str());
      if (sweep_out_path.empty()) {
        std::ostringstream os;
        sweep::write_scaling_report(result.report, format, os);
        std::fprintf(stdout, "%s", os.str().c_str());
      } else {
        std::ofstream sos(sweep_out_path);
        sweep::write_scaling_report(result.report, format, sos);
        sos.flush();
        if (!sos) {
          std::fprintf(stderr, "acfd: cannot write sweep report '%s'\n",
                       sweep_out_path.c_str());
          return 1;
        }
        std::fprintf(chat, "acfd: wrote %s\n", sweep_out_path.c_str());
      }
      return 0;
    }

    if (!plan_from_path.empty()) {
      // Planning mode: measured report in, PlanFile out, nothing runs.
      std::string err;
      const auto plan_input = plan::load_plan_input(plan_from_path, &err);
      if (!plan_input) {
        std::fprintf(stderr, "acfd: %s\n", err.c_str());
        return 2;
      }
      plan::PlannerOptions popts;
      popts.source = source;
      popts.directives = dirs;
      if (!faults_spec.empty()) {
        popts.faults = fault::FaultPlan::parse(faults_spec);
      }
      const auto plan_file = plan::make_plan(*plan_input, popts);
      if (plan_out_path.empty()) {
        std::fprintf(stdout, "%s", plan_file.json().c_str());
      } else {
        std::ofstream pos(plan_out_path);
        plan_file.write_json(pos);
        pos.flush();
        if (!pos) {
          std::fprintf(stderr, "acfd: cannot write plan file '%s'\n",
                       plan_out_path.c_str());
          return 1;
        }
        std::fprintf(chat, "acfd: wrote %s\n", plan_out_path.c_str());
      }
      std::fprintf(chat, "acfd: plan: %s\n", plan_file.rationale.c_str());
      return 0;
    }

    std::optional<core::PlanOverrides> plan_overrides;
    if (!plan_path.empty()) {
      std::string err;
      const auto plan_file = plan::PlanFile::load(plan_path, &err);
      if (!plan_file) {
        std::fprintf(stderr, "acfd: %s\n", err.c_str());
        return 2;
      }
      plan_overrides = plan_file->to_overrides(plan_path);
      if (plan_file->nranks > 0) dirs.nprocs = plan_file->nranks;
      std::fprintf(chat, "acfd: applying plan %s: partition %s, strategy %s\n",
                   plan_path.c_str(), plan_file->partition.c_str(),
                   plan_file->strategy.c_str());
    }

    obs::ObsContext obs;
    const bool want_ledger = !ledger_path.empty();
    const bool want_obs = explain || profile || !metrics_path.empty() ||
                          want_report || want_ledger;
    auto program =
        core::parallelize(source, dirs, strategy, want_obs ? &obs : nullptr,
                          plan_overrides ? &*plan_overrides : nullptr);
    const auto& rep = program->report;
    std::fprintf(chat,
                 "acfd: partition %s, %d field loops, %d dependence pairs\n",
                 program->meta.spec.str().c_str(), rep.field_loops,
                 rep.dependence_pairs);
    std::fprintf(
        chat,
        "acfd: %d synchronization points -> %d after combining (%.1f%%), "
        "%d pipelined sweep(s), %d mirror-image\n",
        rep.syncs_before, rep.syncs_after, rep.optimization_percent,
        rep.pipelined_loops, rep.mirror_image_loops);

    if (!analyze_only) {
      std::ofstream out(output_path);
      out << program->parallel_source;
      out.flush();
      if (!out) {
        std::fprintf(stderr, "acfd: cannot write output file '%s'\n",
                     output_path.c_str());
        return 1;
      }
      std::fprintf(chat, "acfd: wrote %s\n", output_path.c_str());
    }

    fault::FaultInjector injector{faults_spec.empty()
                                      ? fault::FaultPlan{}
                                      : fault::FaultPlan::parse(faults_spec)};
    if (run) {
      const auto machine = mp::MachineConfig::pentium_ethernet_1999();
      trace::TraceRecorder recorder;
      codegen::SpmdRunOptions run_opts;
      run_opts.sink = metrics_path.empty() && !want_report && !want_ledger
                          ? nullptr
                          : &recorder;
      run_opts.faults = faults_spec.empty() ? nullptr : &injector;
      run_opts.watchdog = watchdog;
      run_opts.engine = engine;
      run_opts.profile = want_report || want_ledger;
      if (recovery_on) {
        run_opts.recovery = mp::RecoveryConfig::parse(recovery_spec);
      }
      auto par = program->run(machine, run_opts);
      auto seq_file = fortran::parse_source(source);
      const auto seq = codegen::run_sequential_timed(
          seq_file, dirs.status_arrays, machine, engine);
      const auto mismatch = codegen::first_mismatch(seq.arrays, par.gathered);
      std::fprintf(
          chat,
          "acfd: sequential %.4f s, parallel %.4f s on %d ranks "
          "(speedup %.2f), %s\n",
          seq.elapsed, par.elapsed, program->meta.spec.num_tasks(),
          seq.elapsed / par.elapsed,
          mismatch ? ("DIVERGED, " + *mismatch).c_str()
                   : "bitwise identical");
      if (engine == interp::EngineKind::Bytecode) {
        const auto es = par.engine_stats;
        std::fprintf(chat,
                     "acfd: bytecode engine: %lld kernels compiled, "
                     "%lld cache hits, %lld walks reduced, %lld rejects\n",
                     es.kernels_compiled + es.stmts_compiled, es.cache_hits,
                     es.walks_reduced, es.compile_rejects);
      }
      if (!faults_spec.empty()) {
        const auto& fc = injector.counters();
        std::fprintf(chat,
                     "acfd: chaos plan '%s': %lld delayed (%.4f s), "
                     "%lld dropped, %lld corrupted — results still exact\n",
                     injector.plan().str().c_str(), fc.delayed, fc.delay_s,
                     fc.dropped, fc.corrupted);
      }
      if (recovery_on) {
        long long retransmits = 0, recovered = 0;
        double recovery_s = 0.0;
        for (const auto& st : par.cluster.ranks) {
          retransmits += st.retransmits;
          recovered += st.recovered;
          recovery_s += st.recovery_time;
        }
        std::fprintf(chat,
                     "acfd: recovery '%s': %lld retransmit(s), %lld "
                     "message(s) recovered, %.4f s recovery wait\n",
                     run_opts.recovery.str().c_str(), retransmits, recovered,
                     recovery_s);
      }
      if (!metrics_path.empty()) {
        trace::trace_to_metrics(recorder.trace(), obs.metrics);
        if (!faults_spec.empty()) injector.export_metrics(obs.metrics);
        for (const auto& [key, value] : par.engine_stats.items()) {
          obs.metrics.add(std::string("engine.bytecode.") + key, value);
        }
      }
      std::optional<prof::RunReport> run_report;
      if (want_report || want_ledger) {
        prof::ReportOptions ropts;
        ropts.title =
            std::filesystem::path(input_path).stem().string();
        ropts.engine = engine == interp::EngineKind::Bytecode
                           ? "bytecode"
                           : "tree";
        ropts.seq_elapsed_s = seq.elapsed;
        ropts.recovery_enabled = recovery_on;
        run_report = prof::build_run_report(
            *program, par, recorder.trace(), &obs.provenance, ropts);
        if (!metrics_path.empty()) {
          prof::profile_to_metrics(run_report->profile, obs.metrics);
        }
      }
      if (want_report) {
        if (report_path.empty()) {
          std::ostringstream ros;
          prof::write_report(*run_report, report_format, ros);
          std::fprintf(stdout, "%s", ros.str().c_str());
        } else {
          std::ofstream ros(report_path);
          prof::write_report(*run_report, report_format, ros);
          ros.flush();
          if (!ros) {
            std::fprintf(stderr, "acfd: cannot write report file '%s'\n",
                         report_path.c_str());
            return 1;
          }
          std::fprintf(chat, "acfd: wrote %s\n", report_path.c_str());
        }
      }
      if (mismatch) {
        std::fprintf(stderr, "acfd: VALIDATION FAILED: %s\n",
                     mismatch->c_str());
        return 1;
      }
      if (want_ledger) {
        // One history point per validated run. Appended only after the
        // bit-identity check, so the ledger never trends a wrong answer.
        ledger::RunMeta meta;
        meta.kind = "run";
        meta.input = std::filesystem::path(input_path).stem().string();
        meta.machine = "pentium_ethernet_1999";
        meta.source = source;
        meta.seed = faults_spec.empty()
                        ? 0
                        : static_cast<long long>(injector.plan().seed);
        const auto rec = ledger::make_run_record(meta, &*run_report, &obs);
        if (const auto err = ledger::append_record(ledger_path, rec)) {
          std::fprintf(stderr, "acfd: ledger append failed: %s\n",
                       err->c_str());
          return 1;
        }
        std::fprintf(chat, "acfd: appended 1 record to %s\n",
                     ledger_path.c_str());
      }
    }
    if (!run && !ledger_path.empty()) {
      // Compile-only invocations still make a history point: the pass
      // profile and compile metrics trend without a cluster run.
      ledger::RunMeta meta;
      meta.kind = "run";
      meta.input = std::filesystem::path(input_path).stem().string();
      meta.machine = "pentium_ethernet_1999";
      meta.source = source;
      const auto rec = ledger::make_run_record(meta, nullptr, &obs);
      if (const auto err = ledger::append_record(ledger_path, rec)) {
        std::fprintf(stderr, "acfd: ledger append failed: %s\n",
                     err->c_str());
        return 1;
      }
      std::fprintf(chat, "acfd: appended 1 record to %s\n",
                   ledger_path.c_str());
    }

    if (profile) {
      std::fprintf(chat, "\n%s", obs.profiler.text_report().c_str());
    }
    if (explain && !explain_json) {
      std::fprintf(stdout, "\n%s", obs.provenance.text_report().c_str());
    }
    if (explain_json) {
      std::ostringstream os;
      obs.provenance.write_json(os);
      std::fprintf(stdout, "%s\n", os.str().c_str());
    }
    if (!metrics_path.empty()) {
      obs.export_profile_to_metrics();
      std::ofstream mos(metrics_path);
      obs.metrics.write_json(mos);
      mos.flush();
      if (!mos) {
        std::fprintf(stderr, "acfd: cannot write metrics file '%s'\n",
                     metrics_path.c_str());
        return 1;
      }
      std::fprintf(chat, "acfd: wrote %s\n", metrics_path.c_str());
    }
  } catch (const mp::CommError& e) {
    // A detected runtime fault (watchdog timeout, checksum mismatch):
    // report the structured attribution, distinct exit code.
    const auto& info = e.info();
    std::fprintf(stderr,
                 "acfd: communication failure: %s\n"
                 "acfd:   rank=%d peer=%d tag=%d site=%s virtual_t=%.6f s "
                 "attempts=%d\n",
                 e.what(), info.rank, info.peer, info.tag,
                 info.site_label.c_str(), info.time, info.attempts);
    return 3;
  } catch (const CompileError& e) {
    std::fprintf(stderr, "acfd: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything else (bad directive files, malformed partition specs,
    // I/O failures) must exit cleanly too, never abort on a throw.
    std::fprintf(stderr, "acfd: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
