// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench binary prints its table/figure reproduction first (paper
// value vs measured value) and then runs its registered
// google-benchmark microbenchmarks, so `./bench_binary` produces the
// full report and `./bench_binary --benchmark_filter=...` still works
// as a normal benchmark harness.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/ledger/ledger.hpp"
#include "autocfd/ledger/record_builders.hpp"
#include "autocfd/obs/json_util.hpp"

namespace bench_util {

/// Values recorded for the machine-readable sidecar. finish() writes
/// them to BENCH_<binary>.json so the perf trajectory of the tables
/// and figures can be tracked across PRs without scraping stdout.
inline std::map<std::string, double>& json_records() {
  static std::map<std::string, double> records;
  return records;
}

/// String-valued sidecar records (partition names etc.). Kept separate
/// from the numeric map; write_json_report interleaves both sorted.
inline std::map<std::string, std::string>& json_string_records() {
  static std::map<std::string, std::string> records;
  return records;
}

/// Records one measurement (e.g. "aerofoil.4x1x1.elapsed_s").
inline void record(const std::string& key, double value) {
  json_records()[key] = value;
}

/// Records one string-valued fact (e.g. "aerofoil.p2.partition").
inline void record_str(const std::string& key, const std::string& value) {
  json_string_records()[key] = value;
}

/// Writes the recorded measurements as a flat JSON object (numeric and
/// string values interleaved in one sorted key order).
inline void write_json_report(const std::string& path) {
  std::ofstream os(path);
  os << "{\n";
  bool first = true;
  auto nit = json_records().begin();
  auto sit = json_string_records().begin();
  while (nit != json_records().end() ||
         sit != json_string_records().end()) {
    const bool take_num =
        sit == json_string_records().end() ||
        (nit != json_records().end() && nit->first < sit->first);
    if (!first) os << ",\n";
    first = false;
    if (take_num) {
      os << "  \"" << autocfd::obs::json_escape(nit->first)
         << "\": " << autocfd::obs::json_number(nit->second);
      ++nit;
    } else {
      os << "  \"" << autocfd::obs::json_escape(sit->first) << "\": \""
         << autocfd::obs::json_escape(sit->second) << "\"";
      ++sit;
    }
  }
  os << "\n}\n";
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Runs a sequential reference of `source` under the standard machine.
inline autocfd::codegen::SeqRunResult run_seq(
    const std::string& source, const std::vector<std::string>& status) {
  auto file = autocfd::fortran::parse_source(source);
  return autocfd::codegen::run_sequential_timed(
      file, status, autocfd::mp::MachineConfig::pentium_ethernet_1999());
}

/// Parallelizes and runs `source` under `partition`.
inline autocfd::codegen::SpmdRunResult run_par(
    const std::string& source, const std::string& partition) {
  autocfd::DiagnosticEngine diags;
  auto dirs = autocfd::core::Directives::extract(source, diags);
  dirs.partition = autocfd::partition::PartitionSpec::parse(partition);
  auto program = autocfd::core::parallelize(source, dirs);
  return program->run(autocfd::mp::MachineConfig::pentium_ethernet_1999());
}

/// Stamps the build/run metadata block every sidecar carries:
/// tools/perf_sentinel refuses to gate a sidecar against a baseline
/// that disagrees on it, so a Debug-vs-Release (or cross-engine)
/// comparison is flagged instead of read as a perf regression.
inline void record_metadata() {
  record("meta.schema_version", 1.0);
  record("meta.seed", 0.0);
  record_str("meta.build_type", autocfd::ledger::build_type_name());
  record_str("meta.engine", "bytecode");
  record_str("meta.machine", "pentium_ethernet_1999");
}

/// Standard tail: write the JSON sidecar (if anything was recorded),
/// print a footer and hand over to google-benchmark.
inline int finish(int argc, char** argv) {
  if (argc >= 1) {
    record_metadata();
    std::string stem = argv[0];
    if (const auto slash = stem.find_last_of('/'); slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    const std::string path = "BENCH_" + stem + ".json";
    write_json_report(path);
    note("\n[bench_util] wrote " + std::to_string(json_records().size()) +
         " measurement(s) to " + path);

    // With ACFD_LEDGER set, the sidecar also becomes one run-history
    // record — CI points every bench at a shared ledger and the
    // regression sentinel trends them across runs. Append failure is a
    // loud warning, never a bench failure.
    if (const char* ledger_path = std::getenv("ACFD_LEDGER");
        ledger_path != nullptr && ledger_path[0] != '\0') {
      const auto rec = autocfd::ledger::record_from_sidecar(
          stem, json_records(), json_string_records());
      if (const auto err = autocfd::ledger::append_record(ledger_path, rec)) {
        std::fprintf(stderr, "[bench_util] ledger append failed: %s\n",
                     err->c_str());
      } else {
        note("[bench_util] appended 1 record to " +
             std::string(ledger_path));
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench_util
