// perf_sentinel: the repository's regression gate.
//
// Reads one or more JSONL ledgers (plus optional BENCH_*.json sidecars
// appended as fresh "bench" records), runs the regression sentinel,
// prints the verdict table, and exits nonzero naming every regressed
// metric. A fresh ledger — or one without enough history yet — passes:
// the gate only trips on evidence.
//
// Usage:
//   perf_sentinel LEDGER.jsonl [MORE.jsonl ...]
//                 [--sidecar=FILE]... [--window=K] [--min-history=N]
//                 [--threshold=T] [--mad-factor=F] [--format=text|json]
//
// A committed baseline sidecar and a fresh one gate as a pair:
//   perf_sentinel --min-history=1 --threshold=0.10
//                 --sidecar=BENCH_fig.json --sidecar=out/BENCH_fig.json
// A sidecar whose only earlier records of the same bench ran under a
// different engine, build type or machine model would gate against
// nothing, so the tool names the differing fields and refuses (exit 2).
//
// Exit codes: 0 clean, 1 regression detected, 2 usage / unreadable
// input / mismatched sidecar identity. Ledger parse warnings (corrupt
// lines, foreign schema versions) go to stderr and are non-fatal —
// that tolerance is the point of a per-line schema version.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "autocfd/ledger/ledger.hpp"
#include "autocfd/ledger/record_builders.hpp"
#include "autocfd/ledger/sentinel.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s LEDGER.jsonl [MORE.jsonl ...] [--sidecar=FILE]...\n"
      "          [--window=K] [--min-history=N] [--threshold=T]\n"
      "          [--mad-factor=F] [--format=text|json]\n"
      "\n"
      "Gates the newest record of every ledger group against a robust\n"
      "baseline (median + MAD over the last K earlier records).\n"
      "Exits 0 when clean, 1 on regression, 2 on usage errors or a\n"
      "sidecar whose bench only ran under another identity.\n",
      argv0);
  return 2;
}

bool parse_size(const std::string& text, std::size_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autocfd;

  std::vector<std::string> ledger_paths;
  std::vector<std::string> sidecar_paths;
  ledger::SentinelOptions options;
  std::string format = "text";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* flag) -> std::string {
      return arg.substr(std::string(flag).size());
    };
    if (arg.rfind("--sidecar=", 0) == 0) {
      sidecar_paths.push_back(value_of("--sidecar="));
    } else if (arg.rfind("--window=", 0) == 0) {
      if (!parse_size(value_of("--window="), &options.window) ||
          options.window == 0) {
        std::fprintf(stderr, "perf_sentinel: bad --window value '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--min-history=", 0) == 0) {
      if (!parse_size(value_of("--min-history="), &options.min_history)) {
        std::fprintf(stderr, "perf_sentinel: bad --min-history value '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--threshold=", 0) == 0) {
      if (!parse_double(value_of("--threshold="), &options.rel_threshold) ||
          options.rel_threshold < 0.0) {
        std::fprintf(stderr, "perf_sentinel: bad --threshold value '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--mad-factor=", 0) == 0) {
      if (!parse_double(value_of("--mad-factor="), &options.mad_factor) ||
          options.mad_factor < 0.0) {
        std::fprintf(stderr, "perf_sentinel: bad --mad-factor value '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value_of("--format=");
      if (format != "text" && format != "json") {
        std::fprintf(stderr, "perf_sentinel: unknown --format '%s'\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "perf_sentinel: unknown option '%s'\n",
                   arg.c_str());
      return usage(argv[0]);
    } else {
      ledger_paths.push_back(arg);
    }
  }
  if (ledger_paths.empty() && sidecar_paths.empty()) return usage(argv[0]);

  std::vector<ledger::RunRecord> records;
  for (const auto& path : ledger_paths) {
    auto result = ledger::read_ledger(path);
    for (const auto& warning : result.warnings) {
      std::fprintf(stderr, "perf_sentinel: warning: %s\n", warning.c_str());
    }
    for (auto& rec : result.records) records.push_back(std::move(rec));
  }
  // Sidecars are the freshest measurements: append after the ledgers
  // so each becomes its group's candidate record.
  for (const auto& path : sidecar_paths) {
    std::string error;
    auto rec = ledger::record_from_sidecar_file(path, &error);
    if (!rec) {
      std::fprintf(stderr, "perf_sentinel: %s\n", error.c_str());
      return 2;
    }
    records.push_back(std::move(*rec));
    const auto mismatch =
        ledger::identity_mismatch(records, records.size() - 1);
    if (!mismatch.empty()) {
      std::fprintf(stderr,
                   "perf_sentinel: %s: no comparable baseline; earlier "
                   "'%s' records differ in identity:\n",
                   path.c_str(), records.back().input.c_str());
      for (const auto& field : mismatch) {
        std::fprintf(stderr, "  %s\n", field.c_str());
      }
      return 2;
    }
  }

  const auto report = ledger::run_sentinel(records, options);
  if (format == "json") {
    ledger::write_sentinel_json(report, std::cout);
  } else {
    ledger::write_sentinel_text(report, std::cout);
  }

  const auto regressions = report.regressions();
  if (!regressions.empty()) {
    for (const auto* finding : regressions) {
      std::fprintf(stderr, "perf_sentinel: REGRESSED %s %s\n",
                   finding->input.c_str(), finding->metric.c_str());
    }
    return 1;
  }
  return 0;
}
