#include "autocfd/ledger/record_builders.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "autocfd/obs/json_reader.hpp"
#include "autocfd/obs/obs.hpp"
#include "autocfd/prof/report.hpp"

namespace autocfd::ledger {

RunRecord make_run_record(const RunMeta& meta,
                          const prof::RunReport* report,
                          const obs::ObsContext* obs) {
  RunRecord rec;
  rec.kind = meta.kind;
  rec.input = meta.input;
  rec.machine = meta.machine;
  rec.seed = meta.seed;
  rec.build_type = build_type_name();
  if (!meta.source.empty()) {
    rec.source_fnv = source_fingerprint(meta.source);
  }

  if (report != nullptr) {
    rec.engine = report->engine;
    rec.partition = report->partition;
    rec.nranks = report->nranks;

    rec.metrics["elapsed_s"] = report->elapsed_s;
    if (report->seq_elapsed_s) {
      rec.metrics["seq_elapsed_s"] = *report->seq_elapsed_s;
    }
    if (const auto speedup = report->speedup()) {
      rec.metrics["speedup"] = *speedup;
    }
    rec.metrics["total_flops"] = report->total_flops;

    // Rank-time decomposition summed over ranks: the same figures a
    // sweep cell distills, so run and sweep-cell records trend alike.
    double compute = 0.0, transfer = 0.0, wait = 0.0, recovery = 0.0;
    for (const auto& rb : report->ranks) {
      compute += rb.compute;
      transfer += rb.transfer;
      wait += rb.wait;
      recovery += rb.recovery;
    }
    rec.metrics["comm.compute_s"] = compute;
    rec.metrics["comm.transfer_s"] = transfer;
    rec.metrics["comm.wait_s"] = wait;
    const double total = compute + transfer + wait;
    rec.metrics["comm.share"] =
        total > 0.0 ? (transfer + wait) / total : 0.0;

    long long messages = 0, bytes = 0;
    for (const auto& rt : report->comm.rank_totals) {
      messages += rt.messages_sent;
      bytes += rt.bytes_sent;
    }
    rec.metrics["comm.messages"] = static_cast<double>(messages);
    rec.metrics["comm.bytes"] = static_cast<double>(bytes);

    if (report->recovery.enabled) {
      rec.metrics["recovery.retransmits"] =
          static_cast<double>(report->recovery.retransmits);
      rec.metrics["recovery.recovered"] =
          static_cast<double>(report->recovery.recovered);
      rec.metrics["recovery.recovery_s"] = recovery;
    }

    // Compile summary: the decisions whose runtime cost the trend
    // lines explain.
    rec.metrics["compile.field_loops"] = report->compile.field_loops;
    rec.metrics["compile.dependence_pairs"] =
        report->compile.dependence_pairs;
    rec.metrics["compile.syncs_before"] = report->compile.syncs_before;
    rec.metrics["compile.syncs_after"] = report->compile.syncs_after;
    rec.metrics["compile.optimization_percent"] =
        report->compile.optimization_percent;
    rec.metrics["compile.pipelined_loops"] =
        report->compile.pipelined_loops;
    rec.metrics["compile.mirror_image_loops"] =
        report->compile.mirror_image_loops;

    // Top-5 hot loops as hot.N.*.
    const auto hot = report->profile.hottest(5);
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const std::string prefix = "hot." + std::to_string(i);
      rec.metrics[prefix + ".line"] =
          static_cast<double>(hot[i]->loc.line);
      rec.metrics[prefix + ".time_s"] = hot[i]->time_s;
      rec.metrics[prefix + ".share"] = hot[i]->share;
      rec.attrs[prefix + ".class"] =
          hot[i]->loop_class.empty() ? (hot[i]->is_loop ? "?" : "-")
                                     : hot[i]->loop_class;
    }
  }

  if (obs != nullptr) {
    for (const auto& phase : obs->profiler.phases()) {
      rec.metrics["phase." + phase.name + ".wall_s"] = phase.wall_s;
      for (const auto& [key, value] : phase.counters) {
        rec.metrics["phase." + phase.name + "." + key] = value;
      }
    }
    rec.metrics["phase.total.wall_s"] = obs->profiler.total_wall_s();
  }
  return rec;
}

RunRecord record_from_sidecar(
    const std::string& input, const std::map<std::string, double>& numbers,
    const std::map<std::string, std::string>& strings) {
  RunRecord rec;
  rec.kind = "bench";
  rec.input = input;
  rec.build_type = build_type_name();

  for (const auto& [key, value] : strings) {
    if (key == "meta.build_type") {
      rec.build_type = value;
    } else if (key == "meta.engine") {
      rec.engine = value;
    } else if (key == "meta.machine") {
      rec.machine = value;
    } else {
      rec.attrs[key] = value;
    }
  }
  for (const auto& [key, value] : numbers) {
    if (key == "meta.seed") {
      rec.seed = static_cast<long long>(value);
    } else {
      rec.metrics[key] = value;
    }
  }
  return rec;
}

std::optional<RunRecord> record_from_sidecar_file(const std::string& path,
                                                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();

  std::string parse_error;
  const auto doc = obs::parse_json(text.str(), &parse_error);
  if (!doc || doc->kind != obs::JsonValue::Kind::Object) {
    if (error != nullptr) {
      *error = path + ": " +
               (parse_error.empty() ? "not a JSON object" : parse_error);
    }
    return std::nullopt;
  }

  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
  for (const auto& [key, value] : doc->fields) {
    if (value.kind == obs::JsonValue::Kind::Number) {
      numbers[key] = value.number;
    } else if (value.kind == obs::JsonValue::Kind::String) {
      strings[key] = value.string;
    } else if (value.kind == obs::JsonValue::Kind::Bool) {
      numbers[key] = value.boolean ? 1.0 : 0.0;
    }
    // Nested objects/arrays never appear in the flat sidecars; any
    // that do are ignored rather than rejected.
  }

  std::string stem = std::filesystem::path(path).stem().string();
  if (stem.rfind("BENCH_", 0) == 0) stem = stem.substr(6);
  return record_from_sidecar(stem, numbers, strings);
}

}  // namespace autocfd::ledger
