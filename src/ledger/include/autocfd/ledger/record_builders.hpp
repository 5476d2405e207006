// Builders that distill the repository's existing observability
// artifacts into ledger RunRecords: a finished prof::RunReport (plus
// the compile-side ObsContext), and a bench binary's flat sidecar
// maps. The sweep layer builds its per-cell records on top of
// make_run_record and adds the scaling figures itself, so the ledger
// stays independent of src/sweep.
#pragma once

#include <map>
#include <string>

#include "autocfd/ledger/ledger.hpp"

namespace autocfd::obs {
struct ObsContext;
}
namespace autocfd::prof {
struct RunReport;
}

namespace autocfd::ledger {

/// The measurement configuration a caller knows up front.
struct RunMeta {
  std::string kind;     // "run" | "bench" | "sweep-cell"
  std::string input;    // program stem / bench name / sweep title
  std::string machine;  // machine-model name
  /// Source text to fingerprint; empty leaves source_fnv blank.
  std::string source;
  long long seed = 0;  // fault-plan seed, 0 when clean
};

/// Distills one execution. `report` (nullable) contributes the runtime
/// block — elapsed/speedup, rank-time decomposition, wire totals,
/// recovery rollup, top-5 hot loops, compile summary, partition and
/// engine identity; `obs` (nullable) contributes the pass-profiler
/// phases only, so what else the caller exported into obs->metrics
/// (e.g. for --metrics-out) never changes the record. With both null
/// the record carries meta only — still a valid (if silent) history
/// point.
[[nodiscard]] RunRecord make_run_record(const RunMeta& meta,
                                        const prof::RunReport* report,
                                        const obs::ObsContext* obs);

/// Wraps one bench sidecar (the flat BENCH_*.json maps) as a record.
/// The sidecar's meta.build_type / meta.engine / meta.machine /
/// meta.seed keys are lifted into the record's identity fields; every
/// other key is preserved verbatim, and ledger::metric_direction
/// decides which of them gate.
[[nodiscard]] RunRecord record_from_sidecar(
    const std::string& input, const std::map<std::string, double>& numbers,
    const std::map<std::string, std::string>& strings);

/// Reads one BENCH_*.json sidecar file into a record. The record's
/// input is the file's stem with the "BENCH_" prefix stripped
/// ("BENCH_fig_recovery.json" -> "fig_recovery"). Returns nullopt with a
/// diagnostic when the file is unreadable or not a flat JSON object.
[[nodiscard]] std::optional<RunRecord> record_from_sidecar_file(
    const std::string& path, std::string* error);

}  // namespace autocfd::ledger
