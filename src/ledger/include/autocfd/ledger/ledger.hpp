// Telemetry ledger: the persistent memory between acfd invocations.
//
// Every run of the pipeline — an `acfd` invocation, one bench binary's
// sidecar, one sweep cell — distills into a RunRecord and appends one
// line to a JSONL ledger file. The ledger is append-only and
// schema-versioned: each line is a self-contained JSON object carrying
// its own schema_version, so mixed-version files read cleanly (foreign
// versions are skipped with a warning, never misread) and a truncated
// or corrupted line costs exactly that line.
//
// Records are written with the repository's deterministic JSON
// conventions (fixed key order, obs::json_number formatting), so one
// record round-trips write -> read -> write byte-identically — the
// property CI leans on to diff ledgers — and are read back with
// obs::json_reader, the same reader the planner and sweep use.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace autocfd::ledger {

/// Version stamp of the run-record JSON schema. Bump whenever a field
/// is added, removed, or changes meaning; readers skip records from
/// another version with a warning instead of misreading them.
inline constexpr int kLedgerSchemaVersion = 1;

/// One execution distilled for longitudinal comparison. The meta
/// fields identify *what* was measured (the regression sentinel only
/// compares records that agree on all of them); `metrics` holds every
/// numeric observation under flat dotted keys ("elapsed_s",
/// "phase.total.wall_s", "hot.0.time_s", ...); `attrs` holds
/// string-valued facts ("hot.0.class", "plan.partition", ...).
struct RunRecord {
  int schema_version = kLedgerSchemaVersion;
  /// Provenance of the record: "run" (acfd), "bench" (a bench binary's
  /// sidecar), "sweep-cell" (one cell of a scaling sweep).
  std::string kind;
  /// Program or bench identity ("aerofoil", "fig_recovery", ...).
  std::string input;

  // meta.* — the measurement configuration.
  std::string source_fnv;  // FNV-1a hex of the source text; "" unknown
  std::string build_type;  // "Release" | "Debug"
  std::string engine;      // "bytecode" | "tree"; "" when not a run
  std::string machine;     // machine-model name
  long long seed = 0;      // fault-plan seed (0: clean)
  std::string partition;   // PartitionSpec::str(); "" when not a run
  std::string strategy;    // combine strategy; "" when not a run
  int nranks = 0;

  std::map<std::string, double> metrics;
  std::map<std::string, std::string> attrs;

  /// The sentinel's grouping identity: records comparing apples to
  /// apples agree on this string.
  [[nodiscard]] std::string group_key() const;

  /// One JSON object on a single line (no trailing newline).
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string json() const;
};

/// A parsed ledger: the readable records in file order plus one
/// warning per skipped line ("<origin>:<line>: <why> (skipped)").
struct LedgerReadResult {
  std::vector<RunRecord> records;
  std::vector<std::string> warnings;
};

/// Parses JSONL text. Corrupt lines and records with a foreign
/// schema_version are skipped with an actionable warning; blank lines
/// are ignored silently.
[[nodiscard]] LedgerReadResult parse_ledger(std::string_view text,
                                            std::string_view origin);

/// Reads and parses a ledger file. A missing or unreadable file yields
/// zero records and one warning — a fresh ledger is not an error.
[[nodiscard]] LedgerReadResult read_ledger(const std::string& path);

/// Appends one record as a JSONL line, creating the file if needed.
/// Returns a one-line diagnostic on I/O failure, nullopt on success.
std::optional<std::string> append_record(const std::string& path,
                                         const RunRecord& record);

/// FNV-1a (64-bit) fingerprint of a source text, as fixed-width hex —
/// the identity that ties ledger records back to the exact program
/// they measured.
[[nodiscard]] std::string source_fingerprint(std::string_view source);

/// The configured CMake build type ("Release", "RelWithDebInfo",
/// "Debug", ...), which the ledger target passes to every consumer as
/// AUTOCFD_BUILD_TYPE. NDEBUG cannot tell Release from RelWithDebInfo,
/// a pair perf_sentinel's identity guard must refuse to compare.
[[nodiscard]] inline std::string build_type_name() {
  return AUTOCFD_BUILD_TYPE;
}

}  // namespace autocfd::ledger
