#include "autocfd/ledger/ledger.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "autocfd/obs/json_reader.hpp"
#include "autocfd/obs/json_util.hpp"

namespace autocfd::ledger {

// ----------------------------------------------------------- RunRecord

std::string RunRecord::group_key() const {
  // The apples-to-apples identity: two records are comparable only
  // when the same input ran under the same engine, build flavor and
  // machine model. kind is included so a bench sidecar never baselines
  // an interactive run of the same program.
  return kind + "|" + input + "|" + engine + "|" + build_type + "|" +
         machine;
}

void RunRecord::write_json(std::ostream& os) const {
  using obs::json_escape;
  using obs::json_number;
  os << "{\"schema_version\": " << schema_version;
  os << ", \"kind\": \"" << json_escape(kind) << "\"";
  os << ", \"input\": \"" << json_escape(input) << "\"";
  os << ", \"meta\": {";
  os << "\"source_fnv\": \"" << json_escape(source_fnv) << "\"";
  os << ", \"build_type\": \"" << json_escape(build_type) << "\"";
  os << ", \"engine\": \"" << json_escape(engine) << "\"";
  os << ", \"machine\": \"" << json_escape(machine) << "\"";
  os << ", \"seed\": " << seed;
  os << ", \"partition\": \"" << json_escape(partition) << "\"";
  os << ", \"strategy\": \"" << json_escape(strategy) << "\"";
  os << ", \"nranks\": " << nranks;
  os << "}, \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    os << (first ? "" : ", ") << "\"" << json_escape(key)
       << "\": " << json_number(value);
    first = false;
  }
  os << "}, \"attrs\": {";
  first = true;
  for (const auto& [key, value] : attrs) {
    os << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \""
       << json_escape(value) << "\"";
    first = false;
  }
  os << "}}";
}

std::string RunRecord::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

// ------------------------------------------------------------- reading

namespace {

/// Rebuilds a RunRecord from one parsed JSONL line. Returns nullopt
/// with a one-line reason when the line cannot be a record of this
/// schema version.
std::optional<RunRecord> record_from_json(const obs::JsonValue& root,
                                          std::string* why) {
  if (root.kind != obs::JsonValue::Kind::Object) {
    *why = "not a JSON object";
    return std::nullopt;
  }
  const long long version = root.int_or("schema_version", 0);
  if (version != kLedgerSchemaVersion) {
    *why = "record schema_version " + std::to_string(version) +
           " (this build reads " + std::to_string(kLedgerSchemaVersion) +
           "); re-record or migrate the ledger";
    return std::nullopt;
  }
  RunRecord rec;
  rec.kind = root.str_or("kind", "");
  rec.input = root.str_or("input", "");
  if (const auto* meta = root.find("meta");
      meta != nullptr && meta->kind == obs::JsonValue::Kind::Object) {
    rec.source_fnv = meta->str_or("source_fnv", "");
    rec.build_type = meta->str_or("build_type", "");
    rec.engine = meta->str_or("engine", "");
    rec.machine = meta->str_or("machine", "");
    rec.seed = meta->int_or("seed", 0);
    rec.partition = meta->str_or("partition", "");
    rec.strategy = meta->str_or("strategy", "");
    rec.nranks = static_cast<int>(meta->int_or("nranks", 0));
  }
  if (const auto* metrics = root.find("metrics");
      metrics != nullptr && metrics->kind == obs::JsonValue::Kind::Object) {
    for (const auto& [key, value] : metrics->fields) {
      if (value.kind == obs::JsonValue::Kind::Number) {
        rec.metrics[key] = value.number;
      }
    }
  }
  if (const auto* attrs = root.find("attrs");
      attrs != nullptr && attrs->kind == obs::JsonValue::Kind::Object) {
    for (const auto& [key, value] : attrs->fields) {
      if (value.kind == obs::JsonValue::Kind::String) {
        rec.attrs[key] = value.string;
      }
    }
  }
  return rec;
}

}  // namespace

LedgerReadResult parse_ledger(std::string_view text,
                              std::string_view origin) {
  LedgerReadResult result;
  std::size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_no;
    // Blank lines (and a trailing newline) are not records.
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    const auto warn = [&](const std::string& why) {
      result.warnings.push_back(std::string(origin) + ":" +
                                std::to_string(line_no) + ": " + why +
                                " (skipped)");
    };
    std::string parse_error;
    const auto root = obs::parse_json(line, &parse_error);
    if (!root) {
      warn("unparseable line: " + parse_error);
      continue;
    }
    std::string why;
    auto rec = record_from_json(*root, &why);
    if (!rec) {
      warn(why);
      continue;
    }
    result.records.push_back(std::move(*rec));
  }
  return result;
}

LedgerReadResult read_ledger(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    LedgerReadResult result;
    result.warnings.push_back("cannot read ledger '" + path +
                              "' (treating as empty)");
    return result;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_ledger(buf.str(), path);
}

// ------------------------------------------------------------ appending

std::optional<std::string> append_record(const std::string& path,
                                         const RunRecord& record) {
  std::ofstream os(path, std::ios::app);
  if (!os) {
    return "cannot open ledger '" + path + "' for append";
  }
  record.write_json(os);
  os << "\n";
  os.flush();
  if (!os) {
    return "write to ledger '" + path + "' failed";
  }
  return std::nullopt;
}

// ---------------------------------------------------------- fingerprint

std::string source_fingerprint(std::string_view source) {
  // FNV-1a 64, the same function the message layer uses for payload
  // checksums — cheap, deterministic, and good enough to key caches
  // and group ledger records by exact source text.
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : source) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace autocfd::ledger
