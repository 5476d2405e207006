#include "autocfd/prof/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "autocfd/obs/html_util.hpp"
#include "autocfd/obs/json_util.hpp"

namespace autocfd::prof {

namespace {

using obs::html_bar;
using obs::html_escape;
using obs::json_escape;
using obs::json_number;

const char* site_kind_name(sync::CommSite::Kind kind) {
  switch (kind) {
    case sync::CommSite::Kind::Halo: return "halo";
    case sync::CommSite::Kind::Pipeline: return "pipeline";
    case sync::CommSite::Kind::Collective: return "collective";
  }
  return "?";
}

}  // namespace

RunReport build_run_report(const core::ParallelProgram& program,
                           const codegen::SpmdRunResult& run,
                           const trace::Trace& trace,
                           const obs::ProvenanceLog* provenance,
                           const ReportOptions& options) {
  RunReport report;
  report.title = options.title;
  report.partition = program.meta.spec.str();
  report.nranks = trace.nranks;
  report.engine = options.engine;
  report.elapsed_s = run.elapsed;
  report.seq_elapsed_s = options.seq_elapsed_s;
  report.total_flops = run.total_flops;
  report.compile = program.report;
  report.ranks = trace::rank_breakdown(trace);

  report.profile = build_source_profile(run.profiles);
  if (provenance != nullptr) attach_provenance(report.profile, *provenance);

  report.comm =
      build_comm_matrix(trace, &program.meta.tags, options.timeline_buckets);

  // Merge rationales, in emission order: the i-th CombineMerge entry
  // explains the combined sync point with halo ordinal i.
  std::vector<const obs::ProvenanceEntry*> merges;
  if (provenance != nullptr) {
    merges = provenance->of_kind(obs::DecisionKind::CombineMerge);
  }

  const auto& sites = program.meta.tags.sites();
  report.sites.reserve(sites.size());
  for (std::size_t id = 0; id < sites.size(); ++id) {
    const auto& site = sites[id];
    SiteCost cost;
    cost.site = static_cast<int>(id);
    cost.label = site.label;
    cost.kind = site_kind_name(site.kind);
    for (const auto& cell : report.comm.cells) {
      if (cell.tag != cost.site) continue;
      cost.messages += cell.messages;
      cost.bytes += cell.bytes;
      cost.wait_s += cell.wait_s;
      cost.cost_s += cell.transfer_s;
      cost.recovery_s += cell.recovery_s;
    }
    for (const auto& coll : report.comm.collectives) {
      if (coll.site != cost.site) continue;
      cost.messages += coll.entries;
      cost.wait_s += coll.wait_s;
      cost.cost_s += coll.cost_s;
    }
    if (site.kind == sync::CommSite::Kind::Halo && site.ordinal >= 0 &&
        static_cast<std::size_t>(site.ordinal) < merges.size()) {
      cost.why = merges[static_cast<std::size_t>(site.ordinal)]->rationale;
    }
    report.sites.push_back(std::move(cost));
  }

  // Reliable-delivery rollup, derived from the same trace the rest of
  // the report uses so it reconciles exactly with the cells and ranks.
  report.recovery.enabled = options.recovery_enabled;
  for (const auto& b : report.ranks) report.recovery.recovery_s += b.recovery;
  for (int r = 0; r < trace.nranks; ++r) {
    for (const auto& e : trace.per_rank[static_cast<std::size_t>(r)]) {
      if (e.kind == mp::EventKind::Retransmit) ++report.recovery.retransmits;
      if (e.kind == mp::EventKind::Recv && e.attempts > 1) {
        ++report.recovery.recovered;
      }
    }
  }
  return report;
}

std::optional<ReportFormat> parse_report_format(std::string_view name) {
  if (name.empty() || name == "text") return ReportFormat::Text;
  if (name == "json") return ReportFormat::Json;
  if (name == "html") return ReportFormat::Html;
  return std::nullopt;
}

// --------------------------------------------------------------- JSON

void write_report_json(const RunReport& report, std::ostream& os) {
  os << "{\n";
  os << "  \"schema_version\": " << kRunReportSchemaVersion << ",\n";
  os << "  \"title\": \"" << json_escape(report.title) << "\",\n";
  os << "  \"partition\": \"" << json_escape(report.partition) << "\",\n";
  os << "  \"nranks\": " << report.nranks << ",\n";
  os << "  \"engine\": \"" << json_escape(report.engine) << "\",\n";
  os << "  \"elapsed_s\": " << json_number(report.elapsed_s) << ",\n";
  if (report.seq_elapsed_s) {
    os << "  \"seq_elapsed_s\": " << json_number(*report.seq_elapsed_s)
       << ",\n";
    os << "  \"speedup\": " << json_number(report.speedup().value_or(0.0))
       << ",\n";
  }
  os << "  \"total_flops\": " << json_number(report.total_flops) << ",\n";

  const auto& c = report.compile;
  os << "  \"compile\": {\"field_loops\": " << c.field_loops
     << ", \"dependence_pairs\": " << c.dependence_pairs
     << ", \"self_dependent_loops\": " << c.self_dependent_loops
     << ", \"mirror_image_loops\": " << c.mirror_image_loops
     << ", \"pipelined_loops\": " << c.pipelined_loops
     << ", \"syncs_before\": " << c.syncs_before
     << ", \"syncs_after\": " << c.syncs_after
     << ", \"optimization_percent\": " << json_number(c.optimization_percent)
     << ", \"strategy\": \"" << sync::combine_strategy_name(c.strategy)
     << "\"},\n";

  os << "  \"ranks\": [";
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& b = report.ranks[r];
    os << (r > 0 ? ",\n            " : "\n            ");
    os << "{\"rank\": " << r << ", \"compute_s\": " << json_number(b.compute)
       << ", \"transfer_s\": " << json_number(b.transfer)
       << ", \"wait_s\": " << json_number(b.wait)
       << ", \"recovery_s\": " << json_number(b.recovery)
       << ", \"total_s\": " << json_number(b.total()) << "}";
  }
  os << "],\n";

  const auto& p = report.profile;
  os << "  \"profile\": {\n";
  os << "    \"total_flops\": " << json_number(p.total_flops) << ",\n";
  os << "    \"total_compute_s\": " << json_number(p.total_seconds) << ",\n";
  os << "    \"rank_compute_s\": [";
  for (std::size_t r = 0; r < p.rank_seconds.size(); ++r) {
    os << (r > 0 ? ", " : "") << json_number(p.rank_seconds[r]);
  }
  os << "],\n    \"rank_flops\": [";
  for (std::size_t r = 0; r < p.rank_flops.size(); ++r) {
    os << (r > 0 ? ", " : "") << json_number(p.rank_flops[r]);
  }
  os << "],\n    \"entries\": [";
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    const auto& e = p.entries[i];
    os << (i > 0 ? ",\n      " : "\n      ");
    os << "{\"line\": " << e.loc.line << ", \"column\": " << e.loc.column
       << ", \"loop\": " << (e.is_loop ? "true" : "false")
       << ", \"class\": \"" << json_escape(e.loop_class) << "\""
       << ", \"self_dependent\": " << (e.self_dependent ? "true" : "false")
       << ", \"count\": " << e.count
       << ", \"flops\": " << json_number(e.flops)
       << ", \"time_s\": " << json_number(e.time_s)
       << ", \"share\": " << json_number(e.share)
       << ", \"min_rank_s\": " << json_number(e.min_rank_s)
       << ", \"max_rank_s\": " << json_number(e.max_rank_s)
       << ", \"max_rank\": " << e.max_rank
       << ", \"imbalance\": " << json_number(e.imbalance(p.nranks)) << "}";
  }
  os << "]\n  },\n";

  const auto& m = report.comm;
  os << "  \"comm\": {\n    \"cells\": [";
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const auto& cell = m.cells[i];
    os << (i > 0 ? ",\n      " : "\n      ");
    os << "{\"src\": " << cell.src << ", \"dst\": " << cell.dst
       << ", \"tag\": " << cell.tag << ", \"label\": \""
       << json_escape(cell.label) << "\", \"halo\": "
       << (cell.halo ? "true" : "false")
       << ", \"messages\": " << cell.messages << ", \"bytes\": " << cell.bytes
       << ", \"recv_messages\": " << cell.recv_messages
       << ", \"recv_bytes\": " << cell.recv_bytes
       << ", \"transfer_s\": " << json_number(cell.transfer_s)
       << ", \"wait_s\": " << json_number(cell.wait_s)
       << ", \"retransmits\": " << cell.retransmits
       << ", \"recovery_s\": " << json_number(cell.recovery_s) << "}";
  }
  os << "],\n    \"neighbors\": [";
  for (std::size_t i = 0; i < m.neighbors.size(); ++i) {
    const auto& f = m.neighbors[i];
    os << (i > 0 ? ",\n      " : "\n      ");
    os << "{\"src\": " << f.src << ", \"dst\": " << f.dst
       << ", \"messages\": " << f.messages << ", \"bytes\": " << f.bytes
       << ", \"halo_bytes\": " << f.halo_bytes
       << ", \"wait_s\": " << json_number(f.wait_s) << "}";
  }
  os << "],\n    \"collectives\": [";
  for (std::size_t i = 0; i < m.collectives.size(); ++i) {
    const auto& coll = m.collectives[i];
    os << (i > 0 ? ",\n      " : "\n      ");
    os << "{\"site\": " << coll.site << ", \"label\": \""
       << json_escape(coll.label) << "\", \"entries\": " << coll.entries
       << ", \"wait_s\": " << json_number(coll.wait_s)
       << ", \"cost_s\": " << json_number(coll.cost_s) << "}";
  }
  os << "],\n    \"rank_totals\": [";
  for (std::size_t r = 0; r < m.rank_totals.size(); ++r) {
    const auto& t = m.rank_totals[r];
    os << (r > 0 ? ",\n      " : "\n      ");
    os << "{\"rank\": " << r << ", \"messages_sent\": " << t.messages_sent
       << ", \"bytes_sent\": " << t.bytes_sent
       << ", \"messages_received\": " << t.messages_received
       << ", \"bytes_received\": " << t.bytes_received << "}";
  }
  os << "],\n    \"timeline\": {\"bucket_s\": "
     << json_number(m.timeline.bucket_s)
     << ", \"nbuckets\": " << m.timeline.nbuckets << ", \"ranks\": [";
  for (std::size_t r = 0; r < m.timeline.ranks.size(); ++r) {
    os << (r > 0 ? ",\n      " : "\n      ") << "[";
    const auto& row = m.timeline.ranks[r];
    for (std::size_t b = 0; b < row.size(); ++b) {
      os << (b > 0 ? ", " : "") << "{\"compute\": "
         << json_number(row[b].compute)
         << ", \"transfer\": " << json_number(row[b].transfer)
         << ", \"wait\": " << json_number(row[b].wait) << "}";
    }
    os << "]";
  }
  os << "]}\n  },\n";

  const auto& rec = report.recovery;
  os << "  \"recovery\": {\"enabled\": " << (rec.enabled ? "true" : "false")
     << ", \"retransmits\": " << rec.retransmits
     << ", \"recovered\": " << rec.recovered
     << ", \"recovery_s\": " << json_number(rec.recovery_s) << "},\n";

  os << "  \"sites\": [";
  for (std::size_t i = 0; i < report.sites.size(); ++i) {
    const auto& s = report.sites[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"site\": " << s.site << ", \"label\": \"" << json_escape(s.label)
       << "\", \"kind\": \"" << s.kind << "\", \"messages\": " << s.messages
       << ", \"bytes\": " << s.bytes
       << ", \"wait_s\": " << json_number(s.wait_s)
       << ", \"cost_s\": " << json_number(s.cost_s)
       << ", \"recovery_s\": " << json_number(s.recovery_s) << ", \"why\": \""
       << json_escape(s.why) << "\"}";
  }
  os << "]\n}\n";
}

// --------------------------------------------------------------- text

namespace {

std::string fmt_seconds(double s) {
  std::ostringstream os;
  if (s >= 1.0) {
    os.precision(3);
    os << std::fixed << s << " s";
  } else if (s >= 1e-3) {
    os.precision(3);
    os << std::fixed << s * 1e3 << " ms";
  } else {
    os.precision(3);
    os << std::fixed << s * 1e6 << " us";
  }
  return os.str();
}

std::string fmt_ratio(double v) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << v;
  return os.str();
}

std::string fmt_percent(double frac) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << frac * 100.0 << "%";
  return os.str();
}

/// One character per timeline bucket: dominant component of the cell.
char bucket_char(const TimelineCell& cell) {
  if (cell.total() <= 0.0) return '.';
  if (cell.compute >= cell.transfer && cell.compute >= cell.wait) return '#';
  if (cell.wait >= cell.transfer) return 'w';
  return '>';
}

}  // namespace

void write_report_text(const RunReport& report, std::ostream& os) {
  os << "=== run report: " << report.title << " ===\n";
  os << "partition " << report.partition << " (" << report.nranks
     << " ranks), engine " << report.engine << "\n";
  os << "elapsed " << fmt_seconds(report.elapsed_s) << ", total flops "
     << report.total_flops;
  if (const auto sp = report.speedup()) {
    os << ", speedup " << fmt_ratio(*sp) << "x over sequential ("
       << fmt_seconds(*report.seq_elapsed_s) << ")";
  }
  os << "\n";
  const auto& c = report.compile;
  os << "compile: " << c.field_loops << " field loops, "
     << c.dependence_pairs << " dependence pairs, "
     << c.self_dependent_loops << " self-dependent ("
     << c.mirror_image_loops << " mirror-image, " << c.pipelined_loops
     << " pipelined), syncs " << c.syncs_before << " -> " << c.syncs_after
     << " (" << fmt_percent(c.optimization_percent / 100.0)
     << " optimized away)\n";
  if (report.recovery.enabled) {
    os << "recovery: " << report.recovery.retransmits << " retransmits, "
       << report.recovery.recovered << " messages recovered, "
       << fmt_seconds(report.recovery.recovery_s) << " recovery wait\n";
  }

  os << "\n--- hot spots (attributed compute over all ranks) ---\n";
  const auto hot = report.profile.hottest(10);
  for (const auto* e : hot) {
    os << "  line " << e->loc.line << (e->is_loop ? " loop " : " stmt ");
    if (!e->loop_class.empty()) os << "[" << e->loop_class << "] ";
    if (e->self_dependent) os << "(self-dep) ";
    os << fmt_seconds(e->time_s) << "  " << fmt_percent(e->share)
       << "  x" << e->count << "  imbalance "
       << fmt_ratio(e->imbalance(report.profile.nranks)) << "\n";
  }
  if (hot.empty()) os << "  (no attributed units; profiling off?)\n";

  os << "\n--- per-rank time (compute / transfer / wait) ---\n";
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& b = report.ranks[r];
    os << "  rank " << r << ": " << fmt_seconds(b.compute) << " / "
       << fmt_seconds(b.transfer) << " / " << fmt_seconds(b.wait)
       << "  = " << fmt_seconds(b.total());
    if (b.recovery > 0.0) {
      os << "  (recovery " << fmt_seconds(b.recovery) << ")";
    }
    if (r < report.comm.timeline.ranks.size()) {
      os << "  |";
      for (const auto& cell : report.comm.timeline.ranks[r]) {
        os << bucket_char(cell);
      }
      os << "|";
    }
    os << "\n";
  }
  os << "  timeline legend: '#' compute-dominant, '>' transfer, 'w' wait,"
        " '.' idle\n";

  os << "\n--- communication matrix (src -> dst) ---\n";
  for (const auto& f : report.comm.neighbors) {
    os << "  " << f.src << " -> " << f.dst << ": " << f.messages
       << " msgs, " << f.bytes << " bytes (" << f.halo_bytes
       << " halo), wait " << fmt_seconds(f.wait_s) << "\n";
  }
  if (report.comm.neighbors.empty()) os << "  (no point-to-point traffic)\n";

  os << "\n--- sync-plan sites ---\n";
  for (const auto& s : report.sites) {
    os << "  [" << s.site << "] " << s.kind << " " << s.label << ": "
       << s.messages << " msgs, " << s.bytes << " bytes, wait "
       << fmt_seconds(s.wait_s) << ", cost " << fmt_seconds(s.cost_s);
    if (!s.why.empty()) os << "  (" << s.why << ")";
    os << "\n";
  }
  if (report.sites.empty()) os << "  (no registered sites)\n";
}

// --------------------------------------------------------------- html

void write_report_html(const RunReport& report, std::ostream& os) {
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
     << html_escape(report.title) << " — run report</title>\n<style>\n"
        "body{font-family:sans-serif;margin:2em;max-width:70em}\n"
        "table{border-collapse:collapse;margin:1em 0}\n"
        "td,th{border:1px solid #ccc;padding:0.3em 0.6em;"
        "text-align:right}\n"
        "th{background:#f0f0f0}\ntd.l,th.l{text-align:left}\n"
        ".bar{height:0.8em;min-width:1px;display:inline-block}\n"
        ".cell{width:10em}\n</style></head><body>\n";
  os << "<h1>Run report: " << html_escape(report.title) << "</h1>\n";
  os << "<p>partition <b>" << html_escape(report.partition) << "</b> ("
     << report.nranks << " ranks), engine <b>" << html_escape(report.engine)
     << "</b>, elapsed <b>" << fmt_seconds(report.elapsed_s) << "</b>";
  if (const auto sp = report.speedup()) {
    os << ", speedup <b>" << fmt_ratio(*sp) << "x</b>";
  }
  os << "</p>\n";
  const auto& c = report.compile;
  os << "<p>compile: " << c.field_loops << " field loops, "
     << c.dependence_pairs << " dependence pairs, " << c.self_dependent_loops
     << " self-dependent, syncs " << c.syncs_before << " &rarr; "
     << c.syncs_after << "</p>\n";
  if (report.recovery.enabled) {
    os << "<p>recovery: <b>" << report.recovery.retransmits
       << "</b> retransmits, <b>" << report.recovery.recovered
       << "</b> messages recovered, <b>"
       << fmt_seconds(report.recovery.recovery_s) << "</b> recovery wait</p>\n";
  }

  os << "<h2>Hot spots</h2>\n<table><tr><th class=\"l\">source</th>"
        "<th class=\"l\">class</th><th>time</th><th>share</th>"
        "<th class=\"l cell\"></th><th>imbalance</th></tr>\n";
  for (const auto* e : report.profile.hottest(10)) {
    os << "<tr><td class=\"l\">line " << e->loc.line
       << (e->is_loop ? " (loop)" : " (stmt)") << "</td><td class=\"l\">"
       << html_escape(e->loop_class)
       << (e->self_dependent ? " self-dep" : "") << "</td><td>"
       << fmt_seconds(e->time_s) << "</td><td>" << fmt_percent(e->share)
       << "</td><td class=\"l cell\">" << html_bar(e->share, "#4a90d9")
       << "</td><td>"
       << fmt_ratio(e->imbalance(report.profile.nranks)) << "</td></tr>\n";
  }
  os << "</table>\n";

  os << "<h2>Per-rank time</h2>\n<table><tr><th>rank</th><th>compute</th>"
        "<th>transfer</th><th>wait</th><th>total</th>"
        "<th class=\"l cell\">breakdown</th></tr>\n";
  double max_total = 0.0;
  for (const auto& b : report.ranks) max_total = std::max(max_total, b.total());
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& b = report.ranks[r];
    const double scale = max_total > 0.0 ? 1.0 / max_total : 0.0;
    os << "<tr><td>" << r << "</td><td>" << fmt_seconds(b.compute)
       << "</td><td>" << fmt_seconds(b.transfer) << "</td><td>"
       << fmt_seconds(b.wait) << "</td><td>" << fmt_seconds(b.total())
       << "</td><td class=\"l cell\">"
       << html_bar(b.compute * scale, "#4a90d9")
       << html_bar(b.transfer * scale, "#e8a33d")
       << html_bar(b.wait * scale, "#d05050")
       << "</td></tr>\n";
  }
  os << "</table>\n";

  os << "<h2>Communication</h2>\n<table><tr><th>src</th><th>dst</th>"
        "<th>messages</th><th>bytes</th><th>halo bytes</th><th>wait</th>"
        "</tr>\n";
  for (const auto& f : report.comm.neighbors) {
    os << "<tr><td>" << f.src << "</td><td>" << f.dst << "</td><td>"
       << f.messages << "</td><td>" << f.bytes << "</td><td>"
       << f.halo_bytes << "</td><td>" << fmt_seconds(f.wait_s)
       << "</td></tr>\n";
  }
  os << "</table>\n";

  os << "<h2>Sync-plan sites</h2>\n<table><tr><th>id</th>"
        "<th class=\"l\">kind</th><th class=\"l\">label</th>"
        "<th>messages</th><th>bytes</th><th>wait</th><th>cost</th>"
        "<th class=\"l\">why</th></tr>\n";
  for (const auto& s : report.sites) {
    os << "<tr><td>" << s.site << "</td><td class=\"l\">" << s.kind
       << "</td><td class=\"l\">" << html_escape(s.label) << "</td><td>"
       << s.messages << "</td><td>" << s.bytes << "</td><td>"
       << fmt_seconds(s.wait_s) << "</td><td>" << fmt_seconds(s.cost_s)
       << "</td><td class=\"l\">" << html_escape(s.why) << "</td></tr>\n";
  }
  os << "</table>\n</body></html>\n";
}

void write_report(const RunReport& report, ReportFormat format,
                  std::ostream& os) {
  switch (format) {
    case ReportFormat::Json: write_report_json(report, os); break;
    case ReportFormat::Text: write_report_text(report, os); break;
    case ReportFormat::Html: write_report_html(report, os); break;
  }
}

}  // namespace autocfd::prof
