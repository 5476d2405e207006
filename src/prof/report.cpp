#include "autocfd/prof/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "autocfd/obs/json_util.hpp"

namespace autocfd::prof {

namespace {

using obs::fmt_percent;
using obs::fmt_ratio;
using obs::fmt_seconds;
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

  report.comm = build_comm_matrix(trace, &program.meta.tags);

  // Merge rationales, in emission order: the i-th CombineMerge entry
  // explains the combined sync point with halo ordinal i, the i-th
  // PipelineMerge entry the pipeline group with ordinal i.
  std::vector<const obs::ProvenanceEntry*> merges;
  std::vector<const obs::ProvenanceEntry*> pipeline_merges;
  if (provenance != nullptr) {
    merges = provenance->of_kind(obs::DecisionKind::CombineMerge);
    pipeline_merges = provenance->of_kind(obs::DecisionKind::PipelineMerge);
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
    const auto* why = site.kind == sync::CommSite::Kind::Halo ? &merges
                      : site.kind == sync::CommSite::Kind::Pipeline
                          ? &pipeline_merges
                          : nullptr;
    if (why != nullptr && site.ordinal >= 0 &&
        static_cast<std::size_t>(site.ordinal) < why->size()) {
      cost.why = (*why)[static_cast<std::size_t>(site.ordinal)]->rationale;
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

// --------------------------------------------------------------- views

namespace {

/// One character per timeline bucket: dominant component of the cell.
char bucket_char(const TimelineCell& cell) {
  if (cell.total() <= 0.0) return '.';
  if (cell.compute >= cell.transfer && cell.compute >= cell.wait) return '#';
  if (cell.wait >= cell.transfer) return 'w';
  return '>';
}

}  // namespace

obs::Document report_document(const RunReport& report) {
  obs::Document doc;
  doc.title = "run report: " + report.title;
  doc.text("partition " + report.partition + " (" +
           std::to_string(report.nranks) + " ranks), engine " +
           report.engine);
  std::string elapsed = "elapsed " + fmt_seconds(report.elapsed_s) +
                        ", total flops " +
                        obs::fmt_number(report.total_flops);
  if (const auto sp = report.speedup()) {
    elapsed += ", speedup " + fmt_ratio(*sp) + "x over sequential (" +
               fmt_seconds(*report.seq_elapsed_s) + ")";
  }
  doc.text(elapsed);
  const auto& c = report.compile;
  doc.text("compile: " + std::to_string(c.field_loops) + " field loops, " +
           std::to_string(c.dependence_pairs) + " dependence pairs, " +
           std::to_string(c.self_dependent_loops) + " self-dependent (" +
           std::to_string(c.mirror_image_loops) + " mirror-image, " +
           std::to_string(c.pipelined_loops) + " pipelined), syncs " +
           std::to_string(c.syncs_before) + " -> " +
           std::to_string(c.syncs_after) + " (" +
           fmt_percent(c.optimization_percent / 100.0) + " optimized away)");
  if (report.recovery.enabled) {
    doc.text("recovery: " + std::to_string(report.recovery.retransmits) +
             " retransmits, " + std::to_string(report.recovery.recovered) +
             " messages recovered, " +
             fmt_seconds(report.recovery.recovery_s) + " recovery wait");
  }

  doc.heading("hot spots (attributed compute over all ranks)");
  const auto hot = report.profile.hottest(10);
  if (hot.empty()) {
    doc.text("(no attributed units; profiling off?)");
  } else {
    auto& table = doc.table({{"source", true}, {"class", true}, {"time"},
                             {"share", true}, {"count"}, {"imbalance"}});
    for (const auto* e : hot) {
      table.add_row(
          {"line " + std::to_string(e->loc.line) +
               (e->is_loop ? " loop" : " stmt"),
           e->loop_class + (e->self_dependent ? " self-dep" : ""),
           fmt_seconds(e->time_s), {e->share, fmt_percent(e->share)},
           std::to_string(e->count),
           fmt_ratio(e->imbalance(report.profile.nranks))});
    }
  }

  doc.heading("per-rank time");
  auto& ranks = doc.table({{"rank"}, {"compute"}, {"transfer"}, {"wait"},
                           {"recovery"}, {"total"}, {"timeline", true}});
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& b = report.ranks[r];
    std::string strip;
    if (r < report.comm.timeline.ranks.size()) {
      strip = "|";
      for (const auto& cell : report.comm.timeline.ranks[r]) {
        strip += bucket_char(cell);
      }
      strip += "|";
    }
    ranks.add_row({std::to_string(r), fmt_seconds(b.compute),
                   fmt_seconds(b.transfer), fmt_seconds(b.wait),
                   fmt_seconds(b.recovery), fmt_seconds(b.total()), strip});
  }
  doc.text("timeline: '#' compute-dominant, '>' transfer, 'w' wait, "
           "'.' idle");

  doc.heading("communication matrix (src -> dst)");
  if (report.comm.neighbors.empty()) {
    doc.text("(no point-to-point traffic)");
  } else {
    auto& matrix = doc.table({{"src"}, {"dst"}, {"messages"}, {"bytes"},
                              {"halo bytes"}, {"wait"}});
    for (const auto& f : report.comm.neighbors) {
      matrix.add_row({std::to_string(f.src), std::to_string(f.dst),
                      std::to_string(f.messages), std::to_string(f.bytes),
                      std::to_string(f.halo_bytes), fmt_seconds(f.wait_s)});
    }
  }

  doc.heading("sync-plan sites");
  if (report.sites.empty()) {
    doc.text("(no registered sites)");
  } else {
    auto& sites = doc.table({{"id"}, {"kind", true}, {"label", true},
                             {"messages"}, {"bytes"}, {"wait"}, {"cost"},
                             {"why", true}});
    for (const auto& s : report.sites) {
      sites.add_row({std::to_string(s.site), s.kind, s.label,
                     std::to_string(s.messages), std::to_string(s.bytes),
                     fmt_seconds(s.wait_s), fmt_seconds(s.cost_s), s.why});
    }
  }
  return doc;
}

void write_report(const RunReport& report, obs::Format format,
                  std::ostream& os) {
  if (format == obs::Format::Json) {
    write_report_json(report, os);
  } else {
    obs::render(report_document(report), format, os);
  }
}

}  // namespace autocfd::prof
