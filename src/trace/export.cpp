#include "autocfd/trace/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "autocfd/obs/json_util.hpp"
#include "autocfd/trace/check.hpp"
#include "autocfd/trace/critical_path.hpp"

namespace autocfd::trace {

using mp::EventKind;
using mp::TraceEvent;
using obs::json_escape;

namespace {

/// Label for one event, resolving the tag/site through the registry.
std::string event_name(const TraceEvent& e, const sync::TagRegistry* tags) {
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::Compute:
      os << "compute";
      break;
    case EventKind::Send:
      os << "send -> " << e.peer;
      break;
    case EventKind::Recv:
      os << "recv <- " << e.peer;
      break;
    case EventKind::AllReduce:
      os << "allreduce";
      break;
    case EventKind::Barrier:
      os << "barrier";
      break;
    case EventKind::Unreceived:
      os << "unreceived -> " << e.peer;
      break;
    case EventKind::FaultDelay:
      os << "fault.delay -> " << e.peer;
      break;
    case EventKind::FaultDrop:
      os << "fault.drop -> " << e.peer;
      break;
    case EventKind::FaultCorrupt:
      os << "fault.corrupt -> " << e.peer;
      break;
    case EventKind::Timeout:
      os << "timeout";
      if (e.peer >= 0) os << " <- " << e.peer;
      break;
    case EventKind::Retransmit:
      os << "retransmit #" << e.attempts << " <- " << e.peer;
      break;
  }
  const int id = (e.kind == EventKind::AllReduce ||
                  e.kind == EventKind::Barrier)
                     ? e.site
                     : e.tag;
  if (tags != nullptr) {
    if (const auto* site = tags->find(id)) {
      os << " [" << site->label << "]";
      return os.str();
    }
  }
  if (id >= 0) os << " [tag " << id << "]";
  return os.str();
}

const char* event_category(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::Compute: return "compute";
    case EventKind::Send: return "comm";
    case EventKind::Recv: return "wait";
    case EventKind::AllReduce:
    case EventKind::Barrier: return "collective";
    case EventKind::Unreceived: return "error";
    case EventKind::FaultDelay:
    case EventKind::FaultDrop:
    case EventKind::FaultCorrupt: return "fault";
    case EventKind::Timeout: return "error";
    case EventKind::Retransmit: return "fault";
  }
  return "?";
}

double usec(double seconds) { return seconds * 1e6; }

}  // namespace

void write_chrome_trace(std::ostream& os, const Trace& trace,
                        const sync::TagRegistry* tags) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  for (int r = 0; r < trace.nranks; ++r) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"rank " << r
       << "\"}}";
  }

  for (int r = 0; r < trace.nranks; ++r) {
    for (const auto& e : trace.per_rank[static_cast<std::size_t>(r)]) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << e.rank << ",\"ts\":"
         << usec(e.t0) << ",\"dur\":" << usec(e.t1 - e.t0) << ",\"cat\":\""
         << event_category(e) << "\",\"name\":\""
         << json_escape(event_name(e, tags)) << "\",\"args\":{\"bytes\":"
         << e.bytes << ",\"messages\":" << e.n_messages << ",\"wait_us\":"
         << usec(e.wait) << "}}";
      // Flow arrow: send completion -> recv completion.
      if (e.kind == EventKind::Send || e.kind == EventKind::Recv) {
        const int src = e.kind == EventKind::Send ? e.rank : e.peer;
        const int dst = e.kind == EventKind::Send ? e.peer : e.rank;
        // Unique flow id per (channel, message).
        const long long flow =
            (static_cast<long long>(src) * trace.nranks + dst) * (1LL << 32) +
            e.msg_id;
        sep();
        os << "{\"ph\":\"" << (e.kind == EventKind::Send ? "s" : "f")
           << "\",\"bp\":\"e\",\"pid\":0,\"tid\":" << e.rank << ",\"ts\":"
           << usec(e.t1) << ",\"id\":" << flow
           << ",\"cat\":\"msg\",\"name\":\"msg\"}";
      }
    }
  }

  for (const auto& e : trace.unreceived) {
    sep();
    os << "{\"ph\":\"I\",\"pid\":0,\"tid\":" << e.rank << ",\"ts\":"
       << usec(e.t1) << ",\"s\":\"g\",\"cat\":\"error\",\"name\":\""
       << json_escape(event_name(e, tags)) << "\"}";
  }

  os << "\n]}\n";
}

std::string text_report(const Trace& trace, const sync::TagRegistry* tags) {
  std::ostringstream os;
  char line[256];

  const double elapsed = trace.elapsed();
  std::snprintf(line, sizeof line,
                "trace: %d ranks, %zu events, elapsed %.6f s (virtual)\n",
                trace.nranks, trace.event_count(), elapsed);
  os << line;

  os << "\nper-rank decomposition:\n";
  std::snprintf(line, sizeof line, "  %4s %12s %12s %12s %12s\n", "rank",
                "compute (s)", "transfer (s)", "wait (s)", "total (s)");
  os << line;
  const auto breakdown = rank_breakdown(trace);
  for (int r = 0; r < trace.nranks; ++r) {
    const auto& b = breakdown[static_cast<std::size_t>(r)];
    std::snprintf(line, sizeof line, "  %4d %12.6f %12.6f %12.6f %12.6f\n", r,
                  b.compute, b.transfer, b.wait, b.total());
    os << line;
  }

  const auto path = critical_path(trace);
  std::snprintf(line, sizeof line,
                "\ncritical path: %.6f s over %zu steps = compute %.6f + "
                "transfer %.6f + collective %.6f\n",
                path.length, path.steps.size(), path.compute, path.transfer,
                path.collective);
  os << line;

  // Attribute path time to sync-plan sites (or raw tags).
  std::map<std::string, double> by_site;
  for (const auto& step : path.steps) {
    const double t = step.contribution + step.edge;
    if (t <= 0.0 || step.event == nullptr) continue;
    by_site[event_name(*step.event, tags)] += t;
  }
  std::vector<std::pair<std::string, double>> ranked(by_site.begin(),
                                                     by_site.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  os << "top critical-path contributors:\n";
  const std::size_t top = std::min<std::size_t>(ranked.size(), 8);
  for (std::size_t i = 0; i < top; ++i) {
    std::snprintf(line, sizeof line, "  %8.6f s  %5.1f%%  %s\n",
                  ranked[i].second,
                  path.length > 0 ? 100.0 * ranked[i].second / path.length : 0,
                  ranked[i].first.c_str());
    os << line;
  }

  const auto findings = check_trace(trace);
  if (findings.empty()) {
    os << "\ncorrectness: clean (no unreceived messages, no tag mismatches, "
          "no non-FIFO matches, balanced rendezvous)\n";
  } else {
    std::snprintf(line, sizeof line, "\ncorrectness: %zu finding(s)%s\n",
                  findings.size(),
                  communication_clean(findings) ? " (advisory only)" : "");
    os << line;
    for (const auto& f : findings) {
      std::snprintf(line, sizeof line, "  [%s] %s\n",
                    Finding::kind_name(f.kind), f.detail.c_str());
      os << line;
    }
  }
  return os.str();
}

}  // namespace autocfd::trace
