// Chaos study: the fault-injection differential harness as a CLI.
//
// Runs the sprayer case study under a sweep of seeded timing-only
// fault schedules and asserts the parallel results stay bit-identical
// to the sequential run; then injects one targeted drop and one
// targeted corruption and asserts both are *detected* (watchdog
// timeout with correct attribution, checksum mismatch); finally runs
// a recovered-vs-clean differential: the same lossy plans with
// reliable delivery enabled must complete and produce results
// bit-identical to the clean run, with every injected fault absorbed
// by retransmission. Writes a JSON artifact summarizing every run and
// exits non-zero if any property was violated — the CI chaos smoke
// job runs exactly this binary.
//
//   chaos_study [--seeds=N] [--out=chaos.json] [--grid=NXxNY]
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fault/fault.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/obs/json_util.hpp"
#include "autocfd/trace/recorder.hpp"

using namespace autocfd;
using obs::json_escape;

namespace {

struct RunRecord {
  std::string name;
  std::string plan;
  bool ok = false;
  std::string detail;
  double elapsed = 0.0;
  long long delayed = 0, dropped = 0, corrupted = 0;
  long long retransmits = 0, recovered = 0;
};

void write_report(const std::string& path,
                  const std::vector<RunRecord>& records, bool all_ok) {
  std::ofstream os(path);
  os << "{\n  \"all_ok\": " << (all_ok ? "true" : "false")
     << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    os << "    {\"name\": \"" << json_escape(r.name) << "\", \"plan\": \""
       << json_escape(r.plan) << "\", \"ok\": " << (r.ok ? "true" : "false")
       << ", \"elapsed_s\": " << r.elapsed << ", \"delayed\": " << r.delayed
       << ", \"dropped\": " << r.dropped << ", \"corrupted\": " << r.corrupted
       << ", \"retransmits\": " << r.retransmits
       << ", \"recovered\": " << r.recovered
       << ", \"detail\": \"" << json_escape(r.detail) << "\"}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  if (!os) {
    std::fprintf(stderr, "chaos_study: cannot write report to '%s'\n",
                 path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 8;
  std::string out = "chaos.json";
  int nx = 18, ny = 12;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      seeds = std::stoi(arg.substr(8));
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else if (arg.rfind("--grid=", 0) == 0) {
      const auto spec = arg.substr(7);
      if (std::sscanf(spec.c_str(), "%dx%d", &nx, &ny) != 2) {
        std::fprintf(stderr, "chaos_study: bad --grid '%s'\n", spec.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: chaos_study [--seeds=N] [--out=FILE] "
                   "[--grid=NXxNY]\n");
      return 2;
    }
  }

  cfd::SprayerParams params;
  params.nx = nx;
  params.ny = ny;
  params.frames = 2;
  const auto source = cfd::sprayer_source(params);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();

  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(source, diags);
  if (diags.has_errors()) {
    std::fprintf(stderr, "%s\n", diags.dump().c_str());
    return 2;
  }
  dirs.partition = partition::PartitionSpec::parse("2x2");
  auto seq_file = fortran::parse_source(source);
  const auto seq =
      codegen::run_sequential_timed(seq_file, dirs.status_arrays, machine);
  auto program = core::parallelize(source, dirs);

  std::vector<RunRecord> records;
  std::printf("chaos_study: sprayer %dx%d on 2x2, %d timing seeds\n", nx, ny,
              seeds);

  // Phase 1: seeded timing-only schedules must not change results.
  for (int seed = 1; seed <= seeds; ++seed) {
    fault::FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(seed);
    plan.jitter_prob = 0.5;
    plan.jitter_max = 0.02;
    plan.windows.push_back({0.0, 1.0, 0.05, -1, -1});
    plan.stragglers.push_back({seed % 4, 1.0 + 0.5 * (seed % 3)});
    fault::FaultInjector injector(plan);
    codegen::SpmdRunOptions opts;
    opts.faults = &injector;

    RunRecord rec;
    rec.name = "timing-seed-" + std::to_string(seed);
    rec.plan = plan.str();
    try {
      const auto par = program->run(machine, opts);
      rec.elapsed = par.elapsed;
      const auto mismatch = codegen::first_mismatch(seq.arrays, par.gathered);
      rec.ok = !mismatch;
      rec.detail = mismatch.value_or("bit-identical to sequential");
    } catch (const std::exception& e) {
      rec.detail = std::string("unexpected error: ") + e.what();
    }
    rec.delayed = injector.counters().delayed;
    rec.dropped = injector.counters().dropped;
    rec.corrupted = injector.counters().corrupted;
    std::printf("  %-16s %-6s delayed=%-4lld elapsed=%.4f  %s\n",
                rec.name.c_str(), rec.ok ? "ok" : "FAIL", rec.delayed,
                rec.elapsed, rec.detail.c_str());
    records.push_back(rec);
  }

  // Find a message to target for the detection runs.
  int tag = -1, src = -1, dst = -1;
  {
    trace::TraceRecorder recorder;
    (void)program->run(machine, &recorder);
    for (const auto& rank_events : recorder.trace().per_rank) {
      for (const auto& e : rank_events) {
        if (e.kind == mp::EventKind::Send) {
          tag = e.tag;
          src = e.rank;
          dst = e.peer;
          break;
        }
      }
      if (tag >= 0) break;
    }
  }

  // Phase 2: a dropped message must trip the watchdog, attributed.
  {
    fault::FaultPlan plan;
    plan.drops.push_back({src, dst, tag, 0});
    fault::FaultInjector injector(plan);
    codegen::SpmdRunOptions opts;
    opts.faults = &injector;
    opts.watchdog = 5.0;
    RunRecord rec;
    rec.name = "drop-detection";
    rec.plan = plan.str();
    try {
      (void)program->run(machine, opts);
      rec.detail = "dropped message was not detected";
    } catch (const mp::CommTimeoutError& e) {
      const auto& info = e.info();
      rec.ok = info.rank == dst && info.peer == src && info.tag == tag;
      rec.detail = rec.ok ? std::string("watchdog: ") + e.what()
                          : "watchdog tripped with wrong attribution";
      rec.elapsed = info.time;
    } catch (const std::exception& e) {
      rec.detail = std::string("wrong error type: ") + e.what();
    }
    rec.dropped = injector.counters().dropped;
    std::printf("  %-16s %-6s %s\n", rec.name.c_str(),
                rec.ok ? "ok" : "FAIL", rec.detail.c_str());
    records.push_back(rec);
  }

  // Phase 3: a corrupted payload must fail its checksum.
  {
    fault::FaultPlan plan;
    plan.corruptions.push_back({src, dst, tag, 0});
    fault::FaultInjector injector(plan);
    codegen::SpmdRunOptions opts;
    opts.faults = &injector;
    RunRecord rec;
    rec.name = "corrupt-detection";
    rec.plan = plan.str();
    try {
      (void)program->run(machine, opts);
      rec.detail = "corrupted payload was consumed silently";
    } catch (const mp::CommChecksumError& e) {
      const auto& info = e.info();
      rec.ok = info.rank == dst && info.peer == src && info.tag == tag;
      rec.detail = rec.ok ? std::string("checksum: ") + e.what()
                          : "checksum error with wrong attribution";
    } catch (const std::exception& e) {
      rec.detail = std::string("wrong error type: ") + e.what();
    }
    rec.corrupted = injector.counters().corrupted;
    std::printf("  %-16s %-6s %s\n", rec.name.c_str(),
                rec.ok ? "ok" : "FAIL", rec.detail.c_str());
    records.push_back(rec);
  }

  // Phase 4: recovered-vs-clean differential. The same class of loss
  // the detection phases fail fast on must be *absorbed* once reliable
  // delivery is on: under seeded drop+corruption plans the run
  // completes and its gathered arrays are bit-identical to a clean
  // (fault-free) run of the same program.
  {
    const auto clean = program->run(machine, codegen::SpmdRunOptions{});
    const int recovery_seeds = seeds < 4 ? seeds : 4;
    for (int seed = 1; seed <= recovery_seeds; ++seed) {
      fault::FaultPlan plan;
      plan.seed = static_cast<std::uint64_t>(100 + seed);
      plan.drop_prob = 0.05;
      plan.corrupt_prob = 0.03;
      fault::FaultInjector injector(plan);
      codegen::SpmdRunOptions opts;
      opts.faults = &injector;
      opts.recovery = mp::RecoveryConfig::parse("default");

      RunRecord rec;
      rec.name = "recovery-seed-" + std::to_string(100 + seed);
      rec.plan = plan.str();
      try {
        const auto par = program->run(machine, opts);
        rec.elapsed = par.elapsed;
        for (const auto& st : par.cluster.ranks) {
          rec.retransmits += st.retransmits;
          rec.recovered += st.recovered;
        }
        // Recovery re-sends the pristine payload, so loss must leave
        // no numerical trace: compare against the clean parallel run
        // too, bit for bit.
        auto mismatch = codegen::first_mismatch(seq.arrays, par.gathered);
        if (!mismatch) {
          mismatch = codegen::first_mismatch(clean.gathered, par.gathered);
          if (mismatch) *mismatch += " (against the clean run)";
        }
        rec.ok = !mismatch;
        std::string why = mismatch.value_or("");
        const long long faults =
            injector.counters().dropped + injector.counters().corrupted;
        if (rec.ok && faults > 0 && rec.recovered == 0) {
          rec.ok = false;
          why = "faults were injected but nothing was recovered";
        }
        rec.detail =
            rec.ok ? "recovered run bit-identical to clean run" : why;
      } catch (const std::exception& e) {
        rec.detail = std::string("recovery failed: ") + e.what();
      }
      rec.dropped = injector.counters().dropped;
      rec.corrupted = injector.counters().corrupted;
      std::printf(
          "  %-16s %-6s dropped=%-3lld corrupted=%-3lld "
          "retransmits=%-3lld %s\n",
          rec.name.c_str(), rec.ok ? "ok" : "FAIL", rec.dropped,
          rec.corrupted, rec.retransmits, rec.detail.c_str());
      records.push_back(rec);
    }
  }

  bool all_ok = true;
  for (const auto& r : records) all_ok = all_ok && r.ok;
  write_report(out, records, all_ok);
  std::printf("chaos_study: %s, report in %s\n",
              all_ok ? "all properties hold" : "PROPERTY VIOLATED",
              out.c_str());
  return all_ok ? 0 : 1;
}
