// Recovery overhead versus drop rate.
//
// With reliable delivery enabled (see DESIGN.md §16), a seeded
// drop+corruption plan no longer kills the run: every lost or
// mangled message is retransmitted on a virtual-time backoff
// schedule until it lands intact. This figure quantifies what that
// self-healing costs. Both case studies (aerofoil and sprayer) are
// swept over increasing drop rates; for each cell we report the
// virtual elapsed time, the retransmit count, the recovery wait
// (the extra idle time attributable to loss) and — the property the
// whole protocol exists for — whether the gathered status arrays
// stayed bit-identical to the clean run.
//
// Every number here is virtual-time deterministic per seed, so the
// committed sidecar doubles as a regression oracle: CI re-runs this
// binary and perf_sentinel flags any drift in elapsed time or any
// identity bit dropping to 0.
#include "bench_util.hpp"

#include <string>

#include "autocfd/fault/fault.hpp"

namespace {

using namespace autocfd;

struct Cell {
  double elapsed = 0.0;
  double recovery_s = 0.0;
  long long retransmits = 0;
  long long recovered = 0;
  long long dropped = 0;
  long long corrupted = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  const double drop_rates[] = {0.02, 0.05, 0.10};

  struct Case {
    std::string name;
    std::string source;
    std::string partition;
  };
  std::vector<Case> cases;
  {
    cfd::AerofoilParams ap;
    ap.n1 = 24;
    ap.n2 = 10;
    ap.n3 = 4;
    ap.frames = 2;
    cases.push_back({"aerofoil", cfd::aerofoil_source(ap), "2x2x1"});
    cfd::SprayerParams sp;
    sp.nx = 18;
    sp.ny = 12;
    sp.frames = 2;
    cases.push_back({"sprayer", cfd::sprayer_source(sp), "2x2"});
  }

  bench_util::heading(
      "Recovery overhead vs drop rate (reliable delivery, budget=8)");

  for (const auto& c : cases) {
    DiagnosticEngine diags;
    auto dirs = core::Directives::extract(c.source, diags);
    dirs.partition = partition::PartitionSpec::parse(c.partition);
    auto program = core::parallelize(c.source, dirs);

    const auto clean = program->run(machine);
    bench_util::record(c.name + ".clean.elapsed_s", clean.elapsed);

    std::printf("\n%s %s  (clean %.6f s)\n", c.name.c_str(),
                c.partition.c_str(), clean.elapsed);
    std::printf("%-10s %12s %10s %11s %11s %10s %10s\n", "drop rate",
                "elapsed (s)", "overhead", "retransmits", "recovered",
                "recov (s)", "identical");

    for (const double rate : drop_rates) {
      auto plan = fault::FaultPlan::parse(
          "seed=11,drop=" + std::to_string(rate) +
          ",corrupt=" + std::to_string(rate / 2.0));
      fault::FaultInjector injector(plan);
      codegen::SpmdRunOptions opts;
      opts.faults = &injector;
      opts.recovery = mp::RecoveryConfig::parse("default");
      const auto run = program->run(machine, opts);

      Cell cell;
      cell.elapsed = run.elapsed;
      cell.identical = !codegen::first_mismatch(clean.gathered, run.gathered);
      for (const auto& st : run.cluster.ranks) {
        cell.retransmits += st.retransmits;
        cell.recovered += st.recovered;
        cell.recovery_s += st.recovery_time;
      }
      cell.dropped = injector.counters().dropped;
      cell.corrupted = injector.counters().corrupted;

      const double overhead = run.elapsed / clean.elapsed - 1.0;
      std::printf("%-10.2f %12.6f %+9.2f%% %11lld %11lld %10.6f %10s\n",
                  rate, cell.elapsed, overhead * 100.0, cell.retransmits,
                  cell.recovered, cell.recovery_s,
                  cell.identical ? "yes" : "NO!");

      const std::string key =
          c.name + ".drop" + std::to_string(static_cast<int>(rate * 100));
      bench_util::record(key + ".elapsed_s", cell.elapsed);
      bench_util::record(key + ".overhead_ratio",
                         cell.elapsed / clean.elapsed);
      bench_util::record(key + ".retransmits",
                         static_cast<double>(cell.retransmits));
      bench_util::record(key + ".recovered",
                         static_cast<double>(cell.recovered));
      bench_util::record(key + ".recovery_s", cell.recovery_s);
      bench_util::record(key + ".dropped",
                         static_cast<double>(cell.dropped));
      bench_util::record(key + ".corrupted",
                         static_cast<double>(cell.corrupted));
      bench_util::record(key + ".identical", cell.identical ? 1 : 0);
    }
  }

  bench_util::note(
      "\nEvery recovered run must be bit-identical to its clean run; the\n"
      "overhead column is the price of the retransmit backoff in virtual\n"
      "time. Retransmit counts and recovery seconds are deterministic per\n"
      "seed — drift against the committed sidecar is a regression.");

  // Host-time microbenchmarks: what the recovery machinery costs when
  // messages are actually being lost, versus the clean fast path.
  {
    static DiagnosticEngine diags;
    cfd::SprayerParams sp;
    sp.nx = 18;
    sp.ny = 12;
    sp.frames = 2;
    static const std::string src = cfd::sprayer_source(sp);
    static auto dirs = core::Directives::extract(src, diags);
    dirs.partition = partition::PartitionSpec::parse("2x2");
    static auto program = core::parallelize(src, dirs);
    static auto plan = fault::FaultPlan::parse("seed=11,drop=0.05");
    benchmark::RegisterBenchmark(
        "spmd_run/sprayer_clean", [&](benchmark::State& s) {
          for (auto _ : s) benchmark::DoNotOptimize(program->run(machine));
        });
    benchmark::RegisterBenchmark(
        "spmd_run/sprayer_drop5_recovery", [&](benchmark::State& s) {
          for (auto _ : s) {
            fault::FaultInjector injector(plan);
            codegen::SpmdRunOptions opts;
            opts.faults = &injector;
            opts.recovery = mp::RecoveryConfig::parse("default");
            benchmark::DoNotOptimize(program->run(machine, opts));
          }
        });
  }
  return bench_util::finish(argc, argv);
}
