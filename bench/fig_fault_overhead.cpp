// Fault-injection overhead figure.
//
// The hardening (checksums, watchdog bookkeeping, fault-hook call
// sites) is always on; this figure quantifies what it costs. Three
// configurations of the same aerofoil run are compared:
//   clean      — no fault hook installed,
//   empty-hook — a FaultInjector with an empty plan (hook call cost),
//   jitter     — a timing-only chaos schedule.
// Virtual elapsed time must be *identical* for clean and empty-hook
// (zero behavior change), and jitter must leave every gathered status
// array bit-identical to the clean run. Host-time overhead is measured
// by the registered microbenchmarks and recorded as a ratio.
#include "bench_util.hpp"

#include <chrono>
#include <functional>

#include "autocfd/fault/fault.hpp"
#include "autocfd/trace/recorder.hpp"

namespace {

using namespace autocfd;

double wall_seconds_of(const std::function<void()>& fn, int reps) {
  // Best-of-N to damp scheduler noise.
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  cfd::AerofoilParams params;
  params.n1 = 24;
  params.n2 = 10;
  params.n3 = 4;
  params.frames = 2;
  const char* part = "2x2x1";

  const auto source = cfd::aerofoil_source(params);
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(source, diags);
  dirs.partition = partition::PartitionSpec::parse(part);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  auto program = core::parallelize(source, dirs);

  bench_util::heading("Fault-injection overhead: aerofoil 24x10x4, " +
                      std::string(part));

  const auto clean = program->run(machine);

  fault::FaultInjector empty_hook{fault::FaultPlan{}};
  codegen::SpmdRunOptions empty_opts;
  empty_opts.faults = &empty_hook;
  const auto with_empty = program->run(machine, empty_opts);

  auto jitter_plan = fault::FaultPlan::parse("seed=9,jitter=0.5:0.02");
  fault::FaultInjector jitter_hook(jitter_plan);
  codegen::SpmdRunOptions jitter_opts;
  jitter_opts.faults = &jitter_hook;
  const auto with_jitter = program->run(machine, jitter_opts);

  const bool elapsed_identical = clean.elapsed == with_empty.elapsed;
  const bool results_identical =
      !codegen::first_mismatch(clean.gathered, with_jitter.gathered);

  std::printf("%-12s %14s %10s\n", "config", "elapsed (s)", "delayed");
  std::printf("%-12s %14.6f %10s\n", "clean", clean.elapsed, "-");
  std::printf("%-12s %14.6f %10lld\n", "empty-hook", with_empty.elapsed,
              empty_hook.counters().delayed);
  std::printf("%-12s %14.6f %10lld\n", "jitter", with_jitter.elapsed,
              jitter_hook.counters().delayed);
  bench_util::note(
      std::string("\nEmpty hook leaves virtual time identical: ") +
      (elapsed_identical ? "yes" : "NO — hardening changed behavior!"));
  bench_util::note(
      std::string("Jitter schedule leaves results bit-identical: ") +
      (results_identical ? "yes" : "NO — timing fault changed results!"));

  // Host-time overhead of the always-on hardening path: the same run
  // with and without a (no-op) hook installed.
  const auto wall_clean =
      wall_seconds_of([&] { (void)program->run(machine); }, 3);
  const auto wall_hooked =
      wall_seconds_of([&] { (void)program->run(machine, empty_opts); }, 3);
  const double overhead = wall_hooked / wall_clean - 1.0;
  std::printf("\nhost wall time: clean %.4f s, empty-hook %.4f s "
              "(overhead %+.2f%%)\n",
              wall_clean, wall_hooked, overhead * 100.0);

  bench_util::record("aerofoil.clean.elapsed_s", clean.elapsed);
  bench_util::record("aerofoil.empty_hook.elapsed_s", with_empty.elapsed);
  bench_util::record("aerofoil.jitter.elapsed_s", with_jitter.elapsed);
  bench_util::record("aerofoil.elapsed_identical", elapsed_identical ? 1 : 0);
  bench_util::record("aerofoil.results_identical", results_identical ? 1 : 0);
  bench_util::record("aerofoil.empty_hook_overhead_ratio",
                     wall_hooked / wall_clean);
  bench_util::record("aerofoil.jitter.delayed",
                     static_cast<double>(jitter_hook.counters().delayed));

  benchmark::RegisterBenchmark("spmd_run/clean", [&](benchmark::State& s) {
    for (auto _ : s) benchmark::DoNotOptimize(program->run(machine));
  });
  benchmark::RegisterBenchmark("spmd_run/empty_hook",
                               [&](benchmark::State& s) {
                                 for (auto _ : s) {
                                   benchmark::DoNotOptimize(
                                       program->run(machine, empty_opts));
                                 }
                               });
  benchmark::RegisterBenchmark("spmd_run/jitter",
                               [&](benchmark::State& s) {
                                 for (auto _ : s) {
                                   benchmark::DoNotOptimize(
                                       program->run(machine, jitter_opts));
                                 }
                               });
  benchmark::RegisterBenchmark(
      "checksum/4KiB", [](benchmark::State& s) {
        const std::vector<double> payload(512, 1.25);
        for (auto _ : s) {
          benchmark::DoNotOptimize(mp::Cluster::payload_checksum(payload));
        }
      });
  return bench_util::finish(argc, argv);
}
