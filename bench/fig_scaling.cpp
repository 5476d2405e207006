// Scaling figure: efficiency curves of both case studies across rank
// counts, produced by the scaling observatory (src/sweep).
//
// Each app is swept across its rank counts in one run_sweep() call —
// the static heuristic picks each scale's partition — and the
// resulting ScalingReport is flattened into the sidecar: per-cell
// virtual elapsed time, speedup, parallel efficiency, Karp-Flatt
// serial fraction and communication share, plus the sweep-level
// comm-bound/compute-bound verdict and its crossover scale. Virtual
// times are deterministic, so CI gates against the committed
// BENCH_fig_scaling.json with tools/perf_sentinel at 10%:
// any drift in partitioning, sync combining, the runtime's cost model,
// or the observatory's own aggregation shows up as a diff here.
#include "bench_util.hpp"

#include "autocfd/sweep/sweep.hpp"

namespace {

using namespace autocfd;

struct Case {
  std::string name;
  std::string source;
  std::vector<int> ranks;
};

}  // namespace

int main(int argc, char** argv) {
  cfd::AerofoilParams ap;
  ap.n1 = 40;
  ap.n2 = 20;
  ap.n3 = 8;
  ap.frames = 2;
  cfd::SprayerParams sp;
  sp.nx = 64;
  sp.ny = 32;
  sp.frames = 2;

  const Case cases[] = {
      {"aerofoil", cfd::aerofoil_source(ap), {1, 2, 4, 8}},
      {"sprayer", cfd::sprayer_source(sp), {1, 2, 4}},
  };

  bench_util::heading(
      "Scaling observatory: efficiency curves across rank counts");

  for (const auto& c : cases) {
    sweep::SweepSpec spec;
    spec.title = c.name;
    spec.ranks = c.ranks;
    DiagnosticEngine diags;
    const auto dirs = core::Directives::extract(c.source, diags);
    const auto result = sweep::run_sweep(c.source, dirs, spec);
    const auto& report = result.report;

    std::printf("\n%s (%s%s)\n", c.name.c_str(),
                report.classification.c_str(),
                report.crossover_nranks > 0
                    ? (" from " + std::to_string(report.crossover_nranks) +
                       " ranks")
                          .c_str()
                    : "");
    std::printf("  %5s %-10s %12s %9s %7s %7s\n", "ranks", "partition",
                "elapsed (s)", "speedup", "eff", "comm%");
    for (const auto& cell : report.cells) {
      std::printf("  %5d %-10s %12.4f %8.2fx %6.1f%% %6.1f%%\n", cell.nranks,
                  cell.partition.c_str(), cell.elapsed_s, cell.speedup,
                  cell.efficiency * 100.0, cell.comm_share * 100.0);
      const std::string prefix =
          c.name + ".p" + std::to_string(cell.nranks);
      bench_util::record(prefix + ".elapsed_s", cell.elapsed_s);
      bench_util::record(prefix + ".speedup", cell.speedup);
      bench_util::record(prefix + ".efficiency", cell.efficiency);
      bench_util::record(prefix + ".karp_flatt", cell.karp_flatt);
      bench_util::record(prefix + ".comm_share", cell.comm_share);
      bench_util::record_str(prefix + ".partition", cell.partition);
    }
    bench_util::record(c.name + ".crossover_nranks",
                       report.crossover_nranks);
    bench_util::record_str(c.name + ".classification", report.classification);
    bench_util::record_str(c.name + ".crossover_site",
                           report.crossover_site_kind + " " +
                               report.crossover_site);
  }

  bench_util::note(
      "\nVirtual times are deterministic: the committed sidecar is an "
      "exact\nfingerprint of partitioning, sync combining and the "
      "runtime cost model.");

  // Host-time cost of the observatory itself: one small sweep end to
  // end (compile x cells + runs + aggregation).
  benchmark::RegisterBenchmark("run_sweep/aerofoil/1,2", [](benchmark::State&
                                                               s) {
    cfd::AerofoilParams small;
    small.n1 = 24;
    small.n2 = 10;
    small.n3 = 4;
    small.frames = 1;
    const auto src = cfd::aerofoil_source(small);
    DiagnosticEngine diags;
    const auto dirs = core::Directives::extract(src, diags);
    sweep::SweepSpec spec;
    spec.title = "aerofoil-small";
    spec.ranks = {1, 2};
    for (auto _ : s) {
      benchmark::DoNotOptimize(sweep::run_sweep(src, dirs, spec));
    }
  });
  return bench_util::finish(argc, argv);
}
