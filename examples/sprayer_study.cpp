// Case study 2: the sprayer flow simulation (paper section 6).
//
//   $ ./sprayer_study [nx ny frames]
//
// Runs the 2-D ADI sprayer analog across processor counts, printing
// the Table 3-style speedup/efficiency rows, the partition the
// section 4.1 search picks for each processor count, and per-rank
// communication statistics for the largest run.
#include <cstdio>
#include <cstdlib>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/partition/comm_model.hpp"

int main(int argc, char** argv) {
  using namespace autocfd;

  cfd::SprayerParams params;
  params.nx = 120;  // default: laptop-friendly subset of 300x100
  params.ny = 60;
  params.frames = 3;
  if (argc >= 3) {
    params.nx = std::atoll(argv[1]);
    params.ny = std::atoll(argv[2]);
  }
  if (argc >= 4) params.frames = std::atoi(argv[3]);

  std::printf("=== Case study 2: sprayer flow simulation (%lldx%lld, %d frames) ===\n\n",
              params.nx, params.ny, params.frames);

  const auto src = cfd::sprayer_source(params);
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(src, diags);

  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  auto seq_file = fortran::parse_source(src);
  const auto seq =
      codegen::run_sequential_timed(seq_file, dirs.status_arrays, machine);
  std::printf("Sequential run: %.3f virtual s\n\n", seq.elapsed);

  std::printf("%-6s %-10s %8s %8s %10s %10s %12s\n", "procs", "partition",
              "before", "after", "time (s)", "speedup", "efficiency");
  codegen::SpmdRunResult last;
  for (const int procs : {2, 3, 4, 6}) {
    // Section 4.1: search all factorizations for the best partition.
    const auto spec = partition::find_best_partition(
        dirs.grid, procs, partition::HaloWidths::uniform(2, 1));
    dirs.partition = spec;
    auto program = core::parallelize(src, dirs);
    auto par = program->run(machine);
    std::printf("%-6d %-10s %8d %8d %10.3f %10.2f %11.0f%%\n", procs,
                spec.str().c_str(), program->report.syncs_before,
                program->report.syncs_after, par.elapsed,
                seq.elapsed / par.elapsed,
                100.0 * seq.elapsed / par.elapsed / procs);
    last = std::move(par);
  }

  std::printf("\nPer-rank statistics of the 6-processor run:\n");
  for (std::size_t r = 0; r < last.cluster.ranks.size(); ++r) {
    const auto& st = last.cluster.ranks[r];
    std::printf(
        "  rank %zu: compute %.3f s, comm %.3f s (%lld msgs, %.1f KB)\n", r,
        st.compute_time, st.comm_time, st.messages_sent,
        static_cast<double>(st.bytes_sent) / 1024.0);
  }

  // Validation against the sequential run (largest processor count).
  const auto mismatch = codegen::first_mismatch(seq.arrays, last.gathered);
  std::printf("\nValidation (6 procs vs sequential): %s\n",
              mismatch ? ("DIVERGED, " + *mismatch).c_str()
                       : "bitwise identical");
  return mismatch ? 1 : 0;
}
