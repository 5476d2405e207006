// Case study 1: the aerofoil simulation (paper section 6).
//
//   $ ./aerofoil_study [n1 n2 n3 frames]
//
// Parallelizes the 3-D aerofoil analog at a configurable grid size,
// reports the mirror-image decomposition the self-dependent relaxation
// sweeps require, sweeps the partitions the paper measured, and
// validates each parallel run against the sequential execution.
#include <cstdio>
#include <cstdlib>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"

int main(int argc, char** argv) {
  using namespace autocfd;

  cfd::AerofoilParams params;
  params.n1 = 48;  // default: laptop-friendly subset of 99x41x13
  params.n2 = 20;
  params.n3 = 8;
  params.frames = 2;
  if (argc >= 4) {
    params.n1 = std::atoll(argv[1]);
    params.n2 = std::atoll(argv[2]);
    params.n3 = std::atoll(argv[3]);
  }
  if (argc >= 5) params.frames = std::atoi(argv[4]);

  std::printf("=== Case study 1: aerofoil simulation (%lldx%lldx%lld, %d frames) ===\n\n",
              params.n1, params.n2, params.n3, params.frames);

  const auto src = cfd::aerofoil_source(params);
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(src, diags);

  std::printf("Generated Fortran source: %zu lines, %zu bytes\n",
              static_cast<std::size_t>(
                  std::count(src.begin(), src.end(), '\n')),
              src.size());

  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  auto seq_file = fortran::parse_source(src);
  const auto seq =
      codegen::run_sequential_timed(seq_file, dirs.status_arrays, machine);
  std::printf("Sequential run: %.3f virtual s (%.0fM flops)\n\n", seq.elapsed,
              seq.flops / 1e6);

  std::printf("%-10s %6s %6s %9s %9s %10s %9s  %s\n", "partition", "before",
              "after", "pipeline", "mirror", "time (s)", "speedup",
              "validated");
  bool diverged = false;
  for (const auto* part : {"2x1x1", "4x1x1", "2x2x1", "3x2x1"}) {
    dirs.partition = partition::PartitionSpec::parse(part);
    auto program = core::parallelize(src, dirs);
    auto par = program->run(machine);

    const auto mismatch = codegen::first_mismatch(seq.arrays, par.gathered);
    diverged = diverged || mismatch.has_value();
    std::printf("%-10s %6d %6d %9d %9d %10.3f %9.2f  %s\n", part,
                program->report.syncs_before, program->report.syncs_after,
                program->report.pipelined_loops,
                program->report.mirror_image_loops, par.elapsed,
                seq.elapsed / par.elapsed,
                mismatch ? ("DIVERGED, " + *mismatch).c_str() : "bitwise");
  }

  std::printf(
      "\nThe mirror-image sweeps (sweepx/sweepp/sweepr/sweepe) pipeline\n"
      "along X: each block waits for its upstream neighbor's updated\n"
      "boundary, sends line-grained messages downstream, and exchanges\n"
      "old values for the anti-dependence half before the sweep — the\n"
      "reason this case scales worse than the sprayer (paper Table 2).\n");
  return diverged ? 1 : 0;
}
