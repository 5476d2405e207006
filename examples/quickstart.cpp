// Quickstart: parallelize a small sequential Jacobi solver and run it
// on the simulated cluster.
//
//   $ ./quickstart
//
// Shows the complete Auto-CFD flow on a 64x48 Laplace problem:
//   1. a sequential Fortran program with !$acfd directives,
//   2. the pre-compiler's analysis report (field loops, S_LDP,
//      synchronization points before/after combining),
//   3. the emitted SPMD source with message-passing calls,
//   4. execution on 4 simulated ranks, validated against the
//      sequential run, with per-rank communication statistics.
#include <cstdio>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"

namespace {

constexpr const char* kSource = R"(
!$acfd grid 64 48
!$acfd status t told
!$acfd nprocs 4
program heat
parameter (nx = 64, ny = 48)
real t(nx, ny), told(nx, ny)
real errmax, eps
integer i, j, it

! hot west wall, cold elsewhere
do j = 1, ny
  t(1, j) = 100.0
end do

eps = 1.0e-3
do it = 1, 500
  errmax = 0.0
  do i = 1, nx
    do j = 1, ny
      told(i, j) = t(i, j)
    end do
  end do
  do i = 2, nx - 1
    do j = 2, ny - 1
      t(i, j) = 0.25 * (told(i - 1, j) + told(i + 1, j) &
              + told(i, j - 1) + told(i, j + 1))
      errmax = max(errmax, abs(t(i, j) - told(i, j)))
    end do
  end do
  if (errmax .lt. eps) goto 99
end do
99 continue
write(6,*) 'residual', errmax
end
)";

}  // namespace

int main() {
  using namespace autocfd;

  std::printf("=== Auto-CFD quickstart ===\n\n");
  std::printf("Input: sequential Jacobi heat solver, 64x48 grid.\n");
  std::printf("Directives ask for the best partition on 4 processors.\n\n");

  // 1. Run the pre-compiler (directives are read from the source).
  auto program = core::parallelize(kSource);
  const auto& rep = program->report;
  std::printf("Pre-compiler report:\n");
  std::printf("  partition chosen          : %s\n",
              program->meta.spec.str().c_str());
  std::printf("  field loops               : %d\n", rep.field_loops);
  std::printf("  dependence pairs (S_LDP)  : %d\n", rep.dependence_pairs);
  std::printf("  sync points before/after  : %d / %d (%.0f%% removed)\n\n",
              rep.syncs_before, rep.syncs_after, rep.optimization_percent);

  // 2. Show a slice of the emitted SPMD program.
  std::printf("Emitted SPMD source (first 30 lines):\n");
  std::size_t pos = 0;
  for (int line = 0; line < 30 && pos != std::string::npos; ++line) {
    const auto next = program->parallel_source.find('\n', pos);
    std::printf("  %s\n",
                program->parallel_source.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }

  // 3. Run on the simulated cluster and compare with sequential.
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  auto par = program->run(machine);

  auto seq_file = fortran::parse_source(kSource);
  const auto seq = codegen::run_sequential_timed(
      seq_file, {"t", "told"}, machine);

  std::printf("\nExecution on the simulated cluster:\n");
  std::printf("  sequential virtual time : %.4f s\n", seq.elapsed);
  std::printf("  parallel virtual time   : %.4f s (speedup %.2f on %d ranks)\n",
              par.elapsed, seq.elapsed / par.elapsed,
              program->meta.spec.num_tasks());
  for (std::size_t r = 0; r < par.cluster.ranks.size(); ++r) {
    const auto& st = par.cluster.ranks[r];
    std::printf(
        "  rank %zu: compute %.4f s, comm %.4f s, %lld messages, %lld bytes\n",
        r, st.compute_time, st.comm_time, st.messages_sent, st.bytes_sent);
  }

  // 4. Validate.
  const auto mismatch = codegen::first_mismatch(seq.arrays, par.gathered);
  std::printf("\nValidation: %s\n",
              mismatch ? ("DIVERGED, " + *mismatch).c_str()
                       : "parallel result bitwise identical to sequential");
  std::printf(
      "\nNote: a 64x48 grid is communication-bound on the simulated\n"
      "10 Mb Ethernet cluster — exactly the small-grid regime of the\n"
      "paper's Table 4. Run sprayer_study/aerofoil_study for scaling.\n");
  if (!par.rank0_output.empty()) {
    std::printf("Program output (rank 0): %s\n",
                par.rank0_output.front().c_str());
  }
  return mismatch ? 1 : 0;
}
