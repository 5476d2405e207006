// End-to-end tests: the pre-compiler's SPMD output, executed on the
// simulated cluster, must reproduce the sequential program's results
// exactly (same point update order per value), for every loop family
// the paper discusses — Jacobi-style stencils, boundary sections,
// multi-subroutine frames, reductions, and the mirror-image
// self-dependent sweeps of Figure 3(b).
#include <gtest/gtest.h>

#include <limits>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"

namespace autocfd::core {
namespace {

/// Runs source sequentially and in parallel under `partition`; expects
/// every status array to match bitwise.
void expect_equivalent(const std::string& source,
                       const std::string& partition) {
  DiagnosticEngine diags;
  auto dirs = Directives::extract(source, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.dump();
  dirs.partition = partition::PartitionSpec::parse(partition);

  // Sequential reference on a freshly parsed copy.
  auto seq_file = fortran::parse_source(source);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  const auto seq =
      codegen::run_sequential_timed(seq_file, dirs.status_arrays, machine);

  auto program = parallelize(source, dirs);
  auto par = program->run(machine);

  ASSERT_EQ(seq.arrays.size(), dirs.status_arrays.size());
  EXPECT_EQ(codegen::first_mismatch(seq.arrays, par.gathered), std::nullopt)
      << "partition " << partition;
}

constexpr const char* kJacobi = R"(
!$acfd grid 20 16
!$acfd status v vold
program jacobi
parameter (n = 20, m = 16)
real v(n, m), vold(n, m)
real errmax
integer i, j, it
do i = 1, n
  do j = 1, m
    v(i, j) = 0.01 * i * j
  end do
end do
do j = 1, m
  v(1, j) = 1.0
end do
do it = 1, 12
  errmax = 0.0
  do i = 2, n - 1
    do j = 2, m - 1
      vold(i, j) = v(i, j)
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = 0.25 * (vold(i - 1, j) + vold(i + 1, j) &
              + vold(i, j - 1) + vold(i, j + 1))
      errmax = max(errmax, abs(v(i, j) - vold(i, j)))
    end do
  end do
end do
end
)";

TEST(SpmdEquivalence, JacobiAcrossPartitions) {
  for (const auto* part : {"2x1", "1x2", "4x1", "2x2", "4x4"}) {
    expect_equivalent(kJacobi, part);
  }
}

// Figure 3(b): mixed-direction self-dependent Gauss-Seidel — the
// mirror-image decomposition must reproduce the sequential sweep
// exactly (pipelined flow half + pre-exchanged anti half).
constexpr const char* kGaussSeidel = R"(
!$acfd grid 24 18
!$acfd status v
program gs
parameter (n = 24, m = 18)
real v(n, m)
integer i, j, it
do i = 1, n
  do j = 1, m
    v(i, j) = 0.05 * i - 0.03 * j
  end do
end do
do it = 1, 8
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = 0.25 * (v(i - 1, j) + v(i + 1, j) &
              + v(i, j - 1) + v(i, j + 1))
    end do
  end do
end do
end
)";

TEST(SpmdEquivalence, MirrorImageGaussSeidel) {
  for (const auto* part : {"2x1", "4x1", "1x3", "2x2", "3x3"}) {
    expect_equivalent(kGaussSeidel, part);
  }
}

// Forward-only self-dependence (Figure 3(a)): pure pipeline.
constexpr const char* kForwardSweep = R"(
!$acfd grid 16 16
!$acfd status v
program fwd
parameter (n = 16)
real v(n, n)
integer i, j, it
do i = 1, n
  do j = 1, n
    v(i, j) = 0.1 * i + 0.2 * j
  end do
end do
do it = 1, 6
  do i = 2, n - 1
    do j = 2, n - 1
      v(i, j) = 0.5 * (v(i - 1, j) + v(i, j - 1))
    end do
  end do
end do
end
)";

TEST(SpmdEquivalence, ForwardSweepPipeline) {
  for (const auto* part : {"2x1", "4x1", "2x2"}) {
    expect_equivalent(kForwardSweep, part);
  }
}

// One sweep self-dependent in two arrays: its hand-off must carry both
// boundaries (it once carried only the first array's, and v diverged).
constexpr const char* kTwoArraySweep = R"(
!$acfd grid 24 12
!$acfd status u v
program two
parameter (n = 24, m = 12)
real u(n, m), v(n, m)
integer i, j, it
do i = 1, n
  do j = 1, m
    u(i, j) = 0.01 * (i + 2 * j)
    v(i, j) = 0.02 * (2 * i + j)
  end do
end do
do it = 1, 3
  do i = 2, n - 1
    do j = 1, m
      u(i, j) = 0.5 * u(i, j) + 0.2 * u(i - 1, j) + 0.1 * u(i + 1, j)
      v(i, j) = 0.5 * v(i, j) + 0.2 * v(i - 1, j) + 0.1 * u(i, j)
    end do
  end do
end do
end
)";

TEST(SpmdEquivalence, SweepOverTwoArraysHandsOffBoth) {
  for (const auto* part : {"2x1", "3x1", "3x2"}) {
    expect_equivalent(kTwoArraySweep, part);
  }
}

// Boundary sections (section 4.2 case 3): fixed-row writes must be
// guarded to the owning block.
constexpr const char* kBoundary = R"(
!$acfd grid 18 12
!$acfd status v w
program bnd
parameter (n = 18, m = 12)
real v(n, m), w(n, m)
integer i, j, it
do it = 1, 8
  do j = 1, m
    v(1, j) = 2.0
    v(n, j) = -1.0
  end do
  do i = 1, n
    v(i, 1) = 0.5
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      w(i, j) = 0.25 * (v(i - 1, j) + v(i + 1, j) + v(i, j - 1) &
              + v(i, j + 1))
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = w(i, j)
    end do
  end do
end do
end
)";

TEST(SpmdEquivalence, BoundarySections) {
  for (const auto* part : {"2x1", "1x2", "3x2", "2x3"}) {
    expect_equivalent(kBoundary, part);
  }
}

// Multi-subroutine frame (section 5.3): dependences and syncs cross
// subroutine boundaries via common blocks.
constexpr const char* kSubroutines = R"(
!$acfd grid 16 16
!$acfd status v w
program multi
parameter (n = 16)
real v(n, n), w(n, n)
common /flow/ v, w
integer i, j, it
do i = 1, n
  do j = 1, n
    v(i, j) = 0.02 * i * j
    w(i, j) = 0.0
  end do
end do
do it = 1, 6
  call smooth
  call accum
end do
end
subroutine smooth
parameter (n = 16)
real v(n, n), w(n, n)
common /flow/ v, w
integer i, j
do i = 2, n - 1
  do j = 2, n - 1
    w(i, j) = 0.25 * (v(i - 1, j) + v(i + 1, j) + v(i, j - 1) &
            + v(i, j + 1))
  end do
end do
return
end
subroutine accum
parameter (n = 16)
real v(n, n), w(n, n)
common /flow/ v, w
integer i, j
do i = 2, n - 1
  do j = 2, n - 1
    v(i, j) = v(i, j) + 0.5 * (w(i, j) - v(i, j))
  end do
end do
return
end
)";

TEST(SpmdEquivalence, MultiSubroutineFrame) {
  for (const auto* part : {"2x1", "2x2", "4x1"}) {
    expect_equivalent(kSubroutines, part);
  }
}

// Convergence loop: the allreduced residual must drive the same number
// of iterations on every rank as sequentially.
constexpr const char* kConvergence = R"(
!$acfd grid 14 14
!$acfd status v vold
program conv
parameter (n = 14)
real v(n, n), vold(n, n)
real errmax, eps
integer i, j, it
eps = 1.0e-3
do j = 1, n
  v(1, j) = 1.0
end do
do it = 1, 500
  errmax = 0.0
  do i = 2, n - 1
    do j = 2, n - 1
      vold(i, j) = v(i, j)
    end do
  end do
  do i = 2, n - 1
    do j = 2, n - 1
      v(i, j) = 0.25 * (vold(i - 1, j) + vold(i + 1, j) &
              + vold(i, j - 1) + vold(i, j + 1))
      errmax = max(errmax, abs(v(i, j) - vold(i, j)))
    end do
  end do
  if (errmax .lt. eps) goto 77
end do
77 continue
end
)";

TEST(SpmdEquivalence, ConvergenceLoopSameIterations) {
  for (const auto* part : {"2x1", "2x2"}) {
    expect_equivalent(kConvergence, part);
  }
}

// Dependency distance 2 (section 4.2 case 5).
constexpr const char* kDistance2 = R"(
!$acfd grid 20 10
!$acfd status v w
program dist2
parameter (n = 20, m = 10)
real v(n, m), w(n, m)
integer i, j, it
do i = 1, n
  do j = 1, m
    v(i, j) = 0.1 * i + j
  end do
end do
do it = 1, 5
  do i = 3, n - 2
    do j = 1, m
      w(i, j) = 0.5 * (v(i - 2, j) + v(i + 2, j))
    end do
  end do
  do i = 3, n - 2
    do j = 1, m
      v(i, j) = w(i, j)
    end do
  end do
end do
end
)";

TEST(SpmdEquivalence, DependencyDistanceTwo) {
  // 10x1 leaves blocks exactly as wide as the halo.
  for (const auto* part : {"2x1", "4x1", "10x1"}) {
    expect_equivalent(kDistance2, part);
  }
}

// A halo exchange posts every send of a dimension before any receive,
// so a block thinner than a halo it sends would forward ghost cells it
// has not received yet. The analysis rejects such a partition.
TEST(SpmdEquivalence, BlockThinnerThanItsHaloIsAnError) {
  DiagnosticEngine diags;
  auto dirs = Directives::extract(kDistance2, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.dump();
  dirs.partition = partition::PartitionSpec::parse("20x1");
  try {
    (void)parallelize(kDistance2, dirs);
    FAIL() << "20x1 gives 1-wide blocks to a distance-2 stencil";
  } catch (const CompileError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("array 'v' needs a halo of width 2 along dimension 1"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("partition 20x1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("an extent of 1"), std::string::npos) << msg;
  }
  // The planner's analysis sees the same verdict.
  EXPECT_THROW((void)analyze_for_plan(kDistance2, dirs), CompileError);
}

// Hand-built 4x1 program whose only statement is one width-1 halo
// exchange. Each rank pays for its own sends and waits at most for a
// neighbor's first send, never for a chain of earlier pairs: rank 0
// sends once and its peer's message is already there; the others send
// twice, and rank 3's message from rank 2 departs after rank 2's first.
TEST(SpmdSchedule, HaloExchangeCostsEachRankItsOwnSends) {
  auto file = fortran::parse_source(R"(
program halo
real v(acfd_lo1-1:acfd_hi1+1, 8)
integer acfd_lo1
integer acfd_hi1
integer acfd_lo2
integer acfd_hi2
common /acfdrt/ acfd_lo1, acfd_hi1, acfd_lo2, acfd_hi2
end
)");
  auto halo = fortran::make_stmt(fortran::StmtKind::HaloExchange);
  halo->halo_arrays = {fortran::HaloSpec{"v", {1, 0}, {1, 0}}};
  file.units.at(0).body.push_back(std::move(halo));
  fortran::assign_stmt_ids(file);

  codegen::SpmdMeta meta;
  meta.grid = partition::Grid{{16, 8}};
  meta.spec = partition::PartitionSpec::parse("4x1");
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  const auto run = codegen::run_spmd(file, meta, machine);

  const double m = machine.message_time(8 * 8);  // one 8-point column
  ASSERT_EQ(run.cluster.ranks.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    const auto& st = run.cluster.ranks[r];
    EXPECT_EQ(st.compute_time, 0.0) << r;
    EXPECT_EQ(st.total_time(), (r == 0 ? 1 : 2) * m) << "rank " << r;
  }
}

TEST(SpmdTiming, ParallelBeatsSequentialOnComputeHeavyJacobi) {
  // Large enough grid (and heavy enough kernel) that computation
  // dominates the alpha-beta communication cost.
  const std::string src = R"(
!$acfd grid 400 200
!$acfd status v vold
program big
parameter (n = 400, m = 200)
real v(n, m), vold(n, m)
integer i, j, it
do it = 1, 8
  do i = 2, n - 1
    do j = 2, m - 1
      vold(i, j) = v(i, j)
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      v(i, j) = 0.25 * (vold(i - 1, j) + vold(i + 1, j) &
              + vold(i, j - 1) + vold(i, j + 1)) &
              + 0.001 * sqrt(abs(vold(i, j)) + 1.0) &
              - 0.001 * sqrt(abs(vold(i, j)) + 1.0)
    end do
  end do
end do
end
)";
  DiagnosticEngine diags;
  auto dirs = Directives::extract(src, diags);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  auto seq_file = fortran::parse_source(src);
  const auto seq =
      codegen::run_sequential_timed(seq_file, dirs.status_arrays, machine);

  dirs.partition = partition::PartitionSpec::parse("4x1");
  auto program = parallelize(src, dirs);
  auto par = program->run(machine);

  EXPECT_LT(par.elapsed, seq.elapsed);
  EXPECT_GT(par.elapsed, seq.elapsed / 8.0);  // no silly superlinearity here
  // Communication happened and was aggregated: vold and the wrap v
  // exchange share sync points.
  long long msgs = 0;
  for (const auto& r : par.cluster.ranks) msgs += r.messages_sent;
  EXPECT_GT(msgs, 0);
}

TEST(SpmdReport, CountsArePopulated) {
  DiagnosticEngine diags;
  auto dirs = Directives::extract(kGaussSeidel, diags);
  dirs.partition = partition::PartitionSpec::parse("4x1");
  const auto report = analyze_only(kGaussSeidel, dirs);
  EXPECT_GE(report.field_loops, 2);
  EXPECT_EQ(report.self_dependent_loops, 1);
  EXPECT_EQ(report.mirror_image_loops, 1);
  EXPECT_GE(report.syncs_before, 1);
  EXPECT_LE(report.syncs_after, report.syncs_before);
}

TEST(SpmdSource, ParallelSourceLooksLikeMpi) {
  DiagnosticEngine diags;
  auto dirs = Directives::extract(kJacobi, diags);
  dirs.partition = partition::PartitionSpec::parse("2x2");
  auto program = parallelize(kJacobi, dirs);
  const auto& src = program->parallel_source;
  EXPECT_NE(src.find("acfd_halo_exchange"), std::string::npos);
  EXPECT_NE(src.find("mpi_allreduce"), std::string::npos);
  EXPECT_NE(src.find("common /acfdrt/"), std::string::npos);
  EXPECT_NE(src.find("max("), std::string::npos);  // clamped loop bounds
  // The emitted source must re-parse.
  DiagnosticEngine reparse;
  (void)fortran::parse_source(src, reparse);
  EXPECT_FALSE(reparse.has_errors()) << reparse.dump();
}

// ------------------------------------------------- bitwise comparison

TEST(FirstMismatch, IdenticalMapsMatch) {
  const codegen::ArrayMap a{{"u", {1.0, 2.0}}, {"v", {}}};
  EXPECT_EQ(codegen::first_mismatch(a, a), std::nullopt);
}

TEST(FirstMismatch, MissingArrayOnEitherSide) {
  const codegen::ArrayMap both{{"u", {1.0}}, {"v", {2.0}}};
  const codegen::ArrayMap only_u{{"u", {1.0}}};
  const auto second = codegen::first_mismatch(both, only_u);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "v: missing from the second result");
  const auto first = codegen::first_mismatch(only_u, both);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "v: missing from the first result");
}

TEST(FirstMismatch, ResizedArray) {
  const auto mismatch = codegen::first_mismatch({{"u", {1.0, 2.0}}},
                                                {{"u", {1.0, 2.0, 0.0}}});
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(*mismatch, "u: 2 vs 3 elements");
}

TEST(FirstMismatch, NaNMatchesOnlyItsOwnBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // An abs-diff check lets a NaN through; bitwise it is a mismatch...
  const auto mismatch =
      codegen::first_mismatch({{"u", {1.0, 2.0}}}, {{"u", {1.0, nan}}});
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(*mismatch, "u[1] differs");
  // ...while the same NaN on both sides is the same result.
  EXPECT_EQ(codegen::first_mismatch({{"u", {nan}}}, {{"u", {nan}}}),
            std::nullopt);
}

TEST(FirstMismatch, NegativeZeroDiffersFromZero) {
  const auto mismatch =
      codegen::first_mismatch({{"a", {0.0}}, {"b", {0.0}}},
                              {{"a", {0.0}}, {"b", {-0.0}}});
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(*mismatch, "b[0] differs");
}

}  // namespace
}  // namespace autocfd::core
