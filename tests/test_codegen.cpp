// Unit tests for the SPMD restructurer: declaration rewriting, loop
// clamping, boundary guards, reduction and pipeline insertion, and the
// metadata the runtime consumes.
#include <gtest/gtest.h>

#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/fortran/printer.hpp"

namespace autocfd::codegen {
namespace {

std::unique_ptr<core::ParallelProgram> build(const std::string& src,
                                             const std::string& part) {
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(src, diags);
  dirs.partition = partition::PartitionSpec::parse(part);
  return core::parallelize(src, dirs);
}

constexpr const char* kStencil = R"(
!$acfd grid 24 16
!$acfd status v w
program p
parameter (n = 24, m = 16)
real v(n, m), w(n, m)
real errmax
integer i, j, it
do it = 1, 4
  do i = 1, n
    do j = 1, m
      v(i, j) = 1.0
    end do
  end do
  do i = 2, n - 1
    do j = 2, m - 1
      w(i, j) = v(i - 1, j) + v(i + 1, j)
      errmax = max(errmax, abs(w(i, j)))
    end do
  end do
end do
end
)";

TEST(Restructure, ArrayDeclsGetGhostBounds) {
  auto program = build(kStencil, "2x1");
  const auto& src = program->parallel_source;
  // Dimension 0 is cut with distance-1 halos; dimension 1 is uncut.
  EXPECT_NE(src.find("v(acfd_lo1-1:acfd_hi1+1, m)"), std::string::npos)
      << src;
  // Ghost metadata matches.
  const auto& g = program->meta.ghosts.at("v");
  EXPECT_EQ(g.lo, (std::vector<int>{1, 0}));
  EXPECT_EQ(g.hi, (std::vector<int>{1, 0}));
}

TEST(Restructure, UncutDimensionKeepsOriginalBounds) {
  auto program = build(kStencil, "1x2");
  const auto& src = program->parallel_source;
  EXPECT_NE(src.find("v(n, acfd_lo2-"), std::string::npos) << src;
}

TEST(Restructure, LoopBoundsClamped) {
  auto program = build(kStencil, "2x1");
  const auto& src = program->parallel_source;
  EXPECT_NE(src.find("do i = max(1, acfd_lo1), min(n, acfd_hi1)"),
            std::string::npos)
      << src;
  EXPECT_NE(src.find("do i = max(2, acfd_lo1), min(n-1, acfd_hi1)"),
            std::string::npos)
      << src;
  // j loops stay untouched (dimension 1 is not cut).
  EXPECT_NE(src.find("do j = 2, m-1"), std::string::npos) << src;
}

TEST(Restructure, DescendingLoopClampMirrored) {
  auto program = build(
      "!$acfd grid 16 16\n"
      "!$acfd status v\n"
      "program p\n"
      "parameter (n = 16)\n"
      "real v(n, n)\n"
      "integer i, j\n"
      "do i = n - 1, 2, -1\n"
      "  do j = 1, n\n"
      "    v(i, j) = v(i + 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n",
      "4x1");
  EXPECT_NE(program->parallel_source.find(
                "do i = min(n-1, acfd_hi1), max(2, acfd_lo1), -(1)"),
            std::string::npos)
      << program->parallel_source;
}

TEST(Restructure, BoundaryWritesGuarded) {
  auto program = build(
      "!$acfd grid 16 16\n"
      "!$acfd status v\n"
      "program p\n"
      "parameter (n = 16)\n"
      "real v(n, n)\n"
      "integer j\n"
      "do j = 1, n\n"
      "  v(1, j) = 5.0\n"
      "end do\n"
      "end\n",
      "4x1");
  const auto& src = program->parallel_source;
  EXPECT_NE(src.find("if (acfd_lo1 .le. 1 .and. 1 .le. acfd_hi1) then"),
            std::string::npos)
      << src;
}

TEST(Restructure, ReductionGetsAllReduce) {
  auto program = build(kStencil, "2x2");
  const auto& src = program->parallel_source;
  EXPECT_NE(src.find("call mpi_allreduce(errmax, errmax, 1, mpi_real, "
                     "mpi_max, mpi_comm_world, ierr)"),
            std::string::npos)
      << src;
}

TEST(Restructure, HaloExchangeInsertedOncePerCombinedPoint) {
  auto program = build(kStencil, "2x1");
  const auto& src = program->parallel_source;
  std::size_t count = 0, pos = 0;
  while ((pos = src.find("acfd_halo_exchange", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, static_cast<std::size_t>(program->report.syncs_after));
}

TEST(Restructure, MirrorLoopGetsPipelineBrackets) {
  auto program = build(
      "!$acfd grid 24 24\n"
      "!$acfd status v\n"
      "program p\n"
      "parameter (n = 24)\n"
      "real v(n, n)\n"
      "integer i, j, it\n"
      "do it = 1, 3\n"
      "  do i = 2, n - 1\n"
      "    do j = 2, n - 1\n"
      "      v(i, j) = 0.25 * (v(i - 1, j) + v(i + 1, j) &\n"
      "              + v(i, j - 1) + v(i, j + 1))\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n",
      "4x1");
  const auto& src = program->parallel_source;
  const auto start = src.find("acfd_pipeline_recv(dim=0, dir=1)");
  const auto loop = src.find("do i = max(2, acfd_lo1)");
  const auto end = src.find("acfd_pipeline_send(dim=0, dir=1)");
  ASSERT_NE(start, std::string::npos) << src;
  ASSERT_NE(end, std::string::npos);
  EXPECT_LT(start, loop);
  EXPECT_LT(loop, end);
}

TEST(Restructure, RuntimeCommonAddedToEveryUnit) {
  auto program = build(
      "!$acfd grid 16 16\n"
      "!$acfd status v\n"
      "program p\n"
      "real v(16, 16)\n"
      "common /f/ v\n"
      "call fill\n"
      "end\n"
      "subroutine fill\n"
      "real v(16, 16)\n"
      "common /f/ v\n"
      "integer i, j\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v(i, j) = 1.0\n"
      "  end do\n"
      "end do\n"
      "return\n"
      "end\n",
      "2x2");
  const auto& src = program->parallel_source;
  std::size_t count = 0, pos = 0;
  while ((pos = src.find("common /acfdrt/", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);  // once per unit
}

TEST(Restructure, GlobalShapesRecorded) {
  auto program = build(kStencil, "2x2");
  const auto& shapes = program->meta.global_shapes;
  ASSERT_TRUE(shapes.contains("v"));
  EXPECT_EQ(shapes.at("v").element_count(), 24 * 16);
}

TEST(Restructure, MismatchedStatusDimensionIsError) {
  // Status array whose extent disagrees with the grid directive.
  EXPECT_THROW(build(
                   "!$acfd grid 16 16\n"
                   "!$acfd status v\n"
                   "program p\n"
                   "real v(20, 16)\n"
                   "v(1, 1) = 0.0\n"
                   "end\n",
                   "2x1"),
               CompileError);
}

TEST(Restructure, EmittedSourceReparses) {
  for (const auto* part : {"2x1", "4x4"}) {
    auto program = build(kStencil, part);
    DiagnosticEngine diags;
    (void)fortran::parse_source(program->parallel_source, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
  }
}

// ---- scalar privatization ---------------------------------------------------

std::size_t count_allreduces(const std::string& src) {
  std::size_t count = 0, pos = 0;
  while ((pos = src.find("call mpi_allreduce(", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  return count;
}

/// A 2-D program over v and w (grid 16x16) with the given body.
std::string scalar_program(const std::string& decls, const std::string& body) {
  return "!$acfd grid 16 16\n"
         "!$acfd status v w\n"
         "program p\n"
         "real v(16, 16), w(16, 16)\n"
         "real acc, x\n"
         "integer i, j, it\n" +
         decls + body + "end\n";
}

constexpr const char* kAccNest =
    "do i = 2, 15\n"
    "  do j = 1, 16\n"
    "    acc = 0.0\n"
    "    acc = acc + 0.5 * (v(i + 1, j) - v(i - 1, j))\n"
    "    w(i, j) = w(i, j) * 0.98 + 0.01 * acc\n"
    "  end do\n"
    "end do\n";

/// Wraps `inner` in a 16x16 nest.
std::string nest(const std::string& inner) {
  return "do i = 1, 16\n  do j = 1, 16\n" + inner + "  end do\nend do\n";
}

/// The CompileError message of compiling `src` on `part` ("" if none).
std::string compile_error(const std::string& src, const std::string& part) {
  try {
    (void)build(src, part);
  } catch (const CompileError& e) {
    return e.what();
  }
  return "";
}

TEST(Restructure, AllReduceOnlyForTrueReductions) {
  const struct {
    const char* what;
    std::string src;
    std::size_t allreduces;
  } cases[] = {
      {"aerofoil acc shape", scalar_program("", kAccNest), 0},
      {"kill under if",
       scalar_program("", nest("    if (v(i, j) .gt. 0.0) then\n"
                               "      acc = 0.0\n"
                               "    end if\n"
                               "    acc = acc + v(i, j)\n"
                               "    w(i, j) = acc\n")),
       1},
      {"kill after the accumulation",
       scalar_program("", nest("    acc = acc + v(i, j)\n"
                               "    w(i, j) = acc\n"
                               "    acc = 0.0\n")),
       1},
      {"read before the kill",
       scalar_program("", nest("    w(i, j) = acc\n"
                               "    acc = 0.0\n"
                               "    acc = acc + v(i, j)\n")),
       1},
      {"second nest kills acc first",
       scalar_program("", std::string("do it = 1, 2\n") + kAccNest +
                              kAccNest + "end do\n"),
       0},
      {"true max next to a private sum",
       scalar_program("", std::string("x = 0.0\n") + kAccNest +
                              nest("    x = max(x, abs(v(i, j)))\n") +
                              "write(6, *) x\n"),
       1},
  };
  for (const auto& c : cases) {
    for (const auto* part : {"2x2", "4x1"}) {
      auto program = build(c.src, part);
      EXPECT_EQ(count_allreduces(program->parallel_source), c.allreduces)
          << c.what << " " << part << "\n"
          << program->parallel_source;
    }
  }
}

TEST(Restructure, PartialSumOverUncutDimensionNeedsNoCommunication) {
  const auto src = scalar_program("",
                                  "do j = 1, 16\n"
                                  "  acc = 0.0\n"
                                  "  do i = 1, 16\n"
                                  "    acc = acc + v(i, j)\n"
                                  "  end do\n"
                                  "  w(1, j) = acc\n"
                                  "end do\n");
  auto program = build(src, "1x4");
  EXPECT_EQ(count_allreduces(program->parallel_source), 0u);
  // Every rank sums whole columns: the SPMD run matches the sequential
  // one bitwise.
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  auto seq_file = fortran::parse_source(src);
  const auto seq = run_sequential_timed(seq_file, {"v", "w"}, machine);
  const auto par = program->run(machine);
  EXPECT_EQ(par.gathered.at("w"), seq.arrays.at("w"));

  // Cutting the summed dimension would leave each rank a partial sum.
  const auto err = compile_error(src, "4x1");
  EXPECT_NE(err.find("scalar 'acc' of the nest at line 7"), std::string::npos)
      << err;
  EXPECT_NE(err.find("across cut dimension 0"), std::string::npos) << err;
}

TEST(Restructure, PrivateScalarLiveAfterTheNestIsAnError) {
  for (const auto& [decls, after] :
       {std::pair<std::string, std::string>{"common /c/ acc\n", ""},
        std::pair<std::string, std::string>{"", "x = acc\n"}}) {
    const auto err =
        compile_error(scalar_program(decls, kAccNest + after), "2x2");
    EXPECT_NE(err.find("scalar 'acc' of the nest at line " +
                       std::to_string(7 + (decls.empty() ? 0 : 1))),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("live after the nest"), std::string::npos) << err;
  }
}

TEST(SpmdRuntimeStats, MessagesAndBytesAccounted) {
  auto program = build(kStencil, "2x1");
  auto run = program->run(mp::MachineConfig::pentium_ethernet_1999());
  long long msgs = 0, bytes = 0;
  for (const auto& r : run.cluster.ranks) {
    msgs += r.messages_sent;
    bytes += r.bytes_sent;
  }
  EXPECT_GT(msgs, 0);
  EXPECT_GT(bytes, 0);
  EXPECT_GT(run.total_flops, 0.0);
  // 4 frames x 1 sync x 2 directions... at least one message per frame.
  EXPECT_GE(msgs, 8);
}

}  // namespace
}  // namespace autocfd::codegen
