// Bytecode engine: kernel cache behavior, strength reduction, hoisted
// bounds checks, strip execution, and the contiguous halo-packing fast
// path.
//
// Bit-identity of whole programs across engines is covered by the
// randomized sweep in test_random_equivalence.cpp; this file tests the
// engine's own machinery on targeted programs.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "autocfd/codegen/spmd_runtime.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/interp/interpreter.hpp"

namespace autocfd::interp {
namespace {

struct EngineRun {
  fortran::SourceFile file;
  ProgramImage image;
  Env env;
  double flops = 0.0;
  bytecode::EngineStats stats;
};

std::unique_ptr<EngineRun> run_engine(const std::string& source,
                                      EngineKind engine) {
  auto out = std::make_unique<EngineRun>();
  out->file = fortran::parse_source(source);
  DiagnosticEngine diags;
  out->image = ProgramImage::build(out->file, diags);
  throw_if_errors(diags, "image build");
  out->env = Env(out->image);
  out->env.allocate_arrays(out->image, diags);
  throw_if_errors(diags, "array allocation");
  Interpreter interp(out->image, {}, engine);
  interp.run(out->env);
  out->flops = interp.flops();
  out->stats = interp.engine_stats();
  return out;
}

void expect_envs_identical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.flops, b.flops);
  ASSERT_EQ(a.env.scalars.size(), b.env.scalars.size());
  for (std::size_t i = 0; i < a.env.scalars.size(); ++i) {
    ASSERT_EQ(a.env.scalars[i], b.env.scalars[i]) << "scalar " << i;
  }
  ASSERT_EQ(a.env.arrays.size(), b.env.arrays.size());
  for (std::size_t s = 0; s < a.env.arrays.size(); ++s) {
    const auto& av = a.env.arrays[s].data;
    const auto& bv = b.env.arrays[s].data;
    ASSERT_EQ(av.size(), bv.size()) << "array " << s;
    for (std::size_t i = 0; i < av.size(); ++i) {
      ASSERT_EQ(av[i], bv[i]) << "array " << s << "[" << i << "]";
    }
  }
}

/// Runs the same source on both engines and asserts bit-identity;
/// returns the bytecode run (for stats assertions).
std::unique_ptr<EngineRun> run_both(const std::string& source) {
  auto tree = run_engine(source, EngineKind::Tree);
  auto byte_ = run_engine(source, EngineKind::Bytecode);
  expect_envs_identical(*tree, *byte_);
  EXPECT_EQ(tree->stats.kernel_runs, 0);  // tree never runs kernels
  return byte_;
}

TEST(Bytecode, CompilesOnceAndServesRerunsFromTheCache) {
  // The write statement keeps the frame loop on the tree-walker, so
  // the inner field loop is looked up once per frame: compiled on
  // frame 1, cache hits on frames 2..4.
  const auto r = run_both(
      "program t\n"
      "real a(10)\n"
      "integer i, it\n"
      "real s\n"
      "do it = 1, 4\n"
      "  do i = 1, 10\n"
      "    a(i) = a(i) + it\n"
      "  end do\n"
      "  write(6,*) it\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(r->stats.kernels_compiled, 1);
  EXPECT_GE(r->stats.compile_rejects, 1);  // the frame loop
  EXPECT_EQ(r->stats.cache_hits, 3);
  EXPECT_EQ(r->stats.kernel_runs, 4);
  EXPECT_GT(r->stats.instrs_emitted, 0);
}

TEST(Bytecode, StrengthReducesAffineAndInvariantSubscripts) {
  // a(i+1)/a(i-1) are affine in i; b(j, k) has an invariant dim (k is
  // loop-invariant inside the j loop). All should become walks.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 12)\n"
      "real a(n), b(n, 3)\n"
      "integer i, j, k\n"
      "do i = 1, n\n"
      "  a(i) = 0.1 * i\n"
      "end do\n"
      "do i = 2, n - 1\n"
      "  a(i) = 0.5 * (a(i - 1) + a(i + 1))\n"
      "end do\n"
      "k = 2\n"
      "do j = 1, n\n"
      "  b(j, k) = a(j) * 2.0\n"
      "end do\n"
      "end\n");
  EXPECT_GE(r->stats.walks_reduced, 5);
  EXPECT_EQ(r->stats.compile_rejects, 0);
}

TEST(Bytecode, GuardedAccessesKeepPerIterationChecks) {
  // a(i+1) under the guard would be out of bounds on the final
  // iteration if its bounds check were hoisted to loop entry; the
  // engine must leave if-guarded references on the general path.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 8)\n"
      "real a(n)\n"
      "integer i\n"
      "do i = 1, n\n"
      "  a(i) = i\n"
      "end do\n"
      "do i = 1, n\n"
      "  if (i .lt. n) then\n"
      "    a(i) = a(i + 1)\n"
      "  end if\n"
      "end do\n"
      "end\n");
  EXPECT_GE(r->stats.kernels_compiled, 2);
}

TEST(Bytecode, ZeroTripLoopSkipsHoistedChecks) {
  // The loop body would index far out of bounds, but a zero-trip loop
  // must not fault — on either engine the hoisted check never runs.
  const auto r = run_both(
      "program t\n"
      "real a(5)\n"
      "integer i\n"
      "do i = 10, 1\n"
      "  a(i + 100) = 1.0\n"
      "end do\n"
      "end\n");
  EXPECT_GE(r->stats.kernels_compiled, 1);
}

TEST(Bytecode, EarlyReturnDisablesReductionButStaysCorrect) {
  const auto r = run_both(
      "program t\n"
      "real a(6)\n"
      "integer i\n"
      "real s\n"
      "s = 0.0\n"
      "do i = 1, 6\n"
      "  a(i) = i\n"
      "  s = s + a(i)\n"
      "  if (i .gt. 3) then\n"
      "    return\n"
      "  end if\n"
      "end do\n"
      "end\n");
  // RETURN anywhere in the body bans hoisting for that loop.
  EXPECT_EQ(r->stats.walks_reduced, 0);
}

TEST(Bytecode, StandaloneAssignmentsCompileToo) {
  const auto r = run_both(
      "program t\n"
      "real x, y\n"
      "x = 2.0\n"
      "y = x ** 3 + sqrt(x)\n"
      "end\n");
  EXPECT_GE(r->stats.stmts_compiled, 2);
}

TEST(Bytecode, OutOfBoundsReportsTheSameMessageAsTheTree) {
  const std::string source =
      "program t\n"
      "real a(5)\n"
      "integer i\n"
      "do i = 1, 5\n"
      "  a(i + 1) = 1.0\n"
      "end do\n"
      "end\n";
  std::string tree_msg;
  std::string byte_msg;
  try {
    (void)run_engine(source, EngineKind::Tree);
  } catch (const CompileError& e) {
    tree_msg = e.what();
  }
  try {
    (void)run_engine(source, EngineKind::Bytecode);
  } catch (const CompileError& e) {
    byte_msg = e.what();
  }
  // The tree faults on the last iteration, the bytecode engine at loop
  // entry (the check is hoisted) — but with the identical message.
  EXPECT_FALSE(tree_msg.empty());
  EXPECT_EQ(tree_msg, byte_msg);
  EXPECT_NE(tree_msg.find("array subscript out of bounds"), std::string::npos);
}

TEST(Bytecode, ZeroStepReportsTheSameMessageAsTheTree) {
  const std::string source =
      "program t\n"
      "integer i\n"
      "real s\n"
      "s = 0.0\n"
      "do i = 1, 5, 0\n"
      "  s = s + 1.0\n"
      "end do\n"
      "end\n";
  for (const auto engine : {EngineKind::Tree, EngineKind::Bytecode}) {
    try {
      (void)run_engine(source, engine);
      FAIL() << "zero step must throw";
    } catch (const CompileError& e) {
      EXPECT_STREQ(e.what(), "do loop with zero step");
    }
  }
}

// --- Strip execution ---------------------------------------------------------

/// Error message (empty when the run completes) and engine counters of
/// one run that may throw.
struct Outcome {
  std::string error;
  bytecode::EngineStats stats;
};

Outcome run_outcome(const std::string& source, EngineKind engine) {
  auto file = fortran::parse_source(source);
  DiagnosticEngine diags;
  auto image = ProgramImage::build(file, diags);
  throw_if_errors(diags, "image build");
  Env env(image);
  env.allocate_arrays(image, diags);
  throw_if_errors(diags, "array allocation");
  Interpreter interp(image, {}, engine);
  Outcome out;
  try {
    interp.run(env);
  } catch (const CompileError& e) {
    out.error = e.what();
  }
  out.stats = interp.engine_stats();
  return out;
}

TEST(BytecodeStrip, KilledTemporaryAndDoVariableSurviveTheLoop) {
  // t is written before it is read in every iteration, so it becomes a
  // lane temporary; its last value and i's final value are read after
  // the loop.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 100)\n"
      "real a(n), b(n)\n"
      "integer i\n"
      "real t, last\n"
      "do i = 1, n\n"
      "  a(i) = 0.5 * i\n"
      "end do\n"
      "do i = 2, n - 1\n"
      "  t = a(i - 1) + a(i + 1)\n"
      "  b(i) = t * 0.5 - a(i)\n"
      "  t = t * 3.0\n"
      "end do\n"
      "last = i + t\n"
      "end\n");
  EXPECT_EQ(r->stats.strip_loops, 2);
  EXPECT_EQ(r->stats.strip_fallbacks, 0);
}

TEST(BytecodeStrip, ShiftedSelfReadFallsBack) {
  // a(i-1) is a(i) of the previous iteration: running a(i)'s statement
  // across a strip would read stale values.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 100)\n"
      "real a(n), b(n)\n"
      "integer i\n"
      "do i = 1, n\n"
      "  a(i) = 1.0\n"
      "  b(i) = 0.01 * i\n"
      "end do\n"
      "do i = 2, n\n"
      "  a(i) = a(i - 1) + b(i)\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(r->stats.strip_loops, 2);
  EXPECT_EQ(r->stats.strip_fallbacks, 1);
}

TEST(BytecodeStrip, BackwardSweepWithForwardReadFallsBack) {
  const auto r = run_both(
      "program t\n"
      "parameter (n = 90)\n"
      "real a(n)\n"
      "integer i\n"
      "do i = 1, n\n"
      "  a(i) = 0.1 * i\n"
      "end do\n"
      "do i = n - 1, 1, -1\n"
      "  a(i) = 0.5 * a(i + 1) + 1.0\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(r->stats.strip_fallbacks, 1);
}

TEST(BytecodeStrip, StrideZeroAccumulatorFallsBack) {
  // s(1) = s(1) + ... is the same element in every iteration: its load
  // and store walks are identical, but a zero stride carries the value
  // across iterations, so the identical-walk exemption must not apply.
  // A lone zero-stride store (s(2)) keeps the strip path: lanes store
  // in order, so the last iteration's value wins, as per element.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 70)\n"
      "real a(n), s(2)\n"
      "integer i\n"
      "do i = 1, n\n"
      "  a(i) = 0.3 * i\n"
      "end do\n"
      "s(1) = 0.0\n"
      "do i = 1, n\n"
      "  s(1) = s(1) + a(i)\n"
      "end do\n"
      "do i = 1, n\n"
      "  s(2) = a(i) * 2.0\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(r->stats.strip_loops, 3);
  EXPECT_EQ(r->stats.strip_fallbacks, 1);
}

TEST(BytecodeStrip, LoopCarriedScalarStaysPerElement) {
  const auto r = run_both(
      "program t\n"
      "parameter (n = 70)\n"
      "real a(n)\n"
      "integer i\n"
      "real s\n"
      "do i = 1, n\n"
      "  a(i) = 0.3 * i\n"
      "end do\n"
      "s = 0.0\n"
      "do i = 1, n\n"
      "  s = s + a(i)\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(r->stats.strip_loops, 1);  // only the initialization loop
  EXPECT_EQ(r->stats.strip_fallbacks, 0);
}

TEST(BytecodeStrip, TripCountsAndStepsAroundTheStripWidth) {
  for (const long long count : {1LL, 63LL, 64LL, 65LL, 129LL}) {
    for (const long long step : {1LL, -1LL, 2LL, -3LL}) {
      const long long span = (count - 1) * (step > 0 ? step : -step);
      const long long lo = step > 0 ? 2 : 2 + span;
      const long long hi = step > 0 ? 2 + span : 2;
      const std::string source =
          "program t\n"
          "parameter (n = 400)\n"
          "real a(n), b(n), c(n, 2)\n"
          "integer i\n"
          "real t\n"
          "do i = 1, n\n"
          "  b(i) = 0.25 * i\n"
          "end do\n"
          "do i = " + std::to_string(lo) + ", " + std::to_string(hi) + ", " +
          std::to_string(step) + "\n"
          "  t = b(i + 1) - b(i - 1)\n"
          "  a(i) = t * i + b(i)\n"
          "  c(i, 2) = a(i) - t\n"
          "end do\n"
          "end\n";
      SCOPED_TRACE("count " + std::to_string(count) + " step " +
                   std::to_string(step));
      const auto r = run_both(source);
      EXPECT_EQ(r->stats.strip_loops, 2);
      EXPECT_EQ(r->stats.strip_fallbacks, 0);
    }
  }
}

TEST(BytecodeStrip, IntrinsicsPowersAndComparisonsInAStrip) {
  const auto r = run_both(
      "program t\n"
      "parameter (n = 150)\n"
      "real b(n), c(n), d(n)\n"
      "integer i\n"
      "do i = 1, n\n"
      "  b(i) = 0.07 * i - 3.0\n"
      "end do\n"
      "do i = 1, n\n"
      "  c(i) = sqrt(abs(b(i))) + max(b(i), 2.0, 0.01 * i) + "
      "min(b(i), -1.0)\n"
      "  c(i) = c(i) + mod(b(i), 0.7) + sign(1.5, b(i)) + "
      "atan2(b(i), 2.0)\n"
      "  c(i) = c(i) + exp(0.01 * b(i)) + int(b(i)) + nint(b(i)) + "
      "cos(b(i))\n"
      "  d(i) = b(i) ** 2 + abs(b(i)) ** 2.5 + (-b(i)) ** 3 + 2.0 ** i\n"
      "  d(i) = d(i) + (b(i) .gt. 0.5) - (b(i) .le. -1.0) + "
      "(i .eq. 7) + (i .ne. 9)\n"
      "  d(i) = d(i) + (b(i) .lt. 1.0) + (b(i) .ge. 2.0) + "
      "(.not. (i .gt. 60))\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(r->stats.strip_loops, 2);
  EXPECT_EQ(r->stats.strip_fallbacks, 0);
}

TEST(BytecodeStrip, NonFiniteStoresReportTheFirstFailureInExecutionOrder) {
  // Two statements diverge at different iterations (some in the first
  // strip, some in the second, one on a strip's first lane): the
  // message must name the first (iteration, statement) the tree-walker
  // reaches, not the first statement the strip checks.
  const int pairs[][2] = {{50, 30}, {30, 50}, {40, 40}, {100, 120},
                          {120, 65}, {65, 66}, {1, 2}, {2, 1}};
  for (const auto& [first, second] : pairs) {
    const std::string source =
        "program t\n"
        "parameter (n = 150)\n"
        "real a(n), b(n)\n"
        "integer i\n"
        "do i = 1, n\n"
        "  a(i) = 1.0 / (i - " + std::to_string(first) + ")\n"
        "  b(i) = -1.0 / (i - " + std::to_string(second) + ")\n"
        "end do\n"
        "end\n";
    SCOPED_TRACE("a fails at " + std::to_string(first) + ", b at " +
                 std::to_string(second));
    const auto tree = run_outcome(source, EngineKind::Tree);
    const auto byte_ = run_outcome(source, EngineKind::Bytecode);
    EXPECT_NE(tree.error.find("non-finite"), std::string::npos);
    EXPECT_EQ(tree.error, byte_.error);
    EXPECT_EQ(byte_.stats.strip_loops, 1);
    EXPECT_EQ(byte_.stats.strip_fallbacks, 0);
  }
}

// --- Contiguous halo packing ------------------------------------------------

ArrayValue make_array(std::vector<long long> lower,
                      std::vector<long long> extent) {
  ArrayValue av;
  av.lower = std::move(lower);
  av.extent = std::move(extent);
  long long total = 1;
  for (const auto e : av.extent) total *= e;
  av.data.resize(static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < av.data.size(); ++i) {
    av.data[i] = static_cast<double>(i) + 0.5;
  }
  return av;
}

/// Reference: the old element-by-element column-major slab walk.
std::vector<double> slab_by_walk(const ArrayValue& av, int dim,
                                 long long d_lo, long long d_hi) {
  const int rank = av.rank();
  std::vector<long long> lo(static_cast<std::size_t>(rank));
  std::vector<long long> hi(static_cast<std::size_t>(rank));
  for (int d = 0; d < rank; ++d) {
    const auto du = static_cast<std::size_t>(d);
    lo[du] = d == dim ? d_lo : av.lower[du];
    hi[du] = d == dim ? d_hi : av.upper(d);
  }
  std::vector<double> out;
  std::vector<long long> idx = lo;
  while (true) {
    out.push_back(av.data[static_cast<std::size_t>(av.index(idx))]);
    int d = 0;
    while (d < rank) {
      const auto du = static_cast<std::size_t>(d);
      if (++idx[du] <= hi[du]) break;
      idx[du] = lo[du];
      ++d;
    }
    if (d == rank) break;
  }
  return out;
}

TEST(PackSlab, MatchesTheElementWalkOnEveryDimension) {
  const auto av = make_array({0, 1, -2}, {5, 4, 3});
  for (int dim = 0; dim < 3; ++dim) {
    const long long lo = av.lower[static_cast<std::size_t>(dim)];
    for (long long d_lo = lo; d_lo <= av.upper(dim); ++d_lo) {
      for (long long d_hi = d_lo; d_hi <= av.upper(dim); ++d_hi) {
        std::vector<double> packed;
        codegen::pack_slab(av, dim, d_lo, d_hi, packed);
        EXPECT_EQ(packed, slab_by_walk(av, dim, d_lo, d_hi))
            << "dim " << dim << " [" << d_lo << ", " << d_hi << "]";
      }
    }
  }
}

TEST(PackSlab, UnpackRoundTripsAndAdvancesThePosition) {
  auto av = make_array({1, 1}, {6, 5});
  std::vector<double> packed;
  codegen::pack_slab(av, 0, 2, 3, packed);
  codegen::pack_slab(av, 1, 5, 5, packed);

  auto restored = make_array({1, 1}, {6, 5});
  for (auto& v : restored.data) v = -1.0;
  std::size_t pos = 0;
  codegen::unpack_slab(restored, 0, 2, 3, packed, pos);
  codegen::unpack_slab(restored, 1, 5, 5, packed, pos);
  EXPECT_EQ(pos, packed.size());
  EXPECT_EQ(restored.data != av.data, true);  // untouched cells stay -1
  // Every cell of the packed slabs round-tripped exactly.
  const auto a = slab_by_walk(av, 0, 2, 3);
  const auto b = slab_by_walk(restored, 0, 2, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(slab_by_walk(av, 1, 5, 5), slab_by_walk(restored, 1, 5, 5));
}

TEST(PackSlab, UnpackThrowsOnShortInbox) {
  auto av = make_array({1, 1}, {4, 4});
  const std::vector<double> in(3, 0.0);  // slab needs 4
  std::size_t pos = 0;
  EXPECT_THROW(codegen::unpack_slab(av, 0, 2, 2, in, pos), CompileError);
}

TEST(PackSlab, OutOfRangeSlabReportsLikeAnArrayIndex) {
  const auto av = make_array({1, 1}, {4, 4});
  std::vector<double> out;
  try {
    codegen::pack_slab(av, 0, 4, 5, out);
    FAIL() << "slab beyond the upper bound must throw";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("array subscript out of bounds"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace autocfd::interp
