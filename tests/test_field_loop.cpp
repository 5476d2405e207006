#include <gtest/gtest.h>

#include <algorithm>

#include "autocfd/fortran/parser.hpp"
#include "autocfd/ir/field_loop.hpp"

namespace autocfd::ir {
namespace {

using fortran::parse_source;

FieldConfig config2d() {
  FieldConfig c;
  c.grid_rank = 2;
  c.status_arrays = {"v", "w", "q"};
  return c;
}

std::vector<FieldLoop> analyze(const fortran::SourceFile& file,
                               const FieldConfig& cfg) {
  DiagnosticEngine diags;
  auto loops = analyze_field_loops(file.units[0], cfg, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  return loops;
}

// Figure 1 of the paper: the four loop types.
TEST(FieldLoop, Figure1ATypeAssignmentOnly) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8)\n"
      "integer i, j\n"
      "do i = 1, 8\n"
      "  do j = 1, 8\n"
      "    v(i, j) = 1.0\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].type_for("v"), LoopType::A);
  EXPECT_EQ(loops[0].type_for("w"), LoopType::O);
}

TEST(FieldLoop, Figure1RTypeReferenceOnly) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8), w(8, 8)\n"
      "integer i, j\n"
      "do i = 2, 7\n"
      "  do j = 2, 7\n"
      "    w(i, j) = v(i - 1, j) + v(i + 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].type_for("v"), LoopType::R);
  EXPECT_EQ(loops[0].type_for("w"), LoopType::A);
}

TEST(FieldLoop, Figure1CTypeCombined) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8)\n"
      "integer i, j\n"
      "do i = 2, 7\n"
      "  do j = 2, 7\n"
      "    v(i, j) = 0.25 * (v(i - 1, j) + v(i + 1, j))\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].type_for("v"), LoopType::C);
}

TEST(FieldLoop, Figure1OTypeUnrelated) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8), t(8, 8)\n"
      "integer i, j\n"
      "do i = 1, 8\n"
      "  do j = 1, 8\n"
      "    t(i, j) = 0.0\n"
      "  end do\n"
      "end do\n"
      "end\n");
  FieldConfig cfg = config2d();  // t is not a status array
  const auto loops = analyze(file, cfg);
  // The nest writes no status array: no variable indexes a status
  // dimension, so it is not a field loop at all.
  EXPECT_TRUE(loops.empty());
}

TEST(FieldLoop, VarDimBinding) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8)\n"
      "integer i, j\n"
      "do j = 1, 8\n"
      "  do i = 1, 8\n"
      "    v(i, j) = 0.0\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].var_dims.at("i"), 0);
  EXPECT_EQ(loops[0].var_dims.at("j"), 1);
  const auto dims = loops[0].scanned_dims();
  EXPECT_EQ(dims, (std::vector<int>{0, 1}));
}

TEST(FieldLoop, FrameLoopIsNotFieldLoop) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8)\n"
      "integer i, j, it\n"
      "do it = 1, 100\n"
      "  do i = 1, 8\n"
      "    do j = 1, 8\n"
      "      v(i, j) = v(i, j) + 1.0\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  // Root of the field nest is the i loop, not the it frame loop.
  EXPECT_EQ(loops[0].loop->do_var, "i");
  EXPECT_FALSE(loops[0].var_dims.contains("it"));
}

TEST(FieldLoop, StencilOffsetsExtracted) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8), w(8, 8)\n"
      "integer i, j\n"
      "do i = 2, 7\n"
      "  do j = 2, 7\n"
      "    w(i, j) = v(i - 2, j) + v(i, j + 1)\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  const auto& reads = loops[0].arrays.at("v").reads;
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].subs[0].kind, SubscriptPattern::Kind::LoopIndex);
  EXPECT_EQ(reads[0].subs[0].offset, -2);  // dependency distance 2 (case 5)
  EXPECT_EQ(reads[0].subs[1].offset, 0);
  EXPECT_EQ(reads[1].subs[1].offset, 1);
}

TEST(FieldLoop, BoundaryLoopHasInvariantSubscript) {
  // Paper case 3: boundary code sections fix one dimension.
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8)\n"
      "integer j\n"
      "do j = 1, 8\n"
      "  v(1, j) = 0.0\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  const auto& w = loops[0].arrays.at("v").writes[0];
  EXPECT_EQ(w.subs[0].kind, SubscriptPattern::Kind::Invariant);
  EXPECT_EQ(w.subs[0].const_value, 1);
  EXPECT_EQ(w.subs[1].kind, SubscriptPattern::Kind::LoopIndex);
}

TEST(FieldLoop, PackedArrayExtendedDims) {
  // Paper case 4: q(i, j, m) with grid rank 2 — m is an extended dim.
  const auto file = parse_source(
      "program p\n"
      "real q(8, 8, 5)\n"
      "integer i, j, m\n"
      "do m = 1, 5\n"
      "  do i = 1, 8\n"
      "    do j = 1, 8\n"
      "      q(i, j, m) = 0.0\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  // m drives no grid dimension, so the nest root is the i loop and the
  // m subscript stays non-grid.
  EXPECT_EQ(loops[0].loop->do_var, "i");
  EXPECT_FALSE(loops[0].var_dims.contains("m"));
}

TEST(FieldLoop, DescendingLoopDirection) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8)\n"
      "integer i, j\n"
      "do i = 7, 2, -1\n"
      "  do j = 2, 7\n"
      "    v(i, j) = v(i + 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].dir_of_dim(0), -1);
  EXPECT_EQ(loops[0].dir_of_dim(1), +1);
}

TEST(FieldLoop, ReductionDetected) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8)\n"
      "real errmax, s\n"
      "integer i, j\n"
      "do i = 1, 8\n"
      "  do j = 1, 8\n"
      "    errmax = max(errmax, abs(v(i, j)))\n"
      "    s = s + v(i, j)\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  ASSERT_EQ(loops[0].reductions.size(), 2u);
  EXPECT_EQ(loops[0].reductions[0].var, "errmax");
  EXPECT_EQ(loops[0].reductions[0].op, "max");
  EXPECT_EQ(loops[0].reductions[1].var, "s");
  EXPECT_EQ(loops[0].reductions[1].op, "sum");
}

// ---- scalar privatization ---------------------------------------------------

/// A 2-D program: `decls` after the arrays, then `body`.
fortran::SourceFile scalar_program(const std::string& decls,
                                   const std::string& body) {
  return parse_source("program p\n"
                      "real v(8, 8), w(8, 8)\n"
                      "real acc, x\n"
                      "integer i, j, it\n" +
                      decls + body + "end\n");
}

/// Source line of the `n`-th line of `body` (line 1 is `program p`,
/// three declaration lines and `decls` follow).
int body_line(const std::string& decls, int n) {
  return 4 + static_cast<int>(std::count(decls.begin(), decls.end(), '\n')) +
         n;
}

constexpr const char* kAccNest =
    "do i = 2, 7\n"
    "  do j = 1, 8\n"
    "    acc = 0.0\n"
    "    acc = acc + 0.5 * (v(i + 1, j) - v(i - 1, j))\n"
    "    acc = acc + 0.5 * w(i, j)\n"
    "    w(i, j) = w(i, j) * 0.98 + 0.01 * acc\n"
    "  end do\n"
    "end do\n";

TEST(FieldLoop, AccumulatorKilledEachIterationIsPrivate) {
  const auto file = scalar_program("", kAccNest);
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  ASSERT_EQ(loops[0].reductions.size(), 2u);
  for (const auto& red : loops[0].reductions) {
    EXPECT_EQ(red.var, "acc");
    ASSERT_NE(red.kill, nullptr);
    EXPECT_EQ(red.kill->loc.line, body_line("", 3));
    EXPECT_TRUE(red.partial_loops.empty());
    EXPECT_FALSE(red.live_after);
  }
}

TEST(FieldLoop, KillThatDoesNotPrecedeEveryReadLeavesAReduction) {
  const std::pair<const char*, const char*> cases[] = {
      {"kill under if",
       "    if (v(i, j) .gt. 0.0) then\n"
       "      acc = 0.0\n"
       "    end if\n"
       "    acc = acc + v(i, j)\n"
       "    w(i, j) = acc\n"},
      {"kill after the accumulation",
       "    acc = acc + v(i, j)\n"
       "    w(i, j) = acc\n"
       "    acc = 0.0\n"},
      {"read before the kill",
       "    w(i, j) = acc\n"
       "    acc = 0.0\n"
       "    acc = acc + v(i, j)\n"},
  };
  for (const auto& [what, inner] : cases) {
    const auto file = scalar_program(
        "", std::string("do i = 1, 8\n  do j = 1, 8\n") + inner +
                "  end do\nend do\n");
    const auto loops = analyze(file, config2d());
    ASSERT_EQ(loops.size(), 1u) << what;
    ASSERT_EQ(loops[0].reductions.size(), 1u) << what;
    EXPECT_EQ(loops[0].reductions[0].kill, nullptr) << what;
  }
}

TEST(FieldLoop, KillInOuterLoopRecordsThePartialLoops) {
  const auto file = scalar_program("",
                                   "do j = 1, 8\n"
                                   "  acc = 0.0\n"
                                   "  do i = 1, 8\n"
                                   "    acc = acc + v(i, j)\n"
                                   "  end do\n"
                                   "  w(1, j) = acc\n"
                                   "end do\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 1u);
  ASSERT_EQ(loops[0].reductions.size(), 1u);
  const auto& red = loops[0].reductions[0];
  ASSERT_NE(red.kill, nullptr);
  EXPECT_EQ(red.kill->loc.line, body_line("", 2));
  ASSERT_EQ(red.partial_loops.size(), 1u);
  EXPECT_EQ(red.partial_loops[0]->do_var, "i");
  EXPECT_FALSE(red.live_after);
}

TEST(FieldLoop, PrivateScalarLivenessAfterTheNest) {
  const struct {
    const char* what;
    std::string decls;
    std::string body;
    bool live;
  } cases[] = {
      {"in common", "common /c/ acc\n", kAccNest, true},
      {"read after the nest", "", std::string(kAccNest) + "x = acc\n", true},
      {"read at the top of the frame loop",
       "", std::string("do it = 1, 2\n  x = acc\n") + kAccNest + "end do\n",
       true},
      {"later nest kills it first", "",
       std::string("do it = 1, 2\n") + kAccNest + kAccNest + "end do\n",
       false},
      {"goto after the nest", "",
       std::string(kAccNest) + "goto 10\n10 continue\n", true},
  };
  for (const auto& c : cases) {
    const auto file = scalar_program(c.decls, c.body);
    const auto loops = analyze(file, config2d());
    ASSERT_FALSE(loops.empty()) << c.what;
    for (const auto& fl : loops) {
      for (const auto& red : fl.reductions) {
        ASSERT_NE(red.kill, nullptr) << c.what;
        EXPECT_EQ(red.live_after, c.live) << c.what;
      }
    }
  }
}

TEST(FieldLoop, MultipleAdjacentFieldLoops) {
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8), w(8, 8)\n"
      "integer i, j\n"
      "do i = 1, 8\n"
      "  do j = 1, 8\n"
      "    v(i, j) = 0.0\n"
      "  end do\n"
      "end do\n"
      "do i = 2, 7\n"
      "  do j = 2, 7\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].type_for("v"), LoopType::A);
  EXPECT_EQ(loops[1].type_for("v"), LoopType::R);
  EXPECT_EQ(loops[1].type_for("w"), LoopType::A);
}

TEST(FieldLoop, DirectionLimitedReference) {
  // Paper case 2: references only in one direction of one dimension.
  const auto file = parse_source(
      "program p\n"
      "real v(8, 8), w(8, 8)\n"
      "integer i, j\n"
      "do i = 2, 7\n"
      "  do j = 2, 7\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto loops = analyze(file, config2d());
  const auto& reads = loops[0].arrays.at("v").reads;
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].subs[0].offset, -1);
  EXPECT_EQ(reads[0].subs[1].offset, 0);  // no j-direction dependence
}

TEST(SubscriptPatternTest, ComplexSubscript) {
  const auto file = parse_source(
      "program p\n"
      "real v(8), g(8)\n"
      "integer i\n"
      "real x\n"
      "do i = 1, 8\n"
      "  x = v(i) + v(2 * i)\n"
      "end do\n"
      "end\n");
  FieldConfig cfg;
  cfg.grid_rank = 1;
  cfg.status_arrays = {"v"};
  DiagnosticEngine diags;
  const auto loops = analyze_field_loops(file.units[0], cfg, diags);
  ASSERT_EQ(loops.size(), 1u);
  const auto& reads = loops[0].arrays.at("v").reads;
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].subs[0].kind, SubscriptPattern::Kind::LoopIndex);
  EXPECT_EQ(reads[1].subs[0].kind, SubscriptPattern::Kind::Complex);
}

}  // namespace
}  // namespace autocfd::ir
