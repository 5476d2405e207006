#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "autocfd/fortran/parser.hpp"
#include "autocfd/sync/sync_plan.hpp"

namespace autocfd::sync {
namespace {

// Full front-half pipeline: parse -> field loops -> trace -> deps ->
// inlined program -> sync plan.
struct Fixture {
  fortran::SourceFile file;
  std::map<std::string, std::vector<ir::FieldLoop>> loops;
  depend::ProgramTrace trace;
  depend::DependenceSet deps;
  InlinedProgram prog;
  partition::PartitionSpec spec;
  DiagnosticEngine diags;

  Fixture(const std::string& src, ir::FieldConfig cfg,
          partition::PartitionSpec s)
      : spec(std::move(s)) {
    file = fortran::parse_source(src);
    for (const auto& unit : file.units) {
      loops[unit.name] = ir::analyze_field_loops(unit, cfg, diags);
    }
    trace = depend::ProgramTrace::build(file, loops, diags);
    deps = depend::analyze_dependences(trace, spec, diags);
    prog = InlinedProgram::build(file, trace, spec, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
  }

  SyncPlan plan(CombineStrategy strategy = CombineStrategy::Min,
                obs::ObsContext* obs = nullptr) {
    return plan_synchronization(prog, deps, spec, strategy, obs);
  }
};

ir::FieldConfig cfg2(std::vector<std::string> arrays) {
  ir::FieldConfig c;
  c.grid_rank = 2;
  c.status_arrays = std::move(arrays);
  return c;
}

// ---------------------------------------------------------------------------
// Figure 5: starting-point hoisting out of non-simple loops
// ---------------------------------------------------------------------------

TEST(SyncRegions, Figure5StartHoistsOutOfLoopsWithoutReaders) {
  // Writer nest buried under an extra (non-field) loop level; reader at
  // the top level. The start point must move out of the extra loop.
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "integer i, j, rep\n"
      "do rep = 1, 3\n"
      "  do i = 1, 16\n"
      "    do j = 1, 16\n"
      "      v(i, j) = 1.0\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j) + v(i + 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.regions.size(), 1u);
  const auto& region = plan.regions[0];
  ASSERT_TRUE(region.valid());
  // Every slot must be at the main top level (loop_depth 0): hoisted
  // out of the rep loop, and slots inside the reader nest excluded.
  for (const int s : region.slots) {
    EXPECT_EQ(f.prog.slot(s).loop_depth, 0) << "slot " << s;
  }
  // Exactly the two gaps between the rep loop and the reader loop:
  // (after rep-loop) and ... the reader loop follows immediately, so 1.
  EXPECT_EQ(region.slots.size(), 1u);
}

TEST(SyncRegions, StartPinnedInsideLoopWithReader) {
  // Writer and reader inside the same frame loop: the region must stay
  // inside (the reader re-executes every iteration).
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "integer i, j, it\n"
      "real x\n"
      "do it = 1, 10\n"
      "  do i = 1, 16\n"
      "    do j = 1, 16\n"
      "      v(i, j) = 1.0\n"
      "    end do\n"
      "  end do\n"
      "  x = 0.0\n"
      "  do i = 2, 15\n"
      "    do j = 2, 15\n"
      "      w(i, j) = v(i - 1, j)\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.regions.size(), 1u);
  const auto& region = plan.regions[0];
  // Region: after writer nest, after x=0, before reader nest -> the
  // two slots around the scalar statement, inside the frame loop.
  EXPECT_EQ(region.slots.size(), 2u);
  for (const int s : region.slots) {
    EXPECT_EQ(f.prog.slot(s).loop_depth, 1);
  }
}

// ---------------------------------------------------------------------------
// Figure 6: combining strategies, minimal (2) vs pairwise (3)
// ---------------------------------------------------------------------------

class Figure6 : public ::testing::Test {
 protected:
  // A program whose main body provides >= 23 top-level slots.
  Figure6()
      : f_([] {
          std::string src = "program p\nreal x\n";
          for (int i = 0; i < 25; ++i) src += "x = x + 1.0\n";
          src += "end\n";
          return src;
        }(),
           cfg2({}), partition::PartitionSpec{{2, 1}}) {}

  static SyncRegion make_region(int lo, int hi) {
    SyncRegion r;
    for (int s = lo; s <= hi; ++s) r.slots.push_back(s);
    return r;
  }

  Fixture f_;
};

TEST_F(Figure6, MinimalCombiningFindsTwoRegions) {
  // Six upper-bound regions shaped like the paper's Figure 6.
  std::vector<SyncRegion> regions;
  regions.push_back(make_region(0, 10));
  regions.push_back(make_region(1, 9));
  regions.push_back(make_region(2, 14));
  regions.push_back(make_region(12, 20));
  regions.push_back(make_region(13, 19));
  regions.push_back(make_region(14, 18));

  const auto min_points = combine_min(f_.prog, regions);
  EXPECT_EQ(min_points.size(), 2u);  // Figure 6(b)
  EXPECT_EQ(min_points[0].members.size(), 3u);
  EXPECT_EQ(min_points[1].members.size(), 3u);

  const auto naive_points = combine_pairwise(f_.prog, regions);
  EXPECT_EQ(naive_points.size(), 3u);  // Figure 6(c)
}

TEST_F(Figure6, CombinedPointLiesInEveryMemberRegion) {
  std::vector<SyncRegion> regions;
  regions.push_back(make_region(0, 10));
  regions.push_back(make_region(4, 14));
  regions.push_back(make_region(8, 20));
  const auto points = combine_min(f_.prog, regions);
  ASSERT_EQ(points.size(), 1u);
  for (const auto* m : points[0].members) {
    EXPECT_NE(std::find(m->slots.begin(), m->slots.end(),
                        points[0].chosen_slot),
              m->slots.end());
  }
  // Intersection of [0,10],[4,14],[8,20] is [8,10].
  EXPECT_EQ(points[0].intersection.front(), 8);
  EXPECT_EQ(points[0].intersection.back(), 10);
}

TEST_F(Figure6, DisjointRegionsStaySeparate) {
  std::vector<SyncRegion> regions;
  regions.push_back(make_region(0, 3));
  regions.push_back(make_region(5, 8));
  regions.push_back(make_region(10, 13));
  EXPECT_EQ(combine_min(f_.prog, regions).size(), 3u);
}

// ---------------------------------------------------------------------------
// Figure 7: branch structures
// ---------------------------------------------------------------------------

TEST(SyncBranches, Figure7aRegionEndsBeforeGoto) {
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "integer i, j\n"
      "real x\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v(i, j) = 1.0\n"
      "  end do\n"
      "end do\n"
      "x = 1.0\n"
      "goto 50\n"
      "x = 2.0\n"
      "50 continue\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.regions.size(), 1u);
  // Slots: after writer (index 1) and after x=1.0 (index 2); the goto
  // (index 3 in main body) ends the region.
  const auto& slots = plan.regions[0].slots;
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(f.prog.slot(slots.back()).index, 2);
}

TEST(SyncBranches, Figure7bRegionEndsBeforeBranchWithReader) {
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "integer i, j\n"
      "real x\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v(i, j) = 1.0\n"
      "  end do\n"
      "end do\n"
      "x = 1.0\n"
      "if (x .gt. 0.0) then\n"
      "  do i = 2, 15\n"
      "    do j = 2, 15\n"
      "      w(i, j) = v(i - 1, j)\n"
      "    end do\n"
      "  end do\n"
      "end if\n"
      "x = 2.0\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.regions.size(), 1u);
  const auto& slots = plan.regions[0].slots;
  // Region: after writer, after x=1.0 — ends before the if (rule 2).
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(f.prog.slot(slots.back()).index, 2);
}

TEST(SyncBranches, Figure7cRegionSkipsBranchWithoutReader) {
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "integer i, j\n"
      "real x\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v(i, j) = 1.0\n"
      "  end do\n"
      "end do\n"
      "if (x .gt. 0.0) then\n"
      "  x = 2.0\n"
      "else\n"
      "  x = 3.0\n"
      "end if\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.regions.size(), 1u);
  const auto& slots = plan.regions[0].slots;
  // Slots before and after the if, but none inside its branches.
  EXPECT_EQ(slots.size(), 2u);
  for (const int s : slots) {
    EXPECT_EQ(f.prog.slot(s).loop_depth, 0);
  }
}

TEST(SyncBranches, Figure7dStartHoistsOutOfBranch) {
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "integer i, j\n"
      "real x\n"
      "if (x .gt. 0.0) then\n"
      "  do i = 1, 16\n"
      "    do j = 1, 16\n"
      "      v(i, j) = 1.0\n"
      "    end do\n"
      "  end do\n"
      "end if\n"
      "x = 2.0\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.regions.size(), 1u);
  // Start hoisted out of the if: slots after the if stmt and after
  // x=2.0, both at top level.
  const auto& slots = plan.regions[0].slots;
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(f.prog.slot(slots.front()).index, 1);
  EXPECT_EQ(f.prog.slot(slots.back()).index, 2);
}

TEST(SyncBranches, Figure7eReaderInOppositeBranchDoesNotPin) {
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "integer i, j\n"
      "real x\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "if (x .gt. 0.0) then\n"
      "  do i = 1, 16\n"
      "    do j = 1, 16\n"
      "      v(i, j) = 1.0\n"
      "    end do\n"
      "  end do\n"
      "else\n"
      "  do i = 2, 15\n"
      "    do j = 2, 15\n"
      "      w(i, j) = v(i + 1, j)\n"
      "    end do\n"
      "  end do\n"
      "end if\n"
      "x = 2.0\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j) + w(i, j)\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  // The writer in the then-branch pairs with the reader after the if;
  // the else-branch reader pairs with nothing new for this write.
  // Find the region whose writer is the branch A-loop (v assigned).
  const SyncRegion* branch_region = nullptr;
  for (const auto& r : plan.regions) {
    if (r.pair->writer->loop->type_for("v") == ir::LoopType::A) {
      branch_region = &r;
    }
  }
  ASSERT_NE(branch_region, nullptr);
  ASSERT_TRUE(branch_region->valid());
  // Figure 7(e): the start escapes the branch even though the opposite
  // branch reads v — the two cannot execute together.
  EXPECT_EQ(f.prog.slot(branch_region->first_slot()).loop_depth, 0);
  EXPECT_EQ(f.prog.slot(branch_region->first_slot()).call_depth(), 0);
}

// ---------------------------------------------------------------------------
// Figure 8: interprocedural combining
// ---------------------------------------------------------------------------

TEST(SyncInterproc, Figure8ThreeSubroutineSyncsCombineIntoOne) {
  Fixture f(
      "program p\n"
      "real v1(16, 16), v2(16, 16), v3(16, 16), w(16, 16)\n"
      "common /f/ v1, v2, v3, w\n"
      "integer i, j\n"
      "call suba\n"
      "call subb\n"
      "call subc\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v1(i - 1, j) + v2(i + 1, j) + v3(i, j - 1)\n"
      "  end do\n"
      "end do\n"
      "end\n"
      "subroutine suba\n"
      "real v1(16, 16), v2(16, 16), v3(16, 16), w(16, 16)\n"
      "common /f/ v1, v2, v3, w\n"
      "integer i, j\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v1(i, j) = 1.0\n"
      "  end do\n"
      "end do\n"
      "return\n"
      "end\n"
      "subroutine subb\n"
      "real v1(16, 16), v2(16, 16), v3(16, 16), w(16, 16)\n"
      "common /f/ v1, v2, v3, w\n"
      "integer i, j\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v2(i, j) = 2.0\n"
      "  end do\n"
      "end do\n"
      "return\n"
      "end\n"
      "subroutine subc\n"
      "real v1(16, 16), v2(16, 16), v3(16, 16), w(16, 16)\n"
      "common /f/ v1, v2, v3, w\n"
      "integer i, j\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v3(i, j) = 3.0\n"
      "  end do\n"
      "end do\n"
      "return\n"
      "end\n",
      cfg2({"v1", "v2", "v3", "w"}), partition::PartitionSpec{{2, 2}});
  auto plan = f.plan();
  // Three dependences (one per array), each hoisted out of its
  // subroutine, all overlapping before the reader: one combined sync.
  EXPECT_EQ(plan.syncs_before(), 3);
  EXPECT_EQ(plan.syncs_after(), 1);
  ASSERT_EQ(plan.points.size(), 1u);
  // The combined point sits in the main program, not in a subroutine.
  EXPECT_EQ(f.prog.slot(plan.points[0].chosen_slot).call_depth(), 0);
  // Aggregated communication carries all three arrays.
  const auto halos = SyncPlan::halos_for(plan.points[0]);
  EXPECT_EQ(halos.size(), 3u);
  EXPECT_GT(plan.optimization_percent(), 60.0);
}

TEST(SyncInterproc, ReaderInsideSubroutinePinsRegionBeforeCall) {
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "common /f/ v, w\n"
      "integer i, j\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v(i, j) = 1.0\n"
      "  end do\n"
      "end do\n"
      "call consume\n"
      "end\n"
      "subroutine consume\n"
      "real v(16, 16), w(16, 16)\n"
      "common /f/ v, w\n"
      "integer i, j\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "return\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.regions.size(), 1u);
  // Section 5.3: the synchronization installs before the call.
  const auto& slots = plan.regions[0].slots;
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(f.prog.slot(slots[0]).call_depth(), 0);
  EXPECT_EQ(f.prog.slot(slots[0]).index, 1);  // between writer and call
}

// ---------------------------------------------------------------------------
// Self-dependent loops in the plan
// ---------------------------------------------------------------------------

TEST(SyncSelfDep, MirrorImageLoopYieldsPipelineAndPreExchange) {
  Fixture f(
      "program p\n"
      "real v(16, 16)\n"
      "integer i, j, it\n"
      "do it = 1, 10\n"
      "  do i = 2, 15\n"
      "    do j = 2, 15\n"
      "      v(i, j) = 0.25 * (v(i - 1, j) + v(i + 1, j) &\n"
      "              + v(i, j - 1) + v(i, j + 1))\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v"}), partition::PartitionSpec{{4, 1}});
  auto plan = f.plan();
  ASSERT_EQ(plan.pipelines.size(), 1u);
  EXPECT_EQ(plan.pipelines[0].plan.kind, depend::SelfDepKind::Mixed);
  // The anti half becomes one wrap-around pre-exchange region.
  EXPECT_EQ(plan.syncs_before(), 1);
  EXPECT_EQ(plan.syncs_after(), 1);
}

TEST(SyncSelfDep, FlowOnlyNeedsNoSlotSync) {
  Fixture f(
      "program p\n"
      "real v(16, 16)\n"
      "integer i, j, it\n"
      "do it = 1, 10\n"
      "  do i = 2, 15\n"
      "    do j = 2, 15\n"
      "      v(i, j) = 0.5 * (v(i - 1, j) + v(i, j - 1))\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v"}), partition::PartitionSpec{{4, 1}});
  auto plan = f.plan();
  EXPECT_EQ(plan.pipelines.size(), 1u);
  EXPECT_EQ(plan.pipelines[0].plan.kind, depend::SelfDepKind::FlowOnly);
  EXPECT_EQ(plan.syncs_before(), 0);
  EXPECT_EQ(plan.syncs_after(), 0);
}

// ---------------------------------------------------------------------------
// Pipeline hand-off combining (section 5 applied to mirror-image sweeps)
// ---------------------------------------------------------------------------

/// A frame calling `frame` (main-program statements inside the time
/// loop) over subroutines sa and sb: forward sweeps along dim 0 of a
/// and b respectively. `between` lands between the two calls.
std::string sweep_program(const std::string& between,
                          const std::string& after = "") {
  const std::string decls =
      "real a(16, 16), b(16, 16), c(16, 16), d(16, 16)\n"
      "real smax\n"
      "common /f/ a, b, c, d, smax\n"
      "integer i, j\n";
  const auto sweep = [&](const std::string& name, const std::string& v) {
    return "subroutine " + name + "\n" + decls +
           "do i = 2, 16\n"
           "  do j = 1, 16\n"
           "    " + v + "(i, j) = 0.5 * (" + v + "(i - 1, j) + " + v +
           "(i, j))\n"
           "  end do\n"
           "end do\n"
           "return\n"
           "end\n";
  };
  return "program p\n" + decls + "integer it\n" +
         "do it = 1, 3\n"
         "  call sa\n" +
         between + "  call sb\n" + after + "end do\nend\n" +
         sweep("sa", "a") + sweep("sb", "b");
}

std::set<std::string> group_arrays(const SyncPlan& plan,
                                   const PipelineGroup& g) {
  std::set<std::string> out;
  for (const auto& h : plan.flows_for(g)) out.insert(h.array);
  return out;
}

TEST(SyncPipelines, BackToBackSweepsInSubroutinesShareOneHandOff) {
  Fixture f(sweep_program(""), cfg2({"a", "b", "c", "d"}),
            partition::PartitionSpec{{2, 1}});
  obs::ObsContext obs;
  const auto plan = f.plan(CombineStrategy::Min, &obs);
  ASSERT_EQ(plan.pipelines.size(), 2u);
  ASSERT_EQ(plan.pipeline_groups.size(), 1u);
  const auto& g = plan.pipeline_groups[0];
  EXPECT_EQ(g.members, (std::vector<int>{0, 1}));
  EXPECT_EQ(g.dims, (std::vector<std::pair<int, int>>{{0, +1}}));
  EXPECT_EQ(group_arrays(plan, g), (std::set<std::string>{"a", "b"}));
  // Both points land in main: the start right before `call sa`, the
  // end right after `call sb`.
  const auto& start = f.prog.slot(g.start_slot);
  const auto& end = f.prog.slot(g.end_slot);
  EXPECT_EQ(start.call_depth(), 0);
  EXPECT_EQ(end.call_depth(), 0);
  EXPECT_EQ(start.index, 0);
  EXPECT_EQ(end.index, 2);
  EXPECT_EQ(start.source_block, end.source_block);
  // The merge is explained, naming both sweeps.
  const auto merges = obs.provenance.of_kind(obs::DecisionKind::PipelineMerge);
  ASSERT_EQ(merges.size(), 1u);
  EXPECT_EQ(merges[0]->refs, (std::vector<int>{0, 1}));
  EXPECT_NE(merges[0]->decision.find("merged 2 sweeps"), std::string::npos);
}

TEST(SyncPipelines, StrategyNoneKeepsOneHandOffPerSweep) {
  Fixture f(sweep_program(""), cfg2({"a", "b", "c", "d"}),
            partition::PartitionSpec{{2, 1}});
  const auto none = f.plan(CombineStrategy::None);
  ASSERT_EQ(none.pipeline_groups.size(), 2u);
  // Each sweep's own hand-off: received before its call, sent after it.
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& g = none.pipeline_groups[k];
    EXPECT_EQ(g.members, (std::vector<int>{static_cast<int>(k)}));
    EXPECT_EQ(f.prog.slot(g.start_slot).index, static_cast<int>(k));
    EXPECT_EQ(f.prog.slot(g.end_slot).index, static_cast<int>(k) + 1);
  }
  EXPECT_EQ(f.plan(CombineStrategy::Pairwise).pipeline_groups.size(), 1u);
}

TEST(SyncPipelines, RefusesAcrossAStatementTouchingAMemberArray) {
  // A plain local read of a, no halo: a's send may not sink past it.
  Fixture f(sweep_program("  do i = 1, 16\n"
                          "    do j = 1, 16\n"
                          "      c(i, j) = a(i, j)\n"
                          "    end do\n"
                          "  end do\n"),
            cfg2({"a", "b", "c", "d"}), partition::PartitionSpec{{2, 1}});
  obs::ObsContext obs;
  const auto plan = f.plan(CombineStrategy::Min, &obs);
  ASSERT_EQ(plan.pipeline_groups.size(), 2u);
  // a's send goes right after `call sa`, b's receive right before
  // `call sb`.
  EXPECT_EQ(f.prog.slot(plan.pipeline_groups[0].end_slot).index, 1);
  EXPECT_EQ(f.prog.slot(plan.pipeline_groups[1].start_slot).index, 2);
  const auto merges = obs.provenance.of_kind(obs::DecisionKind::PipelineMerge);
  ASSERT_EQ(merges.size(), 2u);
  EXPECT_NE(merges[0]->rationale.find("cannot share it"), std::string::npos);
}

TEST(SyncPipelines, RefusesAcrossAHaloExchange) {
  // d is written and then read with a dim-0 halo between the sweeps:
  // its exchange sits between them and neither hand-off may cross it.
  Fixture f(sweep_program("  do i = 1, 16\n"
                          "    do j = 1, 16\n"
                          "      d(i, j) = 1.0\n"
                          "    end do\n"
                          "  end do\n"
                          "  do i = 2, 16\n"
                          "    do j = 1, 16\n"
                          "      c(i, j) = d(i - 1, j)\n"
                          "    end do\n"
                          "  end do\n"),
            cfg2({"a", "b", "c", "d"}), partition::PartitionSpec{{2, 1}});
  const auto plan = f.plan();
  ASSERT_EQ(plan.syncs_after(), 1);
  const int halo = plan.points[0].chosen_slot;
  ASSERT_EQ(plan.pipeline_groups.size(), 2u);
  EXPECT_LE(plan.pipeline_groups[0].end_slot, halo);
  EXPECT_GE(plan.pipeline_groups[1].start_slot, halo);
}

TEST(SyncPipelines, RefusesAcrossAnAllreduce) {
  Fixture f(sweep_program("  smax = 0.0\n"
                          "  do i = 1, 16\n"
                          "    do j = 1, 16\n"
                          "      smax = max(smax, abs(c(i, j)))\n"
                          "    end do\n"
                          "  end do\n",
                          "  write(6, *) smax\n"),
            cfg2({"a", "b", "c", "d"}), partition::PartitionSpec{{2, 1}});
  const auto plan = f.plan();
  ASSERT_EQ(plan.pipeline_groups.size(), 2u);
  // The send of a stays before the reduction loop, the receive of b
  // after it.
  EXPECT_EQ(f.prog.slot(plan.pipeline_groups[0].end_slot).index, 1);
  EXPECT_EQ(f.prog.slot(plan.pipeline_groups[1].start_slot).index, 3);
}

TEST(SyncPipelines, CalleeWithTwoCallSitesKeepsItsHandOffAroundTheLoop) {
  // sa runs before and after sb: one hand-off inside sa serves both
  // calls, and sb is not combined with either of them.
  Fixture f(sweep_program("", "  call sa\n"), cfg2({"a", "b", "c", "d"}),
            partition::PartitionSpec{{2, 1}});
  const auto plan = f.plan();
  ASSERT_EQ(plan.pipelines.size(), 3u);
  ASSERT_EQ(plan.pipeline_groups.size(), 2u);
  const PipelineGroup* in_sa = nullptr;
  const PipelineGroup* in_sb = nullptr;
  for (const auto& g : plan.pipeline_groups) {
    (group_arrays(plan, g).contains("a") ? in_sa : in_sb) = &g;
  }
  ASSERT_NE(in_sa, nullptr);
  ASSERT_NE(in_sb, nullptr);
  EXPECT_EQ(in_sa->members.size(), 2u);  // one plan per call site
  const auto& start = f.prog.slot(in_sa->start_slot);
  const auto& end = f.prog.slot(in_sa->end_slot);
  EXPECT_EQ(start.unit->name, "sa");
  EXPECT_EQ(start.index, 0);
  EXPECT_EQ(end.unit->name, "sa");
  EXPECT_EQ(end.index, 1);
  EXPECT_EQ(in_sb->members.size(), 1u);
  EXPECT_EQ(f.prog.slot(in_sb->start_slot).call_depth(), 0);
  EXPECT_EQ(f.prog.slot(in_sb->end_slot).call_depth(), 0);
}

// ---------------------------------------------------------------------------
// Whole-plan behaviour on a frame program
// ---------------------------------------------------------------------------

TEST(SyncPlanTest, JacobiFramePlan) {
  Fixture f(
      "program p\n"
      "parameter (n = 16)\n"
      "real v(n, n), vold(n, n)\n"
      "real errmax\n"
      "integer i, j, it\n"
      "do it = 1, 50\n"
      "  errmax = 0.0\n"
      "  do i = 2, n - 1\n"
      "    do j = 2, n - 1\n"
      "      vold(i, j) = v(i, j)\n"
      "    end do\n"
      "  end do\n"
      "  do i = 2, n - 1\n"
      "    do j = 2, n - 1\n"
      "      v(i, j) = 0.25 * (vold(i - 1, j) + vold(i + 1, j) &\n"
      "              + vold(i, j - 1) + vold(i, j + 1))\n"
      "      errmax = max(errmax, abs(v(i, j) - vold(i, j)))\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v", "vold"}), partition::PartitionSpec{{2, 2}});
  auto plan = f.plan();
  EXPECT_EQ(plan.syncs_before(), 1);
  EXPECT_EQ(plan.syncs_after(), 1);
  ASSERT_EQ(plan.points.size(), 1u);
  const auto halos = SyncPlan::halos_for(plan.points[0]);
  ASSERT_EQ(halos.size(), 1u);
  EXPECT_EQ(halos[0].array, "vold");
  EXPECT_EQ(halos[0].lo_width, (std::vector<int>{1, 1}));
  EXPECT_EQ(halos[0].hi_width, (std::vector<int>{1, 1}));
}

TEST(SyncPlanTest, ManyArraysCombineAcrossFrame) {
  // Four independent update/consume phases inside one frame loop: all
  // four dependences overlap in the frame body and combine down.
  Fixture f(
      "program p\n"
      "real a(16, 16), b(16, 16), c(16, 16), d(16, 16)\n"
      "real w(16, 16)\n"
      "integer i, j, it\n"
      "do it = 1, 10\n"
      "  do i = 1, 16\n"
      "    do j = 1, 16\n"
      "      a(i, j) = 1.0\n"
      "      b(i, j) = 2.0\n"
      "      c(i, j) = 3.0\n"
      "      d(i, j) = 4.0\n"
      "    end do\n"
      "  end do\n"
      "  do i = 2, 15\n"
      "    do j = 2, 15\n"
      "      w(i, j) = a(i - 1, j) + b(i + 1, j) + c(i, j - 1) + d(i, j + 1)\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"a", "b", "c", "d", "w"}), partition::PartitionSpec{{2, 2}});
  auto plan = f.plan();
  EXPECT_EQ(plan.syncs_before(), 4);
  EXPECT_EQ(plan.syncs_after(), 1);
  EXPECT_NEAR(plan.optimization_percent(), 75.0, 0.1);
  const auto halos = SyncPlan::halos_for(plan.points[0]);
  EXPECT_EQ(halos.size(), 4u);  // aggregated message carries a,b,c,d
}


TEST(SyncInterproc, SubroutineCalledTwiceYieldsRegionPerCallSite) {
  // Figure 8's "call a ... call a" shape: each call instance of the
  // writer pairs with the reader that follows it, giving one region per
  // occurrence where a dependence actually exists.
  Fixture f(
      "program p\n"
      "real v(16, 16), w(16, 16)\n"
      "common /f/ v, w\n"
      "integer i, j\n"
      "call update\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i - 1, j)\n"
      "  end do\n"
      "end do\n"
      "call update\n"
      "do i = 2, 15\n"
      "  do j = 2, 15\n"
      "    w(i, j) = v(i + 1, j) + w(i, j)\n"
      "  end do\n"
      "end do\n"
      "end\n"
      "subroutine update\n"
      "real v(16, 16), w(16, 16)\n"
      "common /f/ v, w\n"
      "integer i, j\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v(i, j) = v(i, j) + 1.0\n"
      "  end do\n"
      "end do\n"
      "return\n"
      "end\n",
      cfg2({"v", "w"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  // Two writer occurrences, two readers: two dependences, and the
  // regions cannot be merged (reader 1 sits between the call sites).
  EXPECT_EQ(plan.syncs_before(), 2);
  EXPECT_EQ(plan.syncs_after(), 2);
  // Both chosen points are in the main program (hoisted out of the
  // subroutine so the shared source line is not re-executed per call).
  for (const auto& point : plan.points) {
    EXPECT_EQ(f.prog.slot(point.chosen_slot).call_depth(), 0);
  }
}

TEST(SyncPlan, OptimizationPercentIsZeroWithoutDependences) {
  // Purely local work: one status array assigned from itself pointwise,
  // so no communication-carrying pair exists. syncs_before() is 0 and
  // optimization_percent() must report 0%, not NaN (0/0).
  Fixture f(
      "program p\n"
      "real v(16, 16)\n"
      "integer i, j\n"
      "do i = 1, 16\n"
      "  do j = 1, 16\n"
      "    v(i, j) = v(i, j) * 2.0\n"
      "  end do\n"
      "end do\n"
      "end\n",
      cfg2({"v"}), partition::PartitionSpec{{2, 1}});
  auto plan = f.plan();
  EXPECT_EQ(plan.syncs_before(), 0);
  EXPECT_EQ(plan.syncs_after(), 0);
  EXPECT_FALSE(std::isnan(plan.optimization_percent()));
  EXPECT_EQ(plan.optimization_percent(), 0.0);
}

}  // namespace
}  // namespace autocfd::sync
