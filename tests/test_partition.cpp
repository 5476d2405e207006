#include <gtest/gtest.h>

#include <numeric>

#include "autocfd/partition/comm_model.hpp"
#include "autocfd/partition/grid.hpp"

namespace autocfd::partition {
namespace {

TEST(GridBasics, TotalPointsAndStr) {
  const Grid g{{99, 41, 13}};
  EXPECT_EQ(g.rank(), 3);
  EXPECT_EQ(g.total_points(), 99 * 41 * 13);
  EXPECT_EQ(g.str(), "99x41x13");
}

TEST(PartitionSpecBasics, ParseAndStr) {
  const auto spec = PartitionSpec::parse("4x1x1");
  EXPECT_EQ(spec.cuts, (std::vector<int>{4, 1, 1}));
  EXPECT_EQ(spec.num_tasks(), 4);
  EXPECT_EQ(spec.str(), "4x1x1");
  EXPECT_THROW((void)PartitionSpec::parse("0x2"), std::invalid_argument);
}

TEST(SplitExtent, BalancedWithinOnePoint) {
  const auto parts = BlockPartition::split_extent(99, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], (std::pair<long long, long long>{1, 25}));
  EXPECT_EQ(parts[3].second, 99);
  long long min_len = 99, max_len = 0, covered = 0;
  long long expect_next = 1;
  for (const auto& [lo, hi] : parts) {
    EXPECT_EQ(lo, expect_next);  // contiguous, no gaps
    expect_next = hi + 1;
    const long long len = hi - lo + 1;
    min_len = std::min(min_len, len);
    max_len = std::max(max_len, len);
    covered += len;
  }
  EXPECT_EQ(covered, 99);
  EXPECT_LE(max_len - min_len, 1);  // the paper's load-balance criterion
}

TEST(BlockPartitionBasics, SubgridsCoverGrid) {
  const BlockPartition part(Grid{{10, 8}}, PartitionSpec{{2, 2}});
  ASSERT_EQ(part.num_tasks(), 4);
  long long total = 0;
  for (int r = 0; r < 4; ++r) total += part.subgrid(r).points();
  EXPECT_EQ(total, 80);
}

TEST(BlockPartitionBasics, RankCoordRoundTrip) {
  const BlockPartition part(Grid{{12, 12, 12}}, PartitionSpec{{3, 2, 2}});
  for (int r = 0; r < part.num_tasks(); ++r) {
    EXPECT_EQ(part.rank_of(part.subgrid(r).coord), r);
  }
}

TEST(BlockPartitionBasics, Neighbors) {
  const BlockPartition part(Grid{{16, 16}}, PartitionSpec{{4, 1}});
  EXPECT_EQ(part.neighbor(0, 0, -1), std::nullopt);
  EXPECT_EQ(part.neighbor(0, 0, +1), 1);
  EXPECT_EQ(part.neighbor(3, 0, +1), std::nullopt);
  EXPECT_EQ(part.neighbor(2, 0, -1), 1);
  EXPECT_EQ(part.neighbor(2, 1, -1), std::nullopt);  // only one part in y
}

TEST(BlockPartitionBasics, MismatchedRankThrows) {
  EXPECT_THROW(BlockPartition(Grid{{10, 10}}, PartitionSpec{{2, 2, 1}}),
               std::invalid_argument);
}

TEST(BlockPartitionBasics, OverCutThrows) {
  EXPECT_THROW(BlockPartition(Grid{{3, 10}}, PartitionSpec{{4, 1}}),
               std::invalid_argument);
}

TEST(CommModelTest, InteriorTaskTalksBothWays) {
  // Paper's Table 2 discussion: on 4x1x1 an interior task communicates
  // with two neighbors, doubling its halo traffic vs 2x1x1.
  const Grid g{{99, 41, 13}};
  const auto halo = HaloWidths::uniform(3, 1);
  const BlockPartition p2(g, PartitionSpec{{2, 1, 1}});
  const BlockPartition p4(g, PartitionSpec{{4, 1, 1}});
  const long long c2 = max_comm_points(p2, halo);
  const long long c4 = max_comm_points(p4, halo);
  EXPECT_EQ(c2, 41 * 13);
  EXPECT_EQ(c4, 2 * 41 * 13);  // two neighbors, same face
}

TEST(CommModelTest, Paper2x2x1Ratio) {
  // Paper: with 2x2x1 on 99x41x13, per-task communication is
  // (45x13 + 21x13) ~ 1.6x the (41x13) of the 2-processor system.
  const Grid g{{99, 41, 13}};
  const auto halo = HaloWidths::uniform(3, 1);
  const BlockPartition p(g, PartitionSpec{{2, 2, 1}});
  const long long per_task = max_comm_points(p, halo);
  const double ratio =
      static_cast<double>(per_task) / static_cast<double>(41 * 13);
  EXPECT_NEAR(ratio, 1.6, 0.15);
}

TEST(CommModelTest, AsymmetricHalo) {
  // Direction-limited stencils need halo on one side only.
  const Grid g{{20, 20}};
  HaloWidths halo;
  halo.lo = {1, 0};  // needs the low-side neighbor's face in dim 0 only
  halo.hi = {0, 0};
  const BlockPartition p(g, PartitionSpec{{2, 1}});
  // Task 0 (low block) sends its high face? No: task 1 needs task 0's
  // face as its lo halo; comm_points(task0) counts the hi-side transfer
  // via halo.lo of the neighbor's need.
  EXPECT_EQ(comm_points(p, 0, halo), 20);  // sends one 20-point face
  EXPECT_EQ(comm_points(p, 1, halo), 0);   // nothing flows the other way
}

TEST(CommModelTest, HaloMerge) {
  HaloWidths a{{1, 0}, {0, 2}};
  HaloWidths b{{0, 3}, {1, 1}};
  const auto m = HaloWidths::merge(a, b);
  EXPECT_EQ(m.lo, (std::vector<int>{1, 3}));
  EXPECT_EQ(m.hi, (std::vector<int>{1, 2}));
  EXPECT_TRUE(m.any());
  EXPECT_FALSE(HaloWidths::uniform(2, 0).any());
}

TEST(EnumeratePartitions, CountsFactorizations) {
  // 4 into 3 ordered factors: 4.1.1, 1.4.1, 1.1.4, 2.2.1, 2.1.2, 1.2.2 = 6
  EXPECT_EQ(enumerate_partitions(4, 3).size(), 6u);
  // 6 into 2 ordered factors: 1.6, 2.3, 3.2, 6.1 = 4
  EXPECT_EQ(enumerate_partitions(6, 2).size(), 4u);
  EXPECT_EQ(enumerate_partitions(1, 3).size(), 1u);
  EXPECT_THROW((void)enumerate_partitions(0, 2), std::invalid_argument);
}

TEST(FindBestPartition, CutsLongestDimensionFirst) {
  // Paper: "on 2 processors the best way is to cut the longest
  // dimension of 99 grid points".
  const Grid g{{99, 41, 13}};
  const auto halo = HaloWidths::uniform(3, 1);
  const auto best = find_best_partition(g, 2, halo);
  EXPECT_EQ(best.str(), "2x1x1");
}

TEST(FindBestPartition, SixProcessorsPrefersBalancedCuts) {
  // Paper: 3x2x1 beats 6x1x1 for 6 processors on 99x41x13.
  const Grid g{{99, 41, 13}};
  const auto halo = HaloWidths::uniform(3, 1);
  const auto best = find_best_partition(g, 6, halo);
  const BlockPartition chosen(g, best);
  const BlockPartition naive(g, PartitionSpec::parse("6x1x1"));
  EXPECT_LT(max_comm_points(chosen, halo), max_comm_points(naive, halo));
}

TEST(FindBestPartition, InfeasibleThrows) {
  const Grid g{{2, 2}};
  EXPECT_THROW((void)find_best_partition(g, 64, HaloWidths::uniform(2, 1)),
               std::invalid_argument);
}

// Property sweep: every partition of every grid covers all points
// exactly once and neighbor relations are symmetric.
class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PartitionProperty, CoverageAndSymmetry) {
  const auto [nx, ny, np] = GetParam();
  const Grid g{{nx, ny}};
  for (const auto& spec : enumerate_partitions(np, 2)) {
    if (spec.cuts[0] > nx || spec.cuts[1] > ny) continue;
    const BlockPartition part(g, spec);
    long long covered = 0;
    for (int r = 0; r < part.num_tasks(); ++r) {
      covered += part.subgrid(r).points();
      for (int d = 0; d < 2; ++d) {
        for (int dir : {-1, +1}) {
          if (const auto n = part.neighbor(r, d, dir)) {
            EXPECT_EQ(part.neighbor(*n, d, -dir), r)
                << "asymmetric neighbors in " << spec.str();
          }
        }
      }
    }
    EXPECT_EQ(covered, g.total_points()) << spec.str();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProperty,
    ::testing::Values(std::tuple{8, 8, 4}, std::tuple{300, 100, 4},
                      std::tuple{40, 15, 2}, std::tuple{99, 41, 6},
                      std::tuple{17, 5, 3}, std::tuple{16, 16, 16}));

}  // namespace
}  // namespace autocfd::partition
