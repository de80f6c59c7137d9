#include "query/query.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace gdp::query {
namespace {

using gdp::graph::BipartiteGraph;
using gdp::hier::GroupInfo;
using gdp::hier::kNoParent;

BipartiteGraph SmallGraph() {
  return BipartiteGraph(3, 4,
                        {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 3}});
}

TEST(AssociationCountQueryTest, EvaluatesEdgeCount) {
  const AssociationCountQuery q;
  EXPECT_EQ(q.Name(), "association_count");
  const BipartiteGraph g = SmallGraph();
  const auto a = q.Evaluate(ScannedLevel(g, Partition::TopLevel(3, 4)).stats());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0], 6.0);
}

TEST(AssociationCountQueryTest, SensitivityAtTopIsEdgeCount) {
  const AssociationCountQuery q;
  const BipartiteGraph g = SmallGraph();
  const Partition top = Partition::TopLevel(3, 4);
  EXPECT_DOUBLE_EQ(q.GroupSensitivity(ScannedLevel(g, top).stats()), 6.0);
}

TEST(AssociationCountQueryTest, SensitivityAtSingletonsIsMaxDegree) {
  const AssociationCountQuery q;
  const BipartiteGraph g = SmallGraph();
  const Partition singles = Partition::Singletons(3, 4);
  EXPECT_DOUBLE_EQ(q.GroupSensitivity(ScannedLevel(g, singles).stats()), 3.0);
}

TEST(GroupCountQueryTest, EvaluatesPerGroupDegreeSums) {
  const BipartiteGraph g = SmallGraph();
  const Partition p({0, 0, 1}, {2, 2, 2, 2},
                    {GroupInfo{Side::kLeft, 2, kNoParent},
                     GroupInfo{Side::kLeft, 1, kNoParent},
                     GroupInfo{Side::kRight, 4, kNoParent}});
  const GroupCountQuery q(p);
  const auto a = q.Evaluate(ScannedLevel(g, p).stats());
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0], 5.0);  // deg(l0)+deg(l1)
  EXPECT_DOUBLE_EQ(a[1], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 6.0);
}

TEST(GroupCountQueryTest, EvaluatesItsOwnPartitionWhateverTheRunLevel) {
  // Run at another level, the query still answers at the partition it was
  // built with (one scan of that partition); its sensitivity is the run
  // level's sqrt(2)·Δ.
  const BipartiteGraph g = SmallGraph();
  const Partition p({0, 0, 1}, {2, 2, 2, 2},
                    {GroupInfo{Side::kLeft, 2, kNoParent},
                     GroupInfo{Side::kLeft, 1, kNoParent},
                     GroupInfo{Side::kRight, 4, kNoParent}});
  const Partition top = Partition::TopLevel(3, 4);
  const GroupCountQuery q(p);
  const ScannedLevel at_top(g, top);
  EXPECT_EQ(q.Evaluate(at_top.stats()), (std::vector<double>{5.0, 1.0, 6.0}));
  EXPECT_NEAR(q.GroupSensitivity(at_top.stats()), std::sqrt(2.0) * 6.0, 1e-12);
}

TEST(GroupCountQueryTest, SensitivityUsesSqrtTwoBound) {
  const BipartiteGraph g = SmallGraph();
  const Partition top = Partition::TopLevel(3, 4);
  const GroupCountQuery q(top);
  EXPECT_NEAR(q.GroupSensitivity(ScannedLevel(g, top).stats()),
              std::sqrt(2.0) * 6.0, 1e-12);
}

TEST(DegreeHistogramQueryTest, BinsWithOverflow) {
  const BipartiteGraph g = SmallGraph();
  const DegreeHistogramQuery q(Side::kLeft, 2);
  const auto a = q.Evaluate(ScannedLevel(g, Partition::TopLevel(3, 4)).stats());
  // Left degrees: 2, 3, 1 -> bins [0]=0 [1]=1 [2]=1 overflow=1.
  ASSERT_EQ(a.size(), 4u);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 1.0);
  EXPECT_DOUBLE_EQ(a[3], 1.0);
}

TEST(DegreeHistogramQueryTest, BinsSumToNodeCount) {
  gdp::common::Rng rng(5);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(100, 80, 600, rng);
  const DegreeHistogramQuery q(Side::kRight, 10);
  const auto a =
      q.Evaluate(ScannedLevel(g, Partition::TopLevel(100, 80)).stats());
  EXPECT_DOUBLE_EQ(std::accumulate(a.begin(), a.end(), 0.0), 80.0);
}

TEST(DegreeHistogramQueryTest, NameEncodesSide) {
  EXPECT_EQ(DegreeHistogramQuery(Side::kLeft, 5).Name(),
            "degree_histogram_left");
  EXPECT_EQ(DegreeHistogramQuery(Side::kRight, 5).Name(),
            "degree_histogram_right");
}

TEST(DegreeHistogramQueryTest, RejectsZeroMaxDegree) {
  EXPECT_THROW(DegreeHistogramQuery(Side::kLeft, 0), std::invalid_argument);
}

TEST(DegreeHistogramQueryTest, SensitivityBoundFormula) {
  const BipartiteGraph g = SmallGraph();
  const Partition top = Partition::TopLevel(3, 4);
  const DegreeHistogramQuery q(Side::kLeft, 3);
  // Worst group: right side (4 nodes, weight 6): 4 + 2*6 = 16.
  EXPECT_DOUBLE_EQ(q.GroupSensitivity(ScannedLevel(g, top).stats()), 16.0);
}

}  // namespace
}  // namespace gdp::query
