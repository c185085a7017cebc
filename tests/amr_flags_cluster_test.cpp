#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include "pragma/amr/cluster_br.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::amr {
namespace {

TEST(FlagFieldTest, SetGetCount) {
  FlagField flags(Box({0, 0, 0}, {8, 8, 8}));
  EXPECT_EQ(flags.count(), 0);
  flags.set({1, 2, 3});
  EXPECT_TRUE(flags.get({1, 2, 3}));
  EXPECT_EQ(flags.count(), 1);
  flags.set({1, 2, 3});  // idempotent
  EXPECT_EQ(flags.count(), 1);
  flags.set({1, 2, 3}, false);
  EXPECT_EQ(flags.count(), 0);
}

TEST(FlagFieldTest, OutOfDomainIgnored) {
  FlagField flags(Box({0, 0, 0}, {4, 4, 4}));
  flags.set({10, 10, 10});
  EXPECT_EQ(flags.count(), 0);
  EXPECT_FALSE(flags.get({10, 10, 10}));
}

TEST(FlagFieldTest, NonZeroOrigin) {
  FlagField flags(Box({4, 4, 4}, {8, 8, 8}));
  flags.set({5, 6, 7});
  EXPECT_TRUE(flags.get({5, 6, 7}));
  EXPECT_FALSE(flags.get({1, 1, 1}));
}

TEST(FlagFieldTest, EmptyDomainThrows) {
  EXPECT_THROW(FlagField(Box{}), std::invalid_argument);
}

TEST(FlagFieldTest, FlagWherePredicate) {
  FlagField flags(Box({0, 0, 0}, {8, 8, 8}));
  flags.flag_where([](IntVec3 p) { return p.x < 2; });
  EXPECT_EQ(flags.count(), 2 * 8 * 8);
  EXPECT_EQ(flags.count_in(Box({0, 0, 0}, {1, 8, 8})), 64);
}

TEST(FlagFieldTest, SignatureSumsMatchCount) {
  FlagField flags(Box({0, 0, 0}, {8, 6, 4}));
  util::Rng rng(5);
  flags.flag_where([&rng](IntVec3) { return rng.bernoulli(0.3); });
  const FlagSignatures pass = flags.signatures(flags.domain());
  EXPECT_EQ(pass.count, flags.count());
  for (int axis = 0; axis < 3; ++axis) {
    const auto& sig = pass.planes[static_cast<std::size_t>(axis)];
    EXPECT_EQ(static_cast<int>(sig.size()), pass.bound.extent()[axis]);
    std::int64_t total = 0;
    for (std::int64_t s : sig) total += s;
    EXPECT_EQ(total, flags.count()) << "axis " << axis;
  }
}

TEST(FlagFieldTest, SignaturePlanesCountEachPlane) {
  // Flags inside `inner` only, so the bound is strictly smaller than the
  // region and the planes must be restricted to it.
  FlagField flags(Box({2, 0, 0}, {12, 8, 6}));
  const Box inner({4, 2, 1}, {9, 6, 4});
  util::Rng rng(6);
  flags.flag_where(
      [&](IntVec3 p) { return inner.contains(p) && rng.bernoulli(0.4); });
  const Box region({3, 1, 0}, {11, 7, 5});
  const FlagSignatures pass = flags.signatures(region);
  ASSERT_FALSE(pass.bound.empty());
  EXPECT_TRUE(inner.contains(pass.bound));
  EXPECT_NE(pass.bound, region);
  EXPECT_EQ(pass.count, flags.count());
  for (int axis = 0; axis < 3; ++axis) {
    const auto& sig = pass.planes[static_cast<std::size_t>(axis)];
    for (std::size_t i = 0; i < sig.size(); ++i) {
      IntVec3 lo = region.lo();
      IntVec3 hi = region.hi();
      lo[axis] = pass.bound.lo()[axis] + static_cast<int>(i);
      hi[axis] = lo[axis] + 1;
      std::int64_t in_plane = 0;
      for (int z = lo.z; z < hi.z; ++z)
        for (int y = lo.y; y < hi.y; ++y)
          for (int x = lo.x; x < hi.x; ++x)
            in_plane += flags.get({x, y, z}) ? 1 : 0;
      EXPECT_EQ(sig[i], in_plane) << "axis " << axis << " plane " << i;
    }
  }
}

TEST(FlagFieldTest, MinimalBoundingBoxTight) {
  FlagField flags(Box({0, 0, 0}, {16, 16, 16}));
  flags.set({3, 4, 5});
  flags.set({7, 8, 9});
  const FlagSignatures pass = flags.signatures(flags.domain());
  EXPECT_EQ(pass.bound, Box({3, 4, 5}, {8, 9, 10}));
  EXPECT_EQ(pass.count, 2);
}

TEST(FlagFieldTest, MinimalBoundingBoxEmptyWhenNoFlags) {
  FlagField flags(Box({0, 0, 0}, {4, 4, 4}));
  const FlagSignatures pass = flags.signatures(flags.domain());
  EXPECT_TRUE(pass.bound.empty());
  EXPECT_EQ(pass.count, 0);
}

TEST(FlagFieldTest, FillFlagsClippedBoxOnce) {
  FlagField flags(Box({0, 0, 0}, {8, 8, 8}));
  flags.set({1, 1, 1});
  flags.fill(Box({-2, 0, 0}, {2, 2, 2}));
  EXPECT_EQ(flags.count(), 2 * 2 * 2);
  EXPECT_TRUE(flags.get({0, 1, 1}));
  EXPECT_FALSE(flags.get({2, 1, 1}));
}

TEST(ClusterBr, EmptyFlagsYieldNoBoxes) {
  FlagField flags(Box({0, 0, 0}, {16, 16, 16}));
  EXPECT_TRUE(cluster_flags(flags, flags.domain()).empty());
}

TEST(ClusterBr, SingleBlockIsTight) {
  FlagField flags(Box({0, 0, 0}, {32, 32, 32}));
  const Box block({8, 8, 8}, {16, 16, 16});
  flags.flag_where([&](IntVec3 p) { return block.contains(p); });
  const auto boxes = cluster_flags(flags, flags.domain());
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], block);
  EXPECT_DOUBLE_EQ(clustering_efficiency(flags, boxes), 1.0);
}

TEST(ClusterBr, TwoSeparatedBlocksSplitAtHole) {
  FlagField flags(Box({0, 0, 0}, {64, 16, 16}));
  const Box left({0, 0, 0}, {8, 8, 8});
  const Box right({48, 0, 0}, {56, 8, 8});
  flags.flag_where(
      [&](IntVec3 p) { return left.contains(p) || right.contains(p); });
  const auto boxes = cluster_flags(flags, flags.domain());
  ASSERT_EQ(boxes.size(), 2u);
  EXPECT_DOUBLE_EQ(clustering_efficiency(flags, boxes), 1.0);
}

TEST(ClusterBr, EveryFlagCoveredExactlyOnce) {
  FlagField flags(Box({0, 0, 0}, {32, 32, 16}));
  util::Rng rng(9);
  // Scattered blobs.
  for (int blob = 0; blob < 6; ++blob) {
    const IntVec3 c{static_cast<int>(rng.uniform_int(4, 28)),
                    static_cast<int>(rng.uniform_int(4, 28)),
                    static_cast<int>(rng.uniform_int(4, 12))};
    flags.flag_where([&](IntVec3 p) {
      const IntVec3 d = p - c;
      return d.x * d.x + d.y * d.y + d.z * d.z <= 9;
    });
  }
  const auto boxes = cluster_flags(flags, flags.domain());
  // Coverage: every flagged cell inside exactly one box.
  std::int64_t covered_flags = 0;
  for (const Box& box : boxes) covered_flags += flags.count_in(box);
  EXPECT_EQ(covered_flags, flags.count());
  for (std::size_t i = 0; i < boxes.size(); ++i)
    for (std::size_t j = i + 1; j < boxes.size(); ++j)
      EXPECT_FALSE(boxes[i].intersects(boxes[j]));
}

TEST(ClusterBr, EfficiencyThresholdRespectedOnSplittableBoxes) {
  FlagField flags(Box({0, 0, 0}, {64, 32, 32}));
  util::Rng rng(11);
  for (int blob = 0; blob < 10; ++blob) {
    const IntVec3 c{static_cast<int>(rng.uniform_int(6, 58)),
                    static_cast<int>(rng.uniform_int(6, 26)),
                    static_cast<int>(rng.uniform_int(6, 26))};
    flags.flag_where([&](IntVec3 p) {
      const IntVec3 d = p - c;
      return d.x * d.x + d.y * d.y + d.z * d.z <= 16;
    });
  }
  ClusterOptions options;
  options.efficiency = 0.5;
  const auto boxes = cluster_flags(flags, flags.domain(), options);
  EXPECT_GE(clustering_efficiency(flags, boxes), 0.35);
}

TEST(ClusterBr, MaxBoxCellsChopsBigBoxes) {
  FlagField flags(Box({0, 0, 0}, {32, 32, 32}));
  flags.flag_where([](IntVec3) { return true; });
  ClusterOptions options;
  options.max_box_cells = 1024;
  const auto boxes = cluster_flags(flags, flags.domain(), options);
  EXPECT_GT(boxes.size(), 1u);
  std::int64_t total = 0;
  for (const Box& box : boxes) {
    EXPECT_LE(box.volume(), 1024);
    total += box.volume();
  }
  EXPECT_EQ(total, 32 * 32 * 32);
}

TEST(ClusterBr, RestrictedRegionOnlyClustersInside) {
  FlagField flags(Box({0, 0, 0}, {32, 8, 8}));
  flags.flag_where([](IntVec3) { return true; });
  const Box region({0, 0, 0}, {16, 8, 8});
  const auto boxes = cluster_flags(flags, region);
  for (const Box& box : boxes) EXPECT_TRUE(region.contains(box));
}

// Property sweep: for random flag densities the clustering always covers
// all flags disjointly and meets a sane efficiency floor.
class ClusterProperty : public ::testing::TestWithParam<double> {};

TEST_P(ClusterProperty, CoverageAndEfficiency) {
  FlagField flags(Box({0, 0, 0}, {24, 24, 24}));
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 1000));
  flags.flag_where(
      [&rng, this](IntVec3) { return rng.bernoulli(GetParam()); });
  if (!flags.any()) return;
  const auto boxes = cluster_flags(flags, flags.domain());
  std::int64_t covered = 0;
  for (const Box& box : boxes) covered += flags.count_in(box);
  EXPECT_EQ(covered, flags.count());
  for (std::size_t i = 0; i < boxes.size(); ++i)
    for (std::size_t j = i + 1; j < boxes.size(); ++j)
      EXPECT_FALSE(boxes[i].intersects(boxes[j]));
}

INSTANTIATE_TEST_SUITE_P(Densities, ClusterProperty,
                         ::testing::Values(0.01, 0.05, 0.15, 0.4, 0.8,
                                           0.99));

}  // namespace
}  // namespace pragma::amr
