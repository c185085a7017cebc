// The shared caches under concurrent access: the curve-order cache must
// hand out one shared vector per key, and the WorkGrid cache must build
// each (snapshot, grain, curve) grid once.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/partition/sfc.hpp"
#include "pragma/partition/workgrid.hpp"

namespace pragma::partition {
namespace {

/// Two snapshots of one RM3D hierarchy, so lookups of both share it.
amr::AdaptationTrace rm3d_trace(int steps = 40) {
  amr::Rm3dConfig config;
  config.coarse_steps = steps + 20;
  amr::Rm3dEmulator emulator(config);
  for (int s = 0; s < steps; ++s) emulator.advance();
  amr::AdaptationTrace trace;
  trace.add(amr::Snapshot{0, emulator.hierarchy()});
  trace.add(amr::Snapshot{1, emulator.hierarchy()});
  return trace;
}

TEST(CurveOrderShared, RepeatedCallsShareOneVector) {
  const auto a = curve_order_shared({8, 8, 8}, CurveKind::kHilbert);
  const auto b = curve_order_shared({8, 8, 8}, CurveKind::kHilbert);
  EXPECT_EQ(a.get(), b.get());
  const auto c = curve_order_shared({8, 8, 8}, CurveKind::kMorton);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(*a, curve_order({8, 8, 8}, CurveKind::kHilbert));
}

TEST(CurveOrderShared, ConcurrentAccessIsConsistent) {
  // Many threads hammering the cache with a mix of keys must all observe
  // the same shared vector per key (and no crashes/races under TSan).
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<std::vector<std::shared_ptr<const std::vector<std::uint32_t>>>>
      seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([t, &seen] {
        for (int i = 0; i < kIters; ++i) {
          const int edge = 4 + (i % 3) * 4;  // 4, 8, 12
          seen[t].push_back(curve_order_shared({edge, edge, edge},
                                               CurveKind::kHilbert));
        }
      });
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 1; t < kThreads; ++t)
    for (int i = 0; i < kIters; ++i)
      EXPECT_EQ(seen[t][i].get(), seen[0][i].get());
}

TEST(WorkGridCacheTest, SameKeySharesOneGrid) {
  const amr::AdaptationTrace trace = rm3d_trace();
  WorkGridCache cache;
  const auto a = cache.at(trace, 0, 2, CurveKind::kHilbert);
  const auto b = cache.at(trace, 0, 2, CurveKind::kHilbert);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  const auto c = cache.at(trace, 1, 2, CurveKind::kHilbert);
  const auto d = cache.at(trace, 0, 4, CurveKind::kHilbert);
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.size(), 3u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Entries outlive the cache they came from.
  EXPECT_GT(a->cell_count(), 0u);
}

TEST(WorkGridCacheTest, ConcurrentGetOrBuildYieldsOneGrid) {
  const amr::AdaptationTrace trace = rm3d_trace();
  WorkGridCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const WorkGrid>> grids(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([t, &cache, &trace, &grids] {
        grids[t] = cache.at(trace, static_cast<std::size_t>(t % 2), 2,
                            CurveKind::kHilbert);
      });
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(cache.size(), 2u);
  for (int t = 2; t < kThreads; ++t)
    EXPECT_EQ(grids[t].get(), grids[t % 2].get());
}

}  // namespace
}  // namespace pragma::partition
