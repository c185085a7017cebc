// Oracle tests for the scatter regrid path.
//
// The emulators flag by scatter and cluster from one-pass signatures; both
// must reproduce the straightforward formulations exactly.  The oracles
// live here, not in the library: a per-cell gather of
// Rm3dEmulator::indicator, and the multi-scan Berger–Rigoutsos recursion
// (separate bounding-box, count and signature scans per node).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "pragma/amr/cluster_br.hpp"
#include "pragma/amr/regrid.hpp"
#include "pragma/amr/rm3d.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::amr {
namespace {

// ---------------------------------------------------------------------------
// Scatter flags vs. the per-cell gather.
// ---------------------------------------------------------------------------

/// indicator() at every covered cell centre, in coverage order.
std::vector<double> gather(const Rm3dEmulator& emulator,
                           const std::vector<Box>& coverage, IntVec3 dims,
                           double tau) {
  std::vector<double> values;
  const double nx = static_cast<double>(dims.x);
  const double ny = static_cast<double>(dims.y);
  const double nz = static_cast<double>(dims.z);
  for (const Box& box : coverage)
    for (int z = box.lo().z; z < box.hi().z; ++z)
      for (int y = box.lo().y; y < box.hi().y; ++y)
        for (int x = box.lo().x; x < box.hi().x; ++x)
          values.push_back(emulator.indicator((x + 0.5) / nx, (y + 0.5) / ny,
                                              (z + 0.5) / nz, tau));
  return values;
}

/// Flag the covered cells whose gathered indicator reaches `threshold`.
FlagField gather_flags(const std::vector<double>& values,
                       const std::vector<Box>& coverage, double threshold) {
  FlagField flags(bounding_box(coverage));
  std::size_t i = 0;
  for (const Box& box : coverage)
    for (int z = box.lo().z; z < box.hi().z; ++z)
      for (int y = box.lo().y; y < box.hi().y; ++y)
        for (int x = box.lo().x; x < box.hi().x; ++x)
          if (values[i++] >= threshold) flags.set({x, y, z});
  return flags;
}

FlagField scatter_flags(const Rm3dEmulator& emulator,
                        const std::vector<Box>& coverage, IntVec3 dims,
                        double tau, double threshold) {
  FlagField flags(bounding_box(coverage));
  FlagPass pass(flags, coverage, dims, threshold);
  emulator.flag(pass, tau);
  return flags;
}

/// Coverage boxes of a level with domain `dims` at time `tau`: full-height
/// slabs across both edges of the mixing gate (where blobs can reach past
/// it), a box on the low faces, one on the high faces, and random interior
/// boxes.
std::vector<Box> random_coverage(util::Rng& rng, const Rm3dEmulator& emulator,
                                 IntVec3 dims, double tau) {
  auto draw = [&rng](int lo, int hi) {
    return static_cast<int>(rng.uniform_int(lo, hi));
  };
  std::vector<Box> boxes;
  const double center = emulator.mixing_center(tau);
  const double gate = 1.25 * emulator.mixing_width(tau);
  for (double edge : {center - gate, center + gate}) {
    const int lo = std::clamp(static_cast<int>((edge - 0.05) * dims.x), 0,
                              dims.x - 1);
    const int hi = std::clamp(static_cast<int>((edge + 0.05) * dims.x) + 1,
                              lo + 1, dims.x);
    boxes.emplace_back(IntVec3{lo, 0, 0}, IntVec3{hi, dims.y, dims.z});
  }
  boxes.emplace_back(IntVec3{0, 0, 0},
                     IntVec3{draw(8, dims.x / 2), draw(4, dims.y),
                             draw(4, dims.z)});
  boxes.emplace_back(
      IntVec3{draw(dims.x / 2, dims.x - 8), draw(0, dims.y - 4),
              draw(0, dims.z - 4)},
      dims);
  for (int i = 0; i < 2; ++i) {
    const IntVec3 lo{draw(0, dims.x - 8), draw(0, dims.y - 4),
                     draw(0, dims.z - 4)};
    boxes.emplace_back(lo, IntVec3{std::min(dims.x, lo.x + draw(4, 48)),
                                   std::min(dims.y, lo.y + draw(2, 24)),
                                   std::min(dims.z, lo.z + draw(2, 24))});
  }
  return boxes;
}

void expect_same_flags(const FlagField& want, const FlagField& got,
                       const std::vector<Box>& coverage) {
  ASSERT_EQ(want.domain(), got.domain());
  ASSERT_EQ(want.count(), got.count());
  for (const Box& box : coverage)
    for (int z = box.lo().z; z < box.hi().z; ++z)
      for (int y = box.lo().y; y < box.hi().y; ++y)
        for (int x = box.lo().x; x < box.hi().x; ++x)
          ASSERT_EQ(want.get({x, y, z}), got.get({x, y, z}))
              << "cell " << x << "," << y << "," << z;
}

// Taus in every phase: start-up noise, shock only, pre-hit slab, early
// post-hit blobs (a thin mixing zone, so blobs reach past its gate), late
// blobs, reshock, after reshock, end of run.
constexpr double kTaus[] = {0.0,  0.002, 0.05, 0.14, 0.19, 0.22, 0.25,
                            0.30, 0.52,  0.62, 0.81, 0.90, 1.0};

TEST(ScatterOracle, MatchesGatherOverPhasesSeedsAndCoverage) {
  util::Rng rng(2024);
  std::int64_t flagged = 0;
  for (int trial = 0; trial < 4; ++trial) {
    Rm3dConfig config;
    config.seed = 1 + rng() % 100000;
    // The paper's grid once; smaller grids (coarser cells, so each blob
    // spans fewer of them) for the other seeds.
    if (trial > 0) config.base_dims = {64, 16, 16};
    const Rm3dEmulator emulator(config);
    const IntVec3 base = config.base_dims;
    const IntVec3 fine = base * config.ratio;
    const std::vector<Box> whole{Box::from_dims(base)};
    for (double tau : kTaus) {
      const std::vector<Box> patches =
          random_coverage(rng, emulator, fine, tau);
      const std::vector<double> coarse = gather(emulator, whole, base, tau);
      const std::vector<double> refined =
          gather(emulator, patches, fine, tau);
      for (double threshold : config.thresholds) {
        SCOPED_TRACE("seed " + std::to_string(config.seed) + " tau " +
                     std::to_string(tau) + " threshold " +
                     std::to_string(threshold));
        const FlagField want = gather_flags(coarse, whole, threshold);
        expect_same_flags(want,
                          scatter_flags(emulator, whole, base, tau, threshold),
                          whole);
        const FlagField want_fine = gather_flags(refined, patches, threshold);
        expect_same_flags(
            want_fine, scatter_flags(emulator, patches, fine, tau, threshold),
            patches);
        flagged += want.count() + want_fine.count();
      }
    }
  }
  EXPECT_GT(flagged, 0);
}

TEST(ScatterOracle, EveryPhaseFlagsSomething) {
  // Guard against a vacuous comparison: each phase flags cells at the
  // level-1 threshold on the base grid.
  const Rm3dEmulator emulator;
  const IntVec3 base = emulator.config().base_dims;
  const std::vector<Box> whole{Box::from_dims(base)};
  for (double tau : kTaus)
    EXPECT_TRUE(scatter_flags(emulator, whole, base, tau, 1.0).any())
        << "tau " << tau;
}

TEST(ScatterOracle, NonPositiveThresholdFlagsAllCoverage) {
  const Rm3dEmulator emulator;
  const IntVec3 dims{64, 16, 16};
  const std::vector<Box> coverage{Box({0, 0, 0}, {8, 16, 4}),
                                  Box({40, 2, 2}, {64, 10, 16})};
  for (double tau : {0.0, 0.5}) {
    const FlagField want =
        gather_flags(gather(emulator, coverage, dims, tau), coverage, 0.0);
    expect_same_flags(want, scatter_flags(emulator, coverage, dims, tau, 0.0),
                      coverage);
    EXPECT_EQ(want.count(), total_volume(coverage));
  }
}

// ---------------------------------------------------------------------------
// One-pass clusterer vs. the multi-scan recursion.
// ---------------------------------------------------------------------------

Box scan_bounding_box(const FlagField& flags, const Box& region) {
  const Box clipped = flags.domain().intersection(region);
  IntVec3 lo = clipped.hi();
  IntVec3 hi = clipped.lo();
  bool found = false;
  for (int z = clipped.lo().z; z < clipped.hi().z; ++z)
    for (int y = clipped.lo().y; y < clipped.hi().y; ++y)
      for (int x = clipped.lo().x; x < clipped.hi().x; ++x) {
        if (!flags.get({x, y, z})) continue;
        found = true;
        lo = {std::min(lo.x, x), std::min(lo.y, y), std::min(lo.z, z)};
        hi = {std::max(hi.x, x + 1), std::max(hi.y, y + 1),
              std::max(hi.z, z + 1)};
      }
  return found ? Box(lo, hi) : Box{};
}

std::int64_t scan_count(const FlagField& flags, const Box& box) {
  std::int64_t total = 0;
  for (int z = box.lo().z; z < box.hi().z; ++z)
    for (int y = box.lo().y; y < box.hi().y; ++y)
      for (int x = box.lo().x; x < box.hi().x; ++x)
        total += flags.get({x, y, z}) ? 1 : 0;
  return total;
}

std::vector<std::int64_t> scan_signature(const FlagField& flags,
                                         const Box& box, int axis) {
  std::vector<std::int64_t> sig(static_cast<std::size_t>(box.extent()[axis]),
                                0);
  for (int z = box.lo().z; z < box.hi().z; ++z)
    for (int y = box.lo().y; y < box.hi().y; ++y)
      for (int x = box.lo().x; x < box.hi().x; ++x)
        if (flags.get({x, y, z})) {
          const IntVec3 p{x, y, z};
          sig[static_cast<std::size_t>(p[axis] - box.lo()[axis])] += 1;
        }
  return sig;
}

int scan_find_hole(const std::vector<std::int64_t>& sig, int lo,
                   int min_width) {
  const int n = static_cast<int>(sig.size());
  for (int i = min_width; i <= n - min_width; ++i)
    if (sig[static_cast<std::size_t>(i)] == 0) return lo + i;
  return -1;
}

int scan_find_inflection(const std::vector<std::int64_t>& sig, int lo,
                         int min_width) {
  const int n = static_cast<int>(sig.size());
  if (n < 2 * min_width) return -1;
  std::vector<std::int64_t> lap(static_cast<std::size_t>(n), 0);
  for (int i = 1; i + 1 < n; ++i)
    lap[static_cast<std::size_t>(i)] = sig[static_cast<std::size_t>(i - 1)] -
                                       2 * sig[static_cast<std::size_t>(i)] +
                                       sig[static_cast<std::size_t>(i + 1)];
  int best = -1;
  std::int64_t best_jump = 0;
  for (int i = std::max(1, min_width); i <= n - min_width && i + 1 < n; ++i) {
    const std::int64_t a = lap[static_cast<std::size_t>(i)];
    const std::int64_t b = lap[static_cast<std::size_t>(i + 1)];
    if ((a < 0 && b > 0) || (a > 0 && b < 0)) {
      const std::int64_t jump = std::llabs(a - b);
      if (jump > best_jump) {
        best_jump = jump;
        best = i + 1;
      }
    }
  }
  return best >= 0 ? lo + best : -1;
}

void scan_cluster(const FlagField& flags, const Box& region,
                  const ClusterOptions& options, int depth,
                  std::vector<Box>& out) {
  const Box bound = scan_bounding_box(flags, region);
  if (bound.empty()) return;
  const double efficiency = static_cast<double>(scan_count(flags, bound)) /
                            static_cast<double>(bound.volume());
  const IntVec3 e = bound.extent();
  const bool splittable = e.x >= 2 * options.min_width ||
                          e.y >= 2 * options.min_width ||
                          e.z >= 2 * options.min_width;
  if (efficiency >= options.efficiency || !splittable ||
      depth >= options.max_depth) {
    out.push_back(bound);
    return;
  }
  int axes[3] = {0, 1, 2};
  std::sort(std::begin(axes), std::end(axes), [&](int a, int b) {
    return bound.extent()[a] > bound.extent()[b];
  });
  auto recurse_split = [&](int axis, int cut) {
    const auto halves = bound.split(axis, cut);
    scan_cluster(flags, halves[0], options, depth + 1, out);
    scan_cluster(flags, halves[1], options, depth + 1, out);
  };
  for (int axis : axes) {
    if (bound.extent()[axis] < 2 * options.min_width) continue;
    const int cut = scan_find_hole(scan_signature(flags, bound, axis),
                                   bound.lo()[axis], options.min_width);
    if (cut >= 0) {
      recurse_split(axis, cut);
      return;
    }
  }
  for (int axis : axes) {
    if (bound.extent()[axis] < 2 * options.min_width) continue;
    const int cut = scan_find_inflection(scan_signature(flags, bound, axis),
                                         bound.lo()[axis], options.min_width);
    if (cut >= 0) {
      recurse_split(axis, cut);
      return;
    }
  }
  const int axis = axes[0];
  if (bound.extent()[axis] >= 2 * options.min_width) {
    recurse_split(axis, bound.lo()[axis] + bound.extent()[axis] / 2);
    return;
  }
  out.push_back(bound);
}

std::vector<Box> scan_cluster_flags(const FlagField& flags, const Box& region,
                                    const ClusterOptions& options) {
  std::vector<Box> out;
  scan_cluster(flags, region, options, 0, out);
  if (options.max_box_cells > 0) {
    std::vector<Box> chopped;
    for (const Box& box : out)
      for (const Box& piece : box.chop(options.max_box_cells))
        chopped.push_back(piece);
    out = std::move(chopped);
  }
  return out;
}

ClusterOptions random_options(util::Rng& rng) {
  ClusterOptions options;
  options.efficiency = rng.uniform(0.3, 0.95);
  options.min_width = static_cast<int>(rng.uniform_int(1, 6));
  options.max_box_cells = rng.bernoulli(0.3) ? rng.uniform_int(64, 2048) : 0;
  options.max_depth = rng.bernoulli(0.2) ? 3 : 64;
  return options;
}

/// Sub-region of `domain` (sometimes the whole domain, sometimes larger).
Box random_region(util::Rng& rng, const Box& domain) {
  if (rng.bernoulli(0.4)) return domain;
  if (rng.bernoulli(0.2)) return domain.grow(3);
  const IntVec3 e = domain.extent();
  IntVec3 lo;
  IntVec3 hi;
  for (int axis = 0; axis < 3; ++axis) {
    lo[axis] = domain.lo()[axis] +
               static_cast<int>(rng.uniform_int(0, e[axis] / 2));
    hi[axis] = domain.hi()[axis] -
               static_cast<int>(rng.uniform_int(0, e[axis] / 2 - 1));
  }
  return Box(lo, hi);
}

void expect_same_clusters(const FlagField& flags, util::Rng& rng) {
  const ClusterOptions options = random_options(rng);
  const Box region = random_region(rng, flags.domain());
  SCOPED_TRACE("efficiency " + std::to_string(options.efficiency) +
               " min_width " + std::to_string(options.min_width) +
               " max_box_cells " + std::to_string(options.max_box_cells));
  EXPECT_EQ(cluster_flags(flags, region, options),
            scan_cluster_flags(flags, region, options));
}

IntVec3 random_dims(util::Rng& rng) {
  return {static_cast<int>(rng.uniform_int(6, 40)),
          static_cast<int>(rng.uniform_int(6, 28)),
          static_cast<int>(rng.uniform_int(4, 20))};
}

TEST(ClusterOracle, OnePassMatchesMultiScanOnBernoulliFields) {
  util::Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const IntVec3 dims = random_dims(rng);
    const IntVec3 origin{static_cast<int>(rng.uniform_int(-5, 5)),
                         static_cast<int>(rng.uniform_int(-5, 5)), 0};
    FlagField flags(Box(origin, origin + dims));
    const double density = rng.uniform(0.0, 0.6);
    flags.flag_where([&](IntVec3) { return rng.bernoulli(density); });
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_clusters(flags, rng);
  }
}

TEST(ClusterOracle, OnePassMatchesMultiScanOnBlockFields) {
  util::Rng rng(78);
  for (int trial = 0; trial < 60; ++trial) {
    const IntVec3 dims = random_dims(rng);
    FlagField flags(Box::from_dims(dims));
    const int blocks = static_cast<int>(rng.uniform_int(1, 6));
    for (int b = 0; b < blocks; ++b) {
      IntVec3 lo;
      IntVec3 hi;
      for (int axis = 0; axis < 3; ++axis) {
        lo[axis] = static_cast<int>(rng.uniform_int(0, dims[axis] - 1));
        hi[axis] = std::min(
            dims[axis], lo[axis] + static_cast<int>(rng.uniform_int(1, 12)));
      }
      flags.fill(Box(lo, hi));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_clusters(flags, rng);
  }
}

}  // namespace
}  // namespace pragma::amr
