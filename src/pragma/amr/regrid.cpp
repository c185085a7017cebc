#include "pragma/amr/regrid.hpp"

#include <algorithm>

namespace pragma::amr {

namespace {

/// Sets [lo, hi) to cover every cell, along an axis of `n` cells, whose
/// centre can lie within `radius` of `centre`, with one cell of margin on
/// each side for rounding.
void reach(double centre, double radius, int n, int& lo, int& hi) {
  const double limit = static_cast<double>(n) + 1.0;
  lo = static_cast<int>(
      std::clamp(std::floor((centre - radius) * n) - 1.0, -1.0, limit));
  hi = static_cast<int>(
      std::clamp(std::ceil((centre + radius) * n) + 1.0, -1.0, limit));
}

}  // namespace

FlagPass::FlagPass(FlagField& flags, const std::vector<Box>& coverage,
                   IntVec3 level_dims, double threshold)
    : flags_(flags), threshold_(threshold) {
  const Box domain = Box::from_dims(level_dims);
  for (const Box& box : coverage) {
    const Box cells = box.intersection(domain);
    if (!cells.empty()) coverage_.push_back(cells);
  }
  for (int axis = 0; axis < 3; ++axis) {
    const double n = static_cast<double>(level_dims[axis]);
    std::vector<double>& c = centres_[static_cast<std::size_t>(axis)];
    c.resize(static_cast<std::size_t>(level_dims[axis]));
    for (std::size_t i = 0; i < c.size(); ++i)
      c[i] = (static_cast<double>(i) + 0.5) / n;
  }
  if (threshold_ <= 0.0)
    for (const Box& box : coverage_) flags_.fill(box);
}

void FlagPass::flag_columns(const std::vector<std::uint8_t>& column) {
  for (const Box& box : coverage_) {
    int x = box.lo().x;
    while (x < box.hi().x) {
      if (!column[static_cast<std::size_t>(x)]) {
        ++x;
        continue;
      }
      const int run_lo = x;
      while (x < box.hi().x && column[static_cast<std::size_t>(x)]) ++x;
      flags_.fill(Box({run_lo, box.lo().y, box.lo().z},
                      {x, box.hi().y, box.hi().z}));
    }
  }
}

void FlagPass::splat(const SphereFeature& feature,
                     const std::vector<std::uint8_t>* gate) {
  // bump() never exceeds the feature's strength.
  if (feature.strength < threshold_) return;
  const double at[3] = {feature.u, feature.v, feature.w};
  IntVec3 lo;
  IntVec3 hi;
  for (int axis = 0; axis < 3; ++axis)
    reach(at[axis], feature.radius,
          static_cast<int>(centres_[static_cast<std::size_t>(axis)].size()),
          lo[axis], hi[axis]);
  const Box bounds(lo, hi);
  const std::vector<double>& cu = centres_[0];
  const std::vector<double>& cv = centres_[1];
  const std::vector<double>& cw = centres_[2];
  for (const Box& box : coverage_) {
    const Box cells = box.intersection(bounds);
    for (int z = cells.lo().z; z < cells.hi().z; ++z) {
      const double w = cw[static_cast<std::size_t>(z)];
      for (int y = cells.lo().y; y < cells.hi().y; ++y) {
        const double v = cv[static_cast<std::size_t>(y)];
        for (int x = cells.lo().x; x < cells.hi().x; ++x) {
          if (gate && !(*gate)[static_cast<std::size_t>(x)]) continue;
          if (feature.value(cu[static_cast<std::size_t>(x)], v, w) >=
              threshold_)
            flags_.set({x, y, z});
        }
      }
    }
  }
}

GridHierarchy build_hierarchy(IntVec3 base_dims, int ratio, int max_levels,
                              const std::vector<double>& thresholds,
                              const ClusterOptions& cluster,
                              const LevelFlagger& flag) {
  GridHierarchy h(base_dims, ratio, max_levels);
  // Clustering happens in level-l index space; the patch-size bound applies
  // to the emitted level-(l+1) patches, so chop after refinement.
  ClusterOptions options = cluster;
  options.max_box_cells = 0;
  for (int level = 0; level + 1 < max_levels; ++level) {
    const std::vector<Box>& coverage = h.level(level).boxes;
    const Box field_domain = bounding_box(coverage);
    FlagField flags(field_domain);
    FlagPass pass(flags, coverage,
                  base_dims * static_cast<int>(h.cumulative_ratio(level)),
                  thresholds[static_cast<std::size_t>(level)]);
    flag(pass);
    if (!flags.any()) break;

    std::vector<Box> refined;
    for (const Box& box : cluster_flags(flags, field_domain, options)) {
      const Box fine = box.refine(ratio);
      if (cluster.max_box_cells > 0 && fine.volume() > cluster.max_box_cells) {
        for (const Box& piece : fine.chop(cluster.max_box_cells))
          refined.push_back(piece);
      } else {
        refined.push_back(fine);
      }
    }
    h.set_level_boxes(level + 1, std::move(refined));
  }
  return h;
}

}  // namespace pragma::amr
