#include "pragma/partition/workgrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/util/arena.hpp"

namespace pragma::partition {

namespace {
/// One rasterization unit: a box with its level's precomputed weights.
struct BoxTask {
  const amr::Box* box;
  double work_per_l0;
  double cells_per_l0;
  int rr;
};

/// Per-box weights of level l (MIT substepping: a level-l cell advances
/// r^l times per coarse step).  Must repeat GridHierarchy::cumulative_ratio
/// exactly so delta application matches full builds bit for bit.
BoxTask make_task(const amr::Box& box, int level, int ratio) {
  std::int64_t rr = 1;
  for (int i = 0; i < level; ++i) rr *= ratio;
  const auto r = static_cast<double>(rr);
  const double cells_per_l0 = r * r * r;        // level-l cells per L0 cell
  const double work_per_l0 = cells_per_l0 * r;  // MIT substeps
  return {&box, work_per_l0, cells_per_l0, static_cast<int>(rr)};
}

/// Reference scalar kernel (the pre-SIMD implementation): rasterize one box
/// onto (work, storage) and its level's cover plane via per-cell Box
/// intersections.  Kept as the bitwise oracle for rasterize_box below.
void reference_rasterize_box(const BoxTask& task, int grain,
                             amr::IntVec3 dims, double* work, double* storage,
                             std::uint32_t* cover) {
  const amr::Box in_l0 = task.box->coarsen(task.rr);
  const amr::IntVec3 glo{in_l0.lo().x / grain, in_l0.lo().y / grain,
                         in_l0.lo().z / grain};
  const amr::IntVec3 ghi{(in_l0.hi().x + grain - 1) / grain,
                         (in_l0.hi().y + grain - 1) / grain,
                         (in_l0.hi().z + grain - 1) / grain};
  for (int gz = glo.z; gz < ghi.z; ++gz)
    for (int gy = glo.y; gy < ghi.y; ++gy)
      for (int gx = glo.x; gx < ghi.x; ++gx) {
        const amr::Box cell({gx * grain, gy * grain, gz * grain},
                            {(gx + 1) * grain, (gy + 1) * grain,
                             (gz + 1) * grain});
        const auto overlap =
            static_cast<double>(cell.intersection(in_l0).volume());
        if (overlap <= 0.0) continue;
        const std::size_t c =
            static_cast<std::size_t>(gx) +
            static_cast<std::size_t>(dims.x) *
                (static_cast<std::size_t>(gy) +
                 static_cast<std::size_t>(dims.y) *
                     static_cast<std::size_t>(gz));
        work[c] += overlap * task.work_per_l0;
        storage[c] += overlap * task.cells_per_l0;
        cover[c] += 1;
      }
}

/// Vectorizable kernel: the box's per-axis overlap lengths are materialized
/// once into arena scratch, then each lattice row is updated with a
/// branchless stride-1 loop (no Box construction, no intersection test —
/// every cell in the coarsened footprint overlaps by construction).  All
/// per-cell contributions are products of exact small integers, so the
/// factored form (ox * (oy*oz*weight)) produces bitwise-identical sums to
/// the reference kernel's (ox*oy*oz) * weight.
///
/// `sign` is +1 to deposit a box and -1 to withdraw it (apply_delta);
/// `touched`, when non-null, stamps every cell the box covers.
void rasterize_box(const BoxTask& task, int grain, amr::IntVec3 dims,
                   double* work, double* storage, std::uint32_t* cover,
                   double sign, std::uint8_t* touched) {
  const amr::Box in_l0 = task.box->coarsen(task.rr);
  const amr::IntVec3 glo{in_l0.lo().x / grain, in_l0.lo().y / grain,
                         in_l0.lo().z / grain};
  const amr::IntVec3 ghi{(in_l0.hi().x + grain - 1) / grain,
                         (in_l0.hi().y + grain - 1) / grain,
                         (in_l0.hi().z + grain - 1) / grain};
  const int nx = ghi.x - glo.x;
  const int ny = ghi.y - glo.y;
  const int nz = ghi.z - glo.z;
  if (nx <= 0 || ny <= 0 || nz <= 0) return;

  util::ScratchArena& arena = util::scratch_arena();
  arena.reset();
  const std::span<double> ox = arena.make_span<double>(
      static_cast<std::size_t>(nx));
  const std::span<double> oy = arena.make_span<double>(
      static_cast<std::size_t>(ny));
  const std::span<double> oz = arena.make_span<double>(
      static_cast<std::size_t>(nz));
  const auto axis_overlap = [grain](int g, int lo, int hi) {
    const int a = std::max(lo, g * grain);
    const int b = std::min(hi, (g + 1) * grain);
    return static_cast<double>(b - a);
  };
  for (int i = 0; i < nx; ++i)
    ox[static_cast<std::size_t>(i)] =
        axis_overlap(glo.x + i, in_l0.lo().x, in_l0.hi().x);
  for (int j = 0; j < ny; ++j)
    oy[static_cast<std::size_t>(j)] =
        axis_overlap(glo.y + j, in_l0.lo().y, in_l0.hi().y);
  for (int k = 0; k < nz; ++k)
    oz[static_cast<std::size_t>(k)] =
        axis_overlap(glo.z + k, in_l0.lo().z, in_l0.hi().z);

  const std::uint32_t cover_delta = sign < 0.0
                                        ? static_cast<std::uint32_t>(-1)
                                        : static_cast<std::uint32_t>(1);
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j) {
      const double oyz = oy[static_cast<std::size_t>(j)] *
                         oz[static_cast<std::size_t>(k)];
      const double wyz = sign * (oyz * task.work_per_l0);
      const double syz = sign * (oyz * task.cells_per_l0);
      const std::size_t base =
          static_cast<std::size_t>(glo.x) +
          static_cast<std::size_t>(dims.x) *
              (static_cast<std::size_t>(glo.y + j) +
               static_cast<std::size_t>(dims.y) *
                   static_cast<std::size_t>(glo.z + k));
      double* wrow = work + base;
      double* srow = storage + base;
      std::uint32_t* crow = cover + base;
      for (int i = 0; i < nx; ++i) {
        const double o = ox[static_cast<std::size_t>(i)];
        wrow[i] += o * wyz;
        srow[i] += o * syz;
        crow[i] += cover_delta;
      }
      if (touched != nullptr) {
        std::uint8_t* trow = touched + base;
        for (int i = 0; i < nx; ++i) trow[i] = 1;
      }
    }
}
}  // namespace

WorkGrid::WorkGrid(const amr::GridHierarchy& hierarchy, int grain,
                   CurveKind curve)
    : WorkGrid(hierarchy, grain, curve, /*reference_kernels=*/false) {}

WorkGrid WorkGrid::reference_build(const amr::GridHierarchy& hierarchy,
                                   int grain, CurveKind curve) {
  return WorkGrid(hierarchy, grain, curve, /*reference_kernels=*/true);
}

WorkGrid::WorkGrid(const amr::GridHierarchy& hierarchy, int grain,
                   CurveKind curve, bool reference_kernels)
    : grain_(grain),
      num_levels_(hierarchy.num_levels()),
      ratio_(hierarchy.ratio()),
      curve_(curve) {
  if (grain <= 0) throw std::invalid_argument("WorkGrid: grain <= 0");
  PRAGMA_SPAN_VAR(span, "partition", "WorkGrid.build");
  span.annotate("grain", static_cast<std::int64_t>(grain));
  const amr::IntVec3 base = hierarchy.base_dims();
  dims_ = {(base.x + grain - 1) / grain, (base.y + grain - 1) / grain,
           (base.z + grain - 1) / grain};
  const std::size_t count = static_cast<std::size_t>(dims_.x) *
                            static_cast<std::size_t>(dims_.y) *
                            static_cast<std::size_t>(dims_.z);
  work_.assign(count, 0.0);
  levels_.assign(count, 0u);
  storage_.assign(count, 0.0);
  cover_.assign(count * static_cast<std::size_t>(num_levels_), 0u);

  // Rasterize each level's boxes onto the grain lattice.  A level-l box is
  // first coarsened to level-0 index space; for each overlapped grain cell
  // the exact level-0 overlap volume is scaled back to level-l quantities.
  for (const amr::GridLevel& level : hierarchy.levels()) {
    std::uint32_t* plane =
        cover_.data() + static_cast<std::size_t>(level.level) * count;
    for (const amr::Box& box : level.boxes) {
      const BoxTask task = make_task(box, level.level, ratio_);
      if (reference_kernels)
        reference_rasterize_box(task, grain, dims_, work_.data(),
                                storage_.data(), plane);
      else
        rasterize_box(task, grain, dims_, work_.data(), storage_.data(),
                      plane, 1.0, nullptr);
    }
  }

  // Level bitmasks are derived from the cover counts (bit l set iff any
  // level-l box covers the cell) — counts, unlike bits, survive removal.
  for (int l = 0; l < num_levels_; ++l) {
    const std::uint32_t bit = 1u << l;
    const std::uint32_t* plane =
        cover_.data() + static_cast<std::size_t>(l) * count;
    for (std::size_t c = 0; c < count; ++c)
      levels_[c] |= plane[c] != 0 ? bit : 0u;
  }

  total_work_ = 0.0;
  for (double w : work_) total_work_ += w;

  order_ = curve_order_shared(dims_, curve);
  sequence_.reserve(order_->size());
  for (std::uint32_t c : *order_) sequence_.push_back(work_[c]);
  prefix_ = PrefixSums(sequence_);
}

bool WorkGrid::apply_delta(const amr::HierarchyDelta& delta) {
  if (!delta.compatible) return false;
  if (delta.after_levels < 1 || delta.after_levels > 32) return false;
  if (delta.before_levels != num_levels_) return false;
  const amr::IntVec3 expect{(delta.base_dims.x + grain_ - 1) / grain_,
                            (delta.base_dims.y + grain_ - 1) / grain_,
                            (delta.base_dims.z + grain_ - 1) / grain_};
  if (!(expect == dims_)) return false;
  const int max_levels = std::max(num_levels_, delta.after_levels);
  for (const amr::LevelDelta& level : delta.levels)
    if (level.level < 0 || level.level >= max_levels) return false;
  if (delta.empty()) return true;

  PRAGMA_SPAN_VAR(span, "partition", "WorkGrid.apply_delta");
  const std::size_t count = work_.size();

  // Grow the cover planes when the delta deepens the hierarchy; trailing
  // planes of removed levels end up all-zero and are trimmed below.
  cover_.resize(count * static_cast<std::size_t>(max_levels), 0u);

  // Withdraw removed boxes, deposit added ones, stamping every grain cell
  // either kind covers.  The per-cell contributions are exact integers, so
  // subtraction restores the pre-box sums bit for bit.
  std::vector<std::uint8_t> touched(count, 0);
  std::size_t changed_boxes = 0;
  for (const amr::LevelDelta& level : delta.levels) {
    std::uint32_t* plane =
        cover_.data() + static_cast<std::size_t>(level.level) * count;
    // A box's total work contribution is its coarsened volume times the
    // level weight (the grain-cell overlaps tile the coarsened box), so
    // total_work_ updates in O(1) per box — and stays bitwise-identical to
    // the constructor's fold because every quantity is an exact integer.
    for (const amr::Box& box : level.removed) {
      const BoxTask task = make_task(box, level.level, ratio_);
      rasterize_box(task, grain_, dims_, work_.data(), storage_.data(),
                    plane, -1.0, touched.data());
      total_work_ -= static_cast<double>(box.coarsen(task.rr).volume()) *
                     task.work_per_l0;
    }
    for (const amr::Box& box : level.added) {
      const BoxTask task = make_task(box, level.level, ratio_);
      rasterize_box(task, grain_, dims_, work_.data(), storage_.data(),
                    plane, 1.0, touched.data());
      total_work_ += static_cast<double>(box.coarsen(task.rr).volume()) *
                     task.work_per_l0;
    }
    changed_boxes += level.removed.size() + level.added.size();
  }
  num_levels_ = delta.after_levels;
  cover_.resize(count * static_cast<std::size_t>(num_levels_));

  // Re-derive the level bitmask of touched cells from the cover counts and
  // refresh their entries in the SFC-ordered sequence; untouched cells are
  // exactly as a full rebuild would leave them.
  if (!rank_) rank_ = curve_rank_shared(dims_, curve_);
  const std::vector<std::uint32_t>& rank = *rank_;
  std::size_t touched_cells = 0;
  std::size_t min_rank = sequence_.size();
  for (std::size_t c = 0; c < count; ++c) {
    if (!touched[c]) continue;
    ++touched_cells;
    std::uint32_t mask = 0;
    for (int l = 0; l < num_levels_; ++l) {
      const std::uint32_t covered =
          cover_[static_cast<std::size_t>(l) * count + c];
      mask |= covered != 0 ? 1u << l : 0u;
    }
    levels_[c] = mask;
    const std::size_t r = rank[c];
    sequence_[r] = work_[c];
    min_rank = std::min(min_rank, r);
  }
  if (min_rank < sequence_.size()) prefix_.update_suffix(min_rank, sequence_);

  span.annotate("boxes", changed_boxes);
  span.annotate("touched_cells", touched_cells);
  span.annotate("cells", count);
  return true;
}

WorkGrid WorkGrid::derive(const WorkGrid& previous,
                          const amr::GridHierarchy& before,
                          const amr::GridHierarchy& after, bool* incremental) {
  WorkGrid updated = previous;
  if (updated.apply_delta(amr::diff_hierarchies(before, after))) {
    *incremental = true;
    return updated;
  }
  *incremental = false;
  return WorkGrid(after, previous.grain_, previous.curve_);
}

amr::IntVec3 WorkGrid::coords(std::size_t c) const {
  const auto x = static_cast<int>(c % static_cast<std::size_t>(dims_.x));
  const auto y = static_cast<int>((c / static_cast<std::size_t>(dims_.x)) %
                                  static_cast<std::size_t>(dims_.y));
  const auto z = static_cast<int>(c / (static_cast<std::size_t>(dims_.x) *
                                       static_cast<std::size_t>(dims_.y)));
  return {x, y, z};
}

amr::Box WorkGrid::cell_box(std::size_t c) const {
  const amr::IntVec3 p = coords(c);
  return amr::Box({p.x * grain_, p.y * grain_, p.z * grain_},
                  {(p.x + 1) * grain_, (p.y + 1) * grain_,
                   (p.z + 1) * grain_});
}

namespace {
struct CacheCounters {
  obs::Counter& hits = obs::metrics().counter("partition.workgrid_cache.hits");
  obs::Counter& misses =
      obs::metrics().counter("partition.workgrid_cache.misses");
  obs::Counter& evictions =
      obs::metrics().counter("partition.workgrid_cache.evictions");
  obs::Counter& incremental =
      obs::metrics().counter("partition.workgrid_cache.incremental_builds");
  obs::Counter& full =
      obs::metrics().counter("partition.workgrid_cache.full_builds");
};

CacheCounters& cache_counters() {
  static CacheCounters counters;
  return counters;
}
}  // namespace

WorkGridCache::WorkGridCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(1, max_entries)) {}

std::shared_ptr<const WorkGrid> WorkGridCache::find_locked(const Key& key) {
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++stats_.misses;
    cache_counters().misses.add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  ++stats_.hits;
  cache_counters().hits.add();
  return it->second.grid;
}

std::shared_ptr<const WorkGrid> WorkGridCache::insert_locked(
    const Key& key, std::shared_ptr<const WorkGrid> grid) {
  const auto [it, inserted] = cache_.try_emplace(key);
  if (!inserted) return it->second.grid;  // lost a concurrent-build race
  lru_.push_front(key);
  it->second = Entry{std::move(grid), lru_.begin()};
  while (cache_.size() > max_entries_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    cache_counters().evictions.add();
  }
  return it->second.grid;
}

std::shared_ptr<const WorkGrid> WorkGridCache::at(
    const amr::AdaptationTrace& trace, std::size_t index, int grain,
    CurveKind curve) {
  const amr::GridHierarchy& hierarchy = trace.at(index).hierarchy;
  const Key key{index, grain, curve};
  std::shared_ptr<const WorkGrid> previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto grid = find_locked(key)) return grid;
    if (index > 0) {
      const auto it = cache_.find(Key{index - 1, grain, curve});
      if (it != cache_.end()) previous = it->second.grid;
    }
  }
  // Make the grid outside the lock; a concurrent maker of the same key
  // loses the insertion race and its grid is dropped.
  bool incremental = false;
  auto grid = std::make_shared<const WorkGrid>(
      previous != nullptr
          ? WorkGrid::derive(*previous, trace.at(index - 1).hierarchy,
                             hierarchy, &incremental)
          : WorkGrid(hierarchy, grain, curve));
  std::lock_guard<std::mutex> lock(mutex_);
  if (incremental) {
    ++stats_.incremental_builds;
    cache_counters().incremental.add();
  } else {
    ++stats_.full_builds;
    cache_counters().full.add();
  }
  return insert_locked(key, std::move(grid));
}

std::size_t WorkGridCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void WorkGridCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  lru_.clear();
}

WorkGridCache::Stats WorkGridCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pragma::partition
