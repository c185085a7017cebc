// Hierarchy deltas: the structural difference between two SAMR snapshots.
//
// Most regrids move a small fraction of the hierarchy's boxes, so the
// runtime-management loop (characterize -> repartition) should pay in
// proportion to *change*, not to hierarchy size.  A HierarchyDelta records,
// per level, exactly which boxes disappeared and which appeared between two
// GridHierarchy snapshots (a resized or moved box is one removal plus one
// addition).  WorkGrid::apply_delta then touches only the grain cells
// those boxes cover.  Deltas can be computed by diffing two snapshots
// (diff_hierarchies, AdaptationTrace::delta) or emitted directly by an AMR
// driver that already knows what it changed.
#pragma once

#include <cstddef>
#include <vector>

#include "pragma/amr/hierarchy.hpp"

namespace pragma::amr {

/// Box changes of one refinement level, in that level's index space.
struct LevelDelta {
  int level = 0;
  std::vector<Box> removed;  ///< in `before` but not in `after`
  std::vector<Box> added;    ///< in `after` but not in `before`
};

struct HierarchyDelta {
  /// Static configuration both snapshots must share for the delta to be
  /// applicable to a rasterized view.  `compatible` is false when the base
  /// domain or refinement ratio changed — consumers must rebuild.
  IntVec3 base_dims{0, 0, 0};
  int ratio = 2;
  bool compatible = true;

  int before_levels = 0;
  int after_levels = 0;
  /// Only levels with at least one change appear here, ascending by level.
  std::vector<LevelDelta> levels;

  std::size_t boxes_before = 0;
  std::size_t boxes_after = 0;

  [[nodiscard]] bool empty() const { return levels.empty(); }
  /// Total boxes added plus removed across levels.
  [[nodiscard]] std::size_t changed_boxes() const;
  /// Changed boxes over the union box population of the two snapshots:
  /// 0 = identical hierarchies, ~2 = complete turnover.
  [[nodiscard]] double churn() const;
  /// The inverse delta (after -> before): added and removed swapped per
  /// level, before/after metadata swapped.  Applying a delta then its
  /// reverse is an exact round trip for the integer-valued consumers.
  [[nodiscard]] HierarchyDelta reversed() const;
};

/// Per-level set difference of the two snapshots' box lists.  Box identity
/// is exact coordinate equality; order within a level does not matter.
[[nodiscard]] HierarchyDelta diff_hierarchies(const GridHierarchy& before,
                                              const GridHierarchy& after);

}  // namespace pragma::amr
