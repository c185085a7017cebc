// Refinement-flag field over a box region.
//
// The error estimator (here: the RM3D emulator's feature functions) tags
// cells needing refinement; the Berger–Rigoutsos clusterer turns tagged
// cells into patch boxes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "pragma/amr/box.hpp"

namespace pragma::amr {

/// What one pass over a region of a FlagField finds.
struct FlagSignatures {
  /// Smallest box containing every flagged cell of the region (empty box
  /// if none).
  Box bound;
  /// Flagged cells in the region.
  std::int64_t count = 0;
  /// The Berger–Rigoutsos signatures of `bound`: per-plane flagged-cell
  /// counts along each axis, planes[axis][i] for plane bound.lo()[axis] + i.
  /// Exact for `bound` because every flagged cell of the region lies in it.
  std::array<std::vector<std::int64_t>, 3> planes;
};

class FlagField {
 public:
  explicit FlagField(Box domain);

  [[nodiscard]] const Box& domain() const { return domain_; }

  void set(IntVec3 p, bool flagged = true);
  [[nodiscard]] bool get(IntVec3 p) const;

  /// Flag every cell of `box` (clipped to the domain).
  void fill(const Box& box);

  /// Flag every cell for which `predicate(cell)` holds.
  void flag_where(const std::function<bool(IntVec3)>& predicate);

  [[nodiscard]] std::int64_t count() const;
  [[nodiscard]] std::int64_t count_in(const Box& box) const;
  [[nodiscard]] bool any() const { return count_ > 0; }

  /// Bounding box, flagged count and signatures of the flagged cells in
  /// `region` (clipped to the domain), from one row-wise pass.
  [[nodiscard]] FlagSignatures signatures(const Box& region) const;

 private:
  [[nodiscard]] std::size_t index(IntVec3 p) const;
  Box domain_;
  IntVec3 dims_;
  std::vector<std::uint8_t> cells_;
  std::int64_t count_ = 0;
};

}  // namespace pragma::amr
