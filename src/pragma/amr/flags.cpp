#include "pragma/amr/flags.hpp"

#include <stdexcept>

namespace pragma::amr {

FlagField::FlagField(Box domain) : domain_(domain), dims_(domain.extent()) {
  if (domain.empty()) throw std::invalid_argument("FlagField: empty domain");
  cells_.assign(static_cast<std::size_t>(domain.volume()), 0);
}

std::size_t FlagField::index(IntVec3 p) const {
  const IntVec3 rel = p - domain_.lo();
  return (static_cast<std::size_t>(rel.z) * dims_.y +
          static_cast<std::size_t>(rel.y)) *
             static_cast<std::size_t>(dims_.x) +
         static_cast<std::size_t>(rel.x);
}

void FlagField::set(IntVec3 p, bool flagged) {
  if (!domain_.contains(p)) return;
  std::uint8_t& cell = cells_[index(p)];
  if (cell != static_cast<std::uint8_t>(flagged)) {
    count_ += flagged ? 1 : -1;
    cell = static_cast<std::uint8_t>(flagged);
  }
}

bool FlagField::get(IntVec3 p) const {
  if (!domain_.contains(p)) return false;
  return cells_[index(p)] != 0;
}

void FlagField::fill(const Box& box) {
  const Box clipped = domain_.intersection(box);
  if (clipped.empty()) return;
  const int width = clipped.extent().x;
  for (int z = clipped.lo().z; z < clipped.hi().z; ++z)
    for (int y = clipped.lo().y; y < clipped.hi().y; ++y) {
      std::uint8_t* row = &cells_[index({clipped.lo().x, y, z})];
      for (int i = 0; i < width; ++i) {
        count_ += 1 - row[i];
        row[i] = 1;
      }
    }
}

void FlagField::flag_where(const std::function<bool(IntVec3)>& predicate) {
  for (int z = domain_.lo().z; z < domain_.hi().z; ++z)
    for (int y = domain_.lo().y; y < domain_.hi().y; ++y)
      for (int x = domain_.lo().x; x < domain_.hi().x; ++x) {
        const IntVec3 p{x, y, z};
        if (predicate(p)) set(p);
      }
}

std::int64_t FlagField::count() const { return count_; }

std::int64_t FlagField::count_in(const Box& box) const {
  return signatures(box).count;
}

FlagSignatures FlagField::signatures(const Box& region) const {
  FlagSignatures out;
  const Box clipped = domain_.intersection(region);
  if (clipped.empty()) return out;
  const IntVec3 lo = clipped.lo();
  const IntVec3 e = clipped.extent();
  std::array<std::vector<std::int64_t>, 3> sig;
  for (int axis = 0; axis < 3; ++axis)
    sig[axis].assign(static_cast<std::size_t>(e[axis]), 0);
  for (int z = 0; z < e.z; ++z)
    for (int y = 0; y < e.y; ++y) {
      const std::uint8_t* row = &cells_[index({lo.x, lo.y + y, lo.z + z})];
      std::int64_t in_row = 0;
      for (int x = 0; x < e.x; ++x) {
        sig[0][static_cast<std::size_t>(x)] += row[x];
        in_row += row[x];
      }
      sig[1][static_cast<std::size_t>(y)] += in_row;
      sig[2][static_cast<std::size_t>(z)] += in_row;
      out.count += in_row;
    }
  if (out.count == 0) return out;

  IntVec3 bound_lo;
  IntVec3 bound_hi;
  for (int axis = 0; axis < 3; ++axis) {
    const std::vector<std::int64_t>& s = sig[axis];
    std::size_t first = 0;
    while (s[first] == 0) ++first;
    std::size_t last = s.size();
    while (s[last - 1] == 0) --last;
    bound_lo[axis] = lo[axis] + static_cast<int>(first);
    bound_hi[axis] = lo[axis] + static_cast<int>(last);
    out.planes[axis].assign(s.begin() + static_cast<std::ptrdiff_t>(first),
                            s.begin() + static_cast<std::ptrdiff_t>(last));
  }
  out.bound = Box(bound_lo, bound_hi);
  return out;
}

}  // namespace pragma::amr
