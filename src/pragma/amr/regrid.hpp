// Feature-driven regridding shared by the analytic emulators.
//
// The RM3D and galaxy emulators refine where an analytic indicator reaches
// a per-level threshold.  Each indicator is the maximum of non-negative
// terms, and a maximum of doubles is exact, so `indicator >= t` holds
// exactly when some term is >= t.  The flags can therefore be produced
// feature by feature: terms that depend only on x are evaluated once per x
// column, and each compact feature marks only the cells inside its reach (a
// scatter), instead of every cell evaluating every feature (a gather).  The
// per-cell arithmetic is the same expression either way, so the flags are
// identical bit for bit.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "pragma/amr/cluster_br.hpp"
#include "pragma/amr/hierarchy.hpp"

namespace pragma::amr {

/// Compact quadratic bump: s at distance 0, 0 beyond `radius`.
[[nodiscard]] inline double bump(double distance, double radius, double s) {
  const double q = distance / radius;
  const double v = 1.0 - q * q;
  return v > 0.0 ? s * v : 0.0;
}

/// A spherical feature in normalized coordinates: a quadratic bump of
/// height `strength` around (u, v, w).
struct SphereFeature {
  double u = 0.0;
  double v = 0.0;
  double w = 0.0;
  double radius = 0.0;
  double strength = 0.0;

  /// The feature's indicator term at (pu, pv, pw): 0 outside its bounding
  /// cube, bump(distance, radius, strength) inside.
  [[nodiscard]] double value(double pu, double pv, double pw) const {
    const double du = pu - u;
    const double dv = pv - v;
    const double dw = pw - w;
    if (std::abs(du) > radius || std::abs(dv) > radius ||
        std::abs(dw) > radius)
      return 0.0;
    return bump(std::sqrt(du * du + dv * dv + dw * dw), radius, strength);
  }
};

/// One level's flag pass: the covered cells (coverage clipped to the
/// level domain [0, level_dims)), their normalized centres ((i + 0.5) / n
/// along an axis of n cells) and the threshold the indicator must reach.
/// Indicators are maxima of non-negative terms, so a threshold <= 0 flags
/// every covered cell up front.
class FlagPass {
 public:
  FlagPass(FlagField& flags, const std::vector<Box>& coverage,
           IntVec3 level_dims, double threshold);

  [[nodiscard]] double threshold() const { return threshold_; }
  /// Normalized centre of every cell of the level along `axis`.
  [[nodiscard]] const std::vector<double>& centres(int axis) const {
    return centres_[static_cast<std::size_t>(axis)];
  }

  /// Flag every covered cell of the x columns with `column[x]` set
  /// (`column` spans the level's x extent).
  void flag_columns(const std::vector<std::uint8_t>& column);

  /// Flag every covered cell where `feature.value(centre) >= threshold`;
  /// with a `gate`, only cells of x columns with `gate[x]` set.
  void splat(const SphereFeature& feature,
             const std::vector<std::uint8_t>* gate = nullptr);

 private:
  FlagField& flags_;
  std::vector<Box> coverage_;
  std::array<std::vector<double>, 3> centres_;
  double threshold_;
};

/// Flags one level's cells for refinement.
using LevelFlagger = std::function<void(FlagPass& pass)>;

/// Rebuild a hierarchy bottom-up.  Level l+1 holds the Berger–Rigoutsos
/// clusters of the cells `flag` marks on level l's coverage at
/// `thresholds[l]`, refined by `ratio` and chopped to
/// `cluster.max_box_cells` (0 = unbounded; the bound applies to the emitted
/// patches).  Nesting holds by construction; the build stops at the first
/// level that flags nothing.
[[nodiscard]] GridHierarchy build_hierarchy(
    IntVec3 base_dims, int ratio, int max_levels,
    const std::vector<double>& thresholds, const ClusterOptions& cluster,
    const LevelFlagger& flag);

}  // namespace pragma::amr
