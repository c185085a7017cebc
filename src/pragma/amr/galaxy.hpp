// Galaxy-formation emulator: hierarchical merging.
//
// The paper's driving applications include "formations of galaxies":
// "Galaxies are believed to have formed hierarchically; objects of
//  progressively larger mass merge and collapse to form new systems."
//
// This emulator reproduces that structural phenomenology: a population of
// clumps attracts gravitationally, pairs merge on contact, and refinement
// tracks clump density — so the adaptation trace starts scattered and
// highly dynamic (many small moving clumps) and ends localized and quiet
// (a few massive systems), traversing the octant space in the opposite
// direction to the RM3D shock problem.  Like the RM3D emulator, it feeds
// real flag fields through the Berger–Rigoutsos clusterer, splatting each
// clump over the cells it can reach (regrid.hpp).
#pragma once

#include "pragma/amr/hierarchy.hpp"
#include "pragma/amr/regrid.hpp"
#include "pragma/amr/trace.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::amr {

struct GalaxyConfig {
  IntVec3 base_dims{64, 64, 64};
  int max_levels = 3;
  int ratio = 2;
  int regrid_interval = 4;
  int coarse_steps = 400;
  /// Initial clump population.
  int clumps = 48;
  /// Gravitational strength (normalized units per step^2).
  double gravity = 2.0e-5;
  /// Merge distance as a multiple of the summed clump radii.
  double merge_factor = 0.8;
  std::uint64_t seed = 17;
  std::vector<double> thresholds{1.0, 2.0};
  ClusterOptions cluster{/*efficiency=*/0.6, /*min_width=*/4,
                         /*max_box_cells=*/65536, /*max_depth=*/64};
};

struct Clump {
  double x = 0.5, y = 0.5, z = 0.5;   ///< normalized position
  double vx = 0.0, vy = 0.0, vz = 0.0;
  double mass = 1.0;
  [[nodiscard]] double radius() const;   ///< normalized, ~mass^(1/3)
  [[nodiscard]] double density() const;  ///< indicator strength
  /// The clump's indicator term: a quadratic bump of height density()
  /// over radius().
  [[nodiscard]] SphereFeature feature() const;
};

class GalaxyEmulator {
 public:
  explicit GalaxyEmulator(GalaxyConfig config = {});

  [[nodiscard]] const GalaxyConfig& config() const { return config_; }
  [[nodiscard]] int step() const { return step_; }
  [[nodiscard]] const GridHierarchy& hierarchy() const { return hierarchy_; }
  [[nodiscard]] const std::vector<Clump>& clumps() const { return clumps_; }
  [[nodiscard]] double total_mass() const;

  /// Advance one coarse step (gravity + merging); regrids (returning true)
  /// on the regrid interval.
  bool advance();
  void regrid();

  /// Run the whole simulation, one snapshot per regrid.
  [[nodiscard]] AdaptationTrace run();

  /// Refinement indicator at a normalized position.
  [[nodiscard]] double indicator(double x, double y, double z) const;

 private:
  GalaxyConfig config_;
  GridHierarchy hierarchy_;
  std::vector<Clump> clumps_;
  int step_ = 0;
};

}  // namespace pragma::amr
