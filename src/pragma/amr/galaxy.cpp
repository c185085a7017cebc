#include "pragma/amr/galaxy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pragma::amr {

namespace {
constexpr double kBaseRadius = 0.02;  // radius of a unit-mass clump
}

double Clump::radius() const {
  return kBaseRadius * std::cbrt(mass);
}

double Clump::density() const {
  // Density grows slowly with mass (r ~ m^{1/3} keeps m/r^3 constant, so
  // weight by a mild power to make merged systems refine deeper).
  return 1.3 + 0.45 * std::log2(1.0 + mass);
}

GalaxyEmulator::GalaxyEmulator(GalaxyConfig config)
    : config_(std::move(config)),
      hierarchy_(config_.base_dims, config_.ratio, config_.max_levels) {
  if (static_cast<int>(config_.thresholds.size()) < config_.max_levels - 1)
    throw std::invalid_argument(
        "GalaxyEmulator: need one threshold per refined level");
  util::Rng rng(config_.seed);
  clumps_.reserve(config_.clumps);
  for (int i = 0; i < config_.clumps; ++i) {
    Clump clump;
    clump.x = rng.uniform(0.1, 0.9);
    clump.y = rng.uniform(0.1, 0.9);
    clump.z = rng.uniform(0.1, 0.9);
    // Small random transverse motion; gravity does the rest.
    clump.vx = rng.normal(0.0, 2e-4);
    clump.vy = rng.normal(0.0, 2e-4);
    clump.vz = rng.normal(0.0, 2e-4);
    clump.mass = rng.uniform(0.5, 2.0);
    clumps_.push_back(clump);
  }
  regrid();
}

double GalaxyEmulator::total_mass() const {
  double total = 0.0;
  for (const Clump& clump : clumps_) total += clump.mass;
  return total;
}

bool GalaxyEmulator::advance() {
  // Pairwise gravity (softened), leapfrog-ish update.
  const double soft = 0.01;
  std::vector<std::array<double, 3>> accel(clumps_.size(), {0.0, 0.0, 0.0});
  for (std::size_t i = 0; i < clumps_.size(); ++i) {
    for (std::size_t j = i + 1; j < clumps_.size(); ++j) {
      const double dx = clumps_[j].x - clumps_[i].x;
      const double dy = clumps_[j].y - clumps_[i].y;
      const double dz = clumps_[j].z - clumps_[i].z;
      const double r2 = dx * dx + dy * dy + dz * dz + soft * soft;
      const double inv_r3 = 1.0 / (r2 * std::sqrt(r2));
      const double f = config_.gravity * inv_r3;
      accel[i][0] += f * clumps_[j].mass * dx;
      accel[i][1] += f * clumps_[j].mass * dy;
      accel[i][2] += f * clumps_[j].mass * dz;
      accel[j][0] -= f * clumps_[i].mass * dx;
      accel[j][1] -= f * clumps_[i].mass * dy;
      accel[j][2] -= f * clumps_[i].mass * dz;
    }
  }
  for (std::size_t i = 0; i < clumps_.size(); ++i) {
    Clump& clump = clumps_[i];
    clump.vx += accel[i][0];
    clump.vy += accel[i][1];
    clump.vz += accel[i][2];
    clump.x = std::clamp(clump.x + clump.vx, 0.02, 0.98);
    clump.y = std::clamp(clump.y + clump.vy, 0.02, 0.98);
    clump.z = std::clamp(clump.z + clump.vz, 0.02, 0.98);
  }

  // Merge touching pairs (momentum-conserving).
  for (std::size_t i = 0; i < clumps_.size(); ++i) {
    for (std::size_t j = i + 1; j < clumps_.size();) {
      const double dx = clumps_[j].x - clumps_[i].x;
      const double dy = clumps_[j].y - clumps_[i].y;
      const double dz = clumps_[j].z - clumps_[i].z;
      const double distance = std::sqrt(dx * dx + dy * dy + dz * dz);
      const double reach = config_.merge_factor *
                           (clumps_[i].radius() + clumps_[j].radius());
      if (distance < reach) {
        Clump& a = clumps_[i];
        const Clump& b = clumps_[j];
        const double m = a.mass + b.mass;
        a.x = (a.x * a.mass + b.x * b.mass) / m;
        a.y = (a.y * a.mass + b.y * b.mass) / m;
        a.z = (a.z * a.mass + b.z * b.mass) / m;
        a.vx = (a.vx * a.mass + b.vx * b.mass) / m;
        a.vy = (a.vy * a.mass + b.vy * b.mass) / m;
        a.vz = (a.vz * a.mass + b.vz * b.mass) / m;
        a.mass = m;
        clumps_.erase(clumps_.begin() + static_cast<std::ptrdiff_t>(j));
      } else {
        ++j;
      }
    }
  }

  ++step_;
  if (step_ % config_.regrid_interval == 0) {
    regrid();
    return true;
  }
  return false;
}

SphereFeature Clump::feature() const {
  return {x, y, z, radius(), density()};
}

double GalaxyEmulator::indicator(double x, double y, double z) const {
  double ind = 0.0;
  for (const Clump& clump : clumps_)
    ind = std::max(ind, clump.feature().value(x, y, z));
  return ind;
}

void GalaxyEmulator::regrid() {
  hierarchy_ = build_hierarchy(config_.base_dims, config_.ratio,
                               config_.max_levels, config_.thresholds,
                               config_.cluster, [this](FlagPass& pass) {
                                 for (const Clump& clump : clumps_)
                                   pass.splat(clump.feature());
                               });
}

AdaptationTrace GalaxyEmulator::run() {
  AdaptationTrace trace;
  trace.add(Snapshot{step_, hierarchy_});
  while (step_ < config_.coarse_steps) {
    if (advance()) trace.add(Snapshot{step_, hierarchy_});
  }
  return trace;
}

}  // namespace pragma::amr
