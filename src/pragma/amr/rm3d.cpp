#include "pragma/amr/rm3d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pragma::amr {

namespace {
// Phase timeline in normalized time tau = step / coarse_steps.
// The incident shock starts *outside* the domain and enters at
// tau ~ 0.022, so the run opens with a brief quiescent phase (static
// interface refinement only) after the initialization transient dies out.
constexpr double kShockStart = -0.05;  // initial shock position (u)
constexpr double kShockSpeed = 2.2857; // du/dtau of the incident shock
constexpr double kShockExit = 0.46;    // incident shock leaves the domain
constexpr double kHitTime = 0.162;     // shock reaches the interface
constexpr double kStartupEnd = 0.004;  // initialization-noise transient
constexpr double kReshockStart = 0.55; // reflected shock re-enters at u=1
constexpr double kReshockSpeed = 2.4;  // du/dtau of the reflected shock
constexpr double kReshockEnd = 0.82;   // reshock absorbed by the mixing zone
constexpr double kReshockHit = 0.80;   // reshock reaches the mixing zone
constexpr double kInterface0 = 0.32;   // initial interface position
}  // namespace

/// The indicator's scalar terms at one normalized time.  indicator() is
/// the maximum of column(u) and the spherical terms for_each_sphere()
/// yields, the gated ones only where in_mixing_zone(u).
struct Rm3dEmulator::Features {
  double tau = 0.0;
  bool shock = false;
  double shock_u = 0.0;
  double mix_center = 0.0;
  double mix_half = 0.0;
  bool developed = false;  ///< the shock has hit the interface

  [[nodiscard]] bool in_mixing_zone(double u) const {
    return std::abs(u - mix_center) < mix_half * 1.25;
  }

  /// The terms that depend only on x: shock bands and mixing slab.
  [[nodiscard]] double column(double u) const {
    double ind = 0.0;
    // Shock front: a thin finest-level core inside a wider level-1 band.
    if (shock) {
      const double dx = std::abs(u - shock_u);
      ind = std::max(ind, bump(dx, 0.018, 2.6));
      ind = std::max(ind, bump(dx, 0.050, 1.35));
    }
    // Material interface / mixing zone.
    if (in_mixing_zone(u)) {
      const double du = std::abs(u - mix_center);
      // Quiescent perturbed interface: a compact level-1 slab (the
      // perturbation amplitude is below the finest-level threshold until
      // the shock arrives).  Developed mixing zone: a wider level-1 slab
      // with embedded finest-level turbulent blobs.
      ind = developed ? std::max(ind, bump(du, mix_half * 1.25, 1.55))
                      : std::max(ind, bump(du, mix_half, 1.3));
    }
    return ind;
  }
};

Rm3dEmulator::Rm3dEmulator(Rm3dConfig config)
    : config_(std::move(config)),
      hierarchy_(config_.base_dims, config_.ratio, config_.max_levels) {
  if (static_cast<int>(config_.thresholds.size()) < config_.max_levels - 1)
    throw std::invalid_argument(
        "Rm3dEmulator: need one threshold per refined level");
  seed_blobs();
  regrid();
}

void Rm3dEmulator::seed_blobs() {
  util::Rng rng(config_.seed);
  blobs_.clear();
  // First generation: instability features appearing after shock passage.
  for (int i = 0; i < 32; ++i) {
    TurbulentBlob blob;
    blob.birth = rng.uniform(kHitTime + 0.01, kReshockStart);
    blob.u = rng.uniform(-0.9, 0.9);
    blob.v = rng.uniform(0.10, 0.90);
    blob.w = rng.uniform(0.10, 0.90);
    blob.radius = rng.uniform(0.018, 0.040);
    blob.drift_v = rng.uniform(-0.03, 0.03);
    blob.drift_w = rng.uniform(-0.03, 0.03);
    blobs_.push_back(blob);
  }
  // Reshock generation: a denser, coarser population appearing quickly
  // after the reflected shock strikes the mixing zone.
  for (int i = 0; i < 44; ++i) {
    TurbulentBlob blob;
    blob.birth = rng.uniform(kReshockHit, kReshockHit + 0.12);
    blob.u = rng.uniform(-0.95, 0.95);
    blob.v = rng.uniform(0.06, 0.94);
    blob.w = rng.uniform(0.06, 0.94);
    blob.radius = rng.uniform(0.022, 0.055);
    blob.drift_v = rng.uniform(-0.05, 0.05);
    blob.drift_w = rng.uniform(-0.05, 0.05);
    blobs_.push_back(blob);
  }
}

double Rm3dEmulator::shock_position(double tau) const {
  if (tau < kShockExit) return kShockStart + kShockSpeed * tau;
  if (tau >= kReshockStart && tau <= kReshockEnd)
    return 1.0 - kReshockSpeed * (tau - kReshockStart);
  return -1.0;  // no active shock
}

bool Rm3dEmulator::shock_active(double tau) const {
  const double pos = shock_position(tau);
  return pos >= 0.0 && pos <= 1.0;
}

double Rm3dEmulator::mixing_center(double tau) const {
  return kInterface0 + 0.10 * std::max(0.0, tau - kHitTime);
}

double Rm3dEmulator::mixing_width(double tau) const {
  // Half-width of the mixing zone.  The pre-shock interface slab is a
  // diffuse contact layer (a compact, computation-dominated refinement).
  if (tau < kHitTime) return 0.028;
  double w = 0.018 + 0.11 * std::pow(tau - kHitTime, 0.6);
  if (tau > kReshockHit) w += 0.10 * std::sqrt(tau - kReshockHit);
  return w;
}

Rm3dEmulator::Features Rm3dEmulator::features(double tau) const {
  Features f;
  f.tau = tau;
  f.shock = shock_active(tau);
  f.shock_u = shock_position(tau);
  f.mix_center = mixing_center(tau);
  f.mix_half = mixing_width(tau);
  f.developed = tau >= kHitTime;
  return f;
}

template <typename Fn>
void Rm3dEmulator::for_each_sphere(const Features& f, Fn&& fn) const {
  // Initialization transient: the first error estimate tags scattered
  // pockets of start-up noise across the domain (they vanish by the first
  // regrid, giving the trace its initial scattered, high-churn snapshot).
  if (f.tau < kStartupEnd) {
    for (std::size_t b = 0; b < blobs_.size() && b < 40; ++b) {
      const TurbulentBlob& blob = blobs_[b];
      fn(SphereFeature{0.05 + 0.90 * blob.v, blob.w, 0.5 * (blob.u + 1.0),
                       0.6 * blob.radius, 1.4},
         /*gated=*/false);
    }
  }
  // Finest-level turbulent blobs embedded in the developed mixing zone.
  if (f.developed) {
    for (const TurbulentBlob& blob : blobs_) {
      if (blob.birth > f.tau) continue;
      const double age = f.tau - blob.birth;
      fn(SphereFeature{f.mix_center + blob.u * 0.85 * f.mix_half,
                       blob.v + blob.drift_v * age,
                       blob.w + blob.drift_w * age, blob.radius, 2.7},
         /*gated=*/true);
    }
  }
}

double Rm3dEmulator::indicator(double u, double v, double w,
                               double tau) const {
  const Features f = features(tau);
  const bool in_zone = f.in_mixing_zone(u);
  double ind = f.column(u);
  for_each_sphere(f, [&](const SphereFeature& sphere, bool gated) {
    if (!gated || in_zone) ind = std::max(ind, sphere.value(u, v, w));
  });
  return ind;
}

void Rm3dEmulator::flag(FlagPass& pass, double tau) const {
  const Features f = features(tau);
  const std::vector<double>& us = pass.centres(0);
  std::vector<std::uint8_t> column(us.size());
  std::vector<std::uint8_t> gate(us.size());
  for (std::size_t x = 0; x < us.size(); ++x) {
    column[x] = f.column(us[x]) >= pass.threshold();
    gate[x] = f.in_mixing_zone(us[x]);
  }
  pass.flag_columns(column);
  for_each_sphere(f, [&](const SphereFeature& sphere, bool gated) {
    pass.splat(sphere, gated ? &gate : nullptr);
  });
}

void Rm3dEmulator::regrid() {
  const double tau = normalized_time();
  hierarchy_ = build_hierarchy(
      config_.base_dims, config_.ratio, config_.max_levels,
      config_.thresholds, config_.cluster,
      [this, tau](FlagPass& pass) { flag(pass, tau); });
}

bool Rm3dEmulator::advance() {
  ++step_;
  if (step_ % config_.regrid_interval == 0) {
    regrid();
    return true;
  }
  return false;
}

AdaptationTrace Rm3dEmulator::run() {
  AdaptationTrace trace;
  trace.add(Snapshot{step_, hierarchy_});
  while (step_ < config_.coarse_steps) {
    if (advance()) trace.add(Snapshot{step_, hierarchy_});
  }
  return trace;
}

}  // namespace pragma::amr
