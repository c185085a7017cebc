#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pragma/service/journal.hpp"
#include "pragma/util/rng.hpp"

namespace perfbench {

namespace amr = pragma::amr;
namespace service = pragma::service;

namespace {

constexpr const char* kStaticPartitioners[] = {
    "SFC", "ISP", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP"};

std::uint64_t fnv(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A seed in [1, 1e9] drawn from `rng` (app seeds stay small and readable).
std::uint64_t draw_seed(pragma::util::Rng& rng) {
  return 1 + rng() % 1000000000ULL;
}

RunSpec base_spec() {
  RunSpec spec;
  spec.modeled_partition_s_per_cell = kModeledPartitionSPerCell;
  return spec;
}

}  // namespace

std::vector<StudyBatch> managed_study_batches(std::uint64_t seed) {
  pragma::util::Rng rng(seed, /*stream=*/101);
  std::vector<StudyBatch> batches;
  // Fixed, distinct app seeds: the emulation work is the same for every
  // workload seed (which varies the machines, load and monitor streams),
  // so the study's cost does not swing with the seed.
  const std::uint64_t app_seeds[] = {7, 8};
  const char* const tenants[] = {"study-a", "study-b"};
  for (std::size_t t = 0; t < 2; ++t) {
    RunSpec spec = base_spec();
    spec.kind = service::WorkloadKind::kManaged;
    spec.tenant = tenants[t];
    spec.name = std::string(tenants[t]) + "-run";
    spec.app.base_dims = {128, 32, 32};
    spec.app.max_levels = 3;
    spec.app.coarse_steps = 200;
    spec.app.seed = app_seeds[t];
    spec.nprocs = 16;
    spec.capacity_spread = 0.35;
    spec.with_background_load = true;
    spec.system_sensitive = true;
    spec.seed = draw_seed(rng);
    StudyBatch batch{tenants[t], {}};
    for (std::size_t i = 0; i < 4; ++i) batch.specs.push_back(spec.derived(i));
    batches.push_back(std::move(batch));
  }
  return batches;
}

amr::Rm3dConfig canonical_config() { return amr::Rm3dConfig{}; }

std::vector<RunSpec> replay_sweep_specs(
    std::uint64_t seed,
    const std::shared_ptr<const amr::AdaptationTrace>& trace) {
  pragma::util::Rng rng(seed, /*stream=*/202);
  struct Machine {
    const char* label;
    std::size_t nprocs;
    double spread;
    std::size_t sites;
  };
  const Machine machines[] = {{"homo64", 64, 0.0, 1},
                              {"hetero32", 32, 0.35, 1},
                              {"fed2x32", 64, 0.0, 2}};
  std::vector<RunSpec> specs;
  for (const Machine& machine : machines) {
    std::vector<std::string> strategies{"adaptive"};
    for (const char* name : kStaticPartitioners) strategies.emplace_back(name);
    for (const std::string& strategy : strategies) {
      RunSpec spec = base_spec();
      spec.kind = service::WorkloadKind::kTraceReplay;
      spec.tenant = "replay";
      spec.name = std::string("replay-") + machine.label + "-" + strategy;
      spec.trace = trace;
      spec.strategy = strategy;
      spec.nprocs = machine.nprocs;
      spec.capacity_spread = machine.spread;
      spec.sites = machine.sites;
      // One draw per spec: the sweep's simulated time then averages over
      // seven heterogeneous machines instead of hinging on one.
      spec.seed = draw_seed(rng);
      specs.push_back(std::move(spec));
    }
  }
  for (std::size_t nprocs : {16, 32, 64}) {
    RunSpec spec = base_spec();
    spec.kind = service::WorkloadKind::kSystemSensitive;
    spec.tenant = "replay";
    spec.name = "system-sensitive-" + std::to_string(nprocs);
    spec.trace = trace;
    spec.nprocs = nprocs;
    spec.capacity_spread = 0.35;
    spec.seed = draw_seed(rng);
    specs.push_back(std::move(spec));
  }
  return specs;
}

amr::Rm3dConfig probe_config(std::uint64_t seed, std::size_t tenant) {
  pragma::util::Rng rng(seed, /*stream=*/303 + tenant);
  amr::Rm3dConfig config;
  config.base_dims = {32, 8, 8};
  // Unrefined: a refined probe spends 60-85% of its exec in the emulator,
  // which would make this workload a small managed_study.
  config.max_levels = 1;
  config.coarse_steps = 16;
  config.seed = draw_seed(rng);
  return config;
}

std::vector<Arrival> admission_schedule(std::uint64_t seed,
                                        std::uint64_t stream, double rate_hz,
                                        double min_seconds,
                                        std::size_t min_arrivals) {
  pragma::util::Rng rng(seed, /*stream=*/1000 + stream);
  std::vector<amr::Rm3dConfig> apps;
  for (std::size_t t = 0; t < kProbeTenants; ++t)
    apps.push_back(probe_config(seed, t));
  const double runs_per_arrival =
      static_cast<double>(kBatchEvery - 1 + kBatchSize) /
      static_cast<double>(kBatchEvery);
  const double arrivals_per_s = rate_hz / runs_per_arrival;

  // Exactly one batch in every block of kBatchEvery arrivals, at a random
  // place; Poisson gaps rescaled so the mean rate is exactly `rate_hz`.
  const auto blocks = [](double n) {
    return static_cast<std::size_t>(
        std::ceil(n / static_cast<double>(kBatchEvery)));
  };
  const std::size_t arrivals =
      kBatchEvery * std::max(blocks(static_cast<double>(min_arrivals)),
                             blocks(min_seconds * arrivals_per_s));
  std::vector<Arrival> schedule;
  double t = 0.0;
  std::size_t batch_slot = 0;
  for (std::size_t i = 0; i < arrivals; ++i) {
    if (i % kBatchEvery == 0)
      batch_slot = i + static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(kBatchEvery) - 1));
    t += rng.exponential(arrivals_per_s);
    const std::size_t tenant =
        static_cast<std::size_t>(rng.uniform_int(0, kProbeTenants - 1));
    RunSpec spec = base_spec();
    spec.kind = service::WorkloadKind::kManaged;
    spec.tenant = "probe-t" + std::to_string(tenant);
    spec.priority = static_cast<int>(rng.uniform_int(0, 2));
    spec.name = "probe-s" + std::to_string(stream) + "-a" + std::to_string(i);
    spec.app = apps[tenant];
    spec.nprocs = 4;
    spec.capacity_spread = 0.35;
    spec.seed = draw_seed(rng);
    Arrival arrival;
    arrival.due_s = t;
    if (i == batch_slot) {
      for (std::size_t j = 0; j < kBatchSize; ++j)
        arrival.specs.push_back(spec.derived(j));
    } else {
      arrival.specs.push_back(std::move(spec));
    }
    schedule.push_back(std::move(arrival));
  }
  const double scale = static_cast<double>(arrivals) / arrivals_per_s / t;
  for (Arrival& arrival : schedule) arrival.due_s *= scale;
  return schedule;
}

std::size_t run_count(const std::vector<Arrival>& schedule) {
  std::size_t runs = 0;
  for (const Arrival& arrival : schedule) runs += arrival.specs.size();
  return runs;
}

std::uint64_t spec_fingerprint(const std::vector<RunSpec>& specs) {
  std::uint64_t h = kFnvOffset;
  for (const RunSpec& spec : specs) {
    const std::vector<std::uint8_t> bytes = service::encode_run_spec(spec);
    h = fnv(h, bytes.size());
    for (std::uint8_t byte : bytes) {
      h ^= byte;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t fold_hierarchy(std::uint64_t digest, int step,
                             const amr::GridHierarchy& h) {
  digest = fnv(digest, static_cast<std::uint64_t>(step));
  digest = fnv(digest, static_cast<std::uint64_t>(h.num_levels()));
  for (const amr::GridLevel& level : h.levels()) {
    digest = fnv(digest, level.boxes.size());
    for (const amr::Box& box : level.boxes) {
      for (int v : {box.lo().x, box.lo().y, box.lo().z, box.hi().x,
                    box.hi().y, box.hi().z})
        digest = fnv(digest, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(v)));
    }
  }
  return digest;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string config_label(const amr::Rm3dConfig& config) {
  return std::to_string(config.base_dims.x) + "x" +
         std::to_string(config.base_dims.y) + "x" +
         std::to_string(config.base_dims.z) + "-L" +
         std::to_string(config.max_levels) + "-s" +
         std::to_string(config.coarse_steps) + "-seed" +
         std::to_string(config.seed);
}

}  // namespace perfbench
