// Golden bit patterns of trace replays and system-sensitive runs.
//
// Every double of every RunSummary (and of the SystemSensitiveResult) is
// pinned by its exact bit pattern, and every SnapshotRecord field — step,
// partitioner, octant and the six doubles — is folded into one FNV-1a
// digest per run.  The values were recorded from the per-face execution
// model and the full PAC evaluation per snapshot; any change to the
// execution model, the metric arithmetic or the replay loop that moves a
// single bit of a simulated output fails here, naming the run.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/core/system_sensitive.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/policy/builtin.hpp"

namespace pragma::core {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv(std::uint64_t h, const std::string& text) {
  h = fnv(h, text.size());
  for (const char ch : text) h = fnv(h, static_cast<unsigned char>(ch));
  return h;
}

std::uint64_t record_digest(const std::vector<SnapshotRecord>& records) {
  std::uint64_t h = kFnvOffset;
  for (const SnapshotRecord& r : records) {
    h = fnv(h,
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.step)));
    h = fnv(h, r.partitioner);
    h = fnv(h, r.octant);
    for (const double v : {r.step_time_s, r.imbalance, r.comm_volume,
                           r.migration_s, r.partition_s, r.amr_efficiency})
      h = fnv(h, bits(v));
  }
  return h;
}

/// One run's pinned outputs: the double fields as raw bit patterns, then
/// the integer fields and the record digest.
struct Golden {
  std::string name;
  std::vector<std::uint64_t> values;
};

std::string render(const Golden& g) {
  std::string out = "{\"" + g.name + "\", {";
  char buf[32];
  for (std::size_t i = 0; i < g.values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%016" PRIx64 "ULL", i ? ", " : "",
                  g.values[i]);
    out += buf;
  }
  return out + "}},";
}

Golden pin(const std::string& name, const RunSummary& s) {
  return {name,
          {bits(s.runtime_s), bits(s.compute_s), bits(s.comm_s),
           bits(s.migration_s), bits(s.partition_s), bits(s.max_imbalance),
           bits(s.mean_imbalance), bits(s.amr_efficiency), s.switches,
           s.records.size(), record_digest(s.records)}};
}

Golden pin(const std::string& name, const SystemSensitiveResult& r) {
  std::uint64_t capacities = kFnvOffset;
  for (const double f : r.capacities.fraction)
    capacities = fnv(capacities, bits(f));
  return {name,
          {r.nprocs, bits(r.default_runtime_s), bits(r.sensitive_runtime_s),
           bits(r.improvement), bits(r.default_imbalance),
           bits(r.sensitive_imbalance), r.capacities.size(), capacities}};
}

void expect_pinned(const std::vector<Golden>& got,
                   const std::vector<Golden>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].values, want[i].values)
        << "run " << got[i].name << " diverged; now\n  " << render(got[i]);
  }
}

/// Reduced RM3D trace: the canonical lattice is 32x8x8 grain cells, and
/// the run spans startup, shock and mixing phases.
const amr::AdaptationTrace& digest_trace() {
  static const amr::AdaptationTrace trace = [] {
    amr::Rm3dConfig config;
    config.base_dims = {64, 16, 16};
    config.coarse_steps = 200;
    return amr::Rm3dEmulator(config).run();
  }();
  return trace;
}

std::vector<Golden> replay_all(const grid::Cluster& cluster,
                               const std::string& machine) {
  TraceRunConfig config;
  config.nprocs = 16;
  config.modeled_partition_s_per_cell = 2e-7;
  const TraceRunner runner(digest_trace(), cluster, config);
  std::vector<Golden> out;
  out.push_back(pin(machine + "/adaptive",
                    runner.run_adaptive(policy::standard_policy_base())));
  for (const char* name :
       {"SFC", "ISP", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP"})
    out.push_back(pin(machine + "/" + name, runner.run_static(name)));
  return out;
}

TEST(ReplayDigest, HomogeneousReplaysAreBitwisePinned) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  expect_pinned(replay_all(cluster, "homo16"), {
      {"homo16/adaptive",
       {0x40384b2f1bdab550ULL, 0x402d7f3705def57bULL, 0x401e493e377333d3ULL,
        0x4000536a0a5fd553ULL, 0x3ff4a4d2b2bfdb4bULL, 0x3fe6000000000000ULL,
        0x3fd05a4dd23f62b9ULL, 0x3feef71e87878788ULL, 0x000000000000000fULL,
        0x0000000000000033ULL, 0xc5600a16fadf16b4ULL}},
      {"homo16/SFC",
       {0x403bc1dcbd1329b6ULL, 0x40317d028a1dfb92ULL, 0x40222369512764f3ULL,
        0x40041b6aea8498abULL, 0x3fd91148fd9fd373ULL, 0x3ff0ee23b88ee23cULL,
        0x3fdf889a60b645f3ULL, 0x3feef75e6e6e6e6eULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x1a58e9b5d04d128eULL}},
      {"homo16/ISP",
       {0x403a61593f44c7c3ULL, 0x402c419e30014f8bULL, 0x401eeecf002dcd42ULL,
        0x4000eb6a71b8d4f5ULL, 0x40091148fd9fd373ULL, 0x3fc32e081361b750ULL,
        0x3fb08c69598d857fULL, 0x3feef3d0b9b9b9baULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0xe2645af73c58b0c2ULL}},
      {"homo16/G-MISP",
       {0x403a638267eb6860ULL, 0x402c99e4bf796ecaULL, 0x401eaecb2f12e80fULL,
        0x40010c51f2e6e7d6ULL, 0x40091148fd9fd373ULL, 0x3fc73bfc9ed699c8ULL,
        0x3fb9d13445f89763ULL, 0x3feef4f1a0a0a0a1ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0xbf276eeb3b0dd184ULL}},
      {"homo16/G-MISP+SP",
       {0x403a27340861eaf4ULL, 0x402c2b5eac162c4aULL, 0x401e8b3b07121805ULL,
        0x400152b8b491ed7cULL, 0x40091148fd9fd373ULL, 0x3fc286bca1af2868ULL,
        0x3fb5165bbb62be1aULL, 0x3feef53141414141ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x78e4b04cf4ee94e9ULL}},
      {"homo16/pBD-ISP",
       {0x40376b34f3ef4234ULL, 0x402da6faf2c19ab2ULL, 0x401e5d978acba07dULL,
        0x40011048a286274bULL, 0x3fd91148fd9fd373ULL, 0x3fe544aed44aed44ULL,
        0x3fd3a850c0f1dc6bULL, 0x3feef7fbc3c3c3c4ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0xfefcdfb41028c555ULL}},
      {"homo16/SP-ISP",
       {0x403a9b1e31fd8c6dULL, 0x402c3d31b9b66f90ULL, 0x401f036031c3f25fULL,
        0x400110890f32cddfULL, 0x40091148fd9fd373ULL, 0x3fbb0ddd81859470ULL,
        0x3fa5d4479b702150ULL, 0x3feef3e141414141ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x10185adc8c6247b9ULL}},
  });
}

TEST(ReplayDigest, HeterogeneousReplaysAreBitwisePinned) {
  util::Rng rng(29, 1);
  const grid::Cluster cluster = grid::ClusterBuilder::heterogeneous(
      16, rng, 0.5, 512.0, 100.0, 150e-6, 0.35);
  expect_pinned(replay_all(cluster, "hetero16"), {
      {"hetero16/adaptive",
       {0x405b50aff73d5bfeULL, 0x4052ff2e6a6126c2ULL, 0x402ec6de76427c7fULL,
        0x403468448cf7caa7ULL, 0x3ff4a4d2b2bfdb4bULL, 0x3fe6000000000000ULL,
        0x3fd05a4dd23f62b9ULL, 0x3feef71e87878788ULL, 0x000000000000000fULL,
        0x0000000000000033ULL, 0xd84b8a1a9b7a1630ULL}},
      {"hetero16/SFC",
       {0x405d7afc555214fbULL, 0x4053ececaf6c204fULL, 0x4031701bf1ce0e16ULL,
        0x40392245a525bed7ULL, 0x3fd91148fd9fd373ULL, 0x3ff0ee23b88ee23cULL,
        0x3fdf889a60b645f3ULL, 0x3feef75e6e6e6e6eULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0xf9eae5022204b231ULL}},
      {"hetero16/ISP",
       {0x405be95af401f5ecULL, 0x4052bbc6226395a0ULL, 0x40301c7de5082cf5ULL,
        0x403526450e270a31ULL, 0x40091148fd9fd373ULL, 0x3fc32e081361b750ULL,
        0x3fb08c69598d857fULL, 0x3feef3d0b9b9b9baULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x9580bde2f8805aabULL}},
      {"hetero16/G-MISP",
       {0x405bbee679b0795dULL, 0x4052a73e44c66b1fULL, 0x402f613249ff2794ULL,
        0x40354f666fa0a1ceULL, 0x40091148fd9fd373ULL, 0x3fc73bfc9ed699c8ULL,
        0x3fb9d13445f89763ULL, 0x3feef4f1a0a0a0a1ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x53888fbe58b803acULL}},
      {"hetero16/G-MISP+SP",
       {0x405c3afedec78a18ULL, 0x4052fe70ef3d34a1ULL, 0x402f47c815ade72fULL,
        0x4035a766e1b668dcULL, 0x40091148fd9fd373ULL, 0x3fc286bca1af2868ULL,
        0x3fb5165bbb62be1aULL, 0x3feef53141414141ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0xb88ae4295219d33eULL}},
      {"hetero16/pBD-ISP",
       {0x405ada06f187dbf5ULL, 0x40528349049fec5fULL, 0x402f0e779207d4e3ULL,
        0x4035545acb27b120ULL, 0x3fd91148fd9fd373ULL, 0x3fe544aed44aed44ULL,
        0x3fd3a850c0f1dc6bULL, 0x3feef7fbc3c3c3c4ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x68affbcc0f1551a1ULL}},
      {"hetero16/SP-ISP",
       {0x405c59cb95495034ULL, 0x405324af9f94c4c9ULL, 0x40303b0d87a7ff8cULL,
        0x403554ab52ff8154ULL, 0x40091148fd9fd373ULL, 0x3fbb0ddd81859470ULL,
        0x3fa5d4479b702150ULL, 0x3feef3e141414141ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0xe81a89d2d1ef7d60ULL}},
  });
}

TEST(ReplayDigest, FederatedReplaysAreBitwisePinned) {
  const grid::Cluster cluster =
      grid::ClusterBuilder::federated(2, 8, 1.0, 1000.0, 20.0);
  expect_pinned(replay_all(cluster, "fed2x8"), {
      {"fed2x8/adaptive",
       {0x403f60badde1f2faULL, 0x40361f694467381dULL, 0x401e493e377333d3ULL,
        0x4000536a0a5fd553ULL, 0x3ff4a4d2b2bfdb4bULL, 0x3fe6000000000000ULL,
        0x3fd05a4dd23f62b9ULL, 0x3feef71e87878788ULL, 0x000000000000000fULL,
        0x0000000000000033ULL, 0x3b5004c7d0ff8be3ULL}},
      {"fed2x8/SFC",
       {0x40421a136c6e683fULL, 0x403a3b83cf2cf95bULL, 0x40222369512764f3ULL,
        0x40041b6aea8498abULL, 0x3fd91148fd9fd373ULL, 0x3ff0ee23b88ee23cULL,
        0x3fdf889a60b645f3ULL, 0x3feef75e6e6e6e6eULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0xc7dfdd6af08413abULL}},
      {"fed2x8/ISP",
       {0x4040a4e80d700018ULL, 0x40353136a400fbacULL, 0x401eeecf002dcd42ULL,
        0x4000eb6a71b8d4f5ULL, 0x40091148fd9fd373ULL, 0x3fc32e081361b750ULL,
        0x3fb08c69598d857fULL, 0x3feef3d0b9b9b9baULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x80c1aa8a420392f9ULL}},
      {"fed2x8/G-MISP",
       {0x4040aada9dc5ce2cULL, 0x4035736b8f9b1316ULL, 0x401eaecb2f12e80fULL,
        0x40010c51f2e6e7d6ULL, 0x40091148fd9fd373ULL, 0x3fc73bfc9ed699c8ULL,
        0x3fb9d13445f89763ULL, 0x3feef4f1a0a0a0a1ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x947aca7cf7a9ef0fULL}},
      {"fed2x8/G-MISP+SP",
       {0x4040803046c4b57cULL, 0x403520870110a138ULL, 0x401e8b3b07121805ULL,
        0x400152b8b491ed7cULL, 0x40091148fd9fd373ULL, 0x3fc286bca1af2868ULL,
        0x3fb5165bbb62be1aULL, 0x3feef53141414141ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x2ac0561842879c16ULL}},
      {"fed2x8/pBD-ISP",
       {0x403e7b5dd9cfea8dULL, 0x40363d3c36113405ULL, 0x401e5d978acba07dULL,
        0x40011048a286274bULL, 0x3fd91148fd9fd373ULL, 0x3fe544aed44aed44ULL,
        0x3fd3a850c0f1dc6bULL, 0x3feef7fbc3c3c3c4ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x231a9a1e0e5eff5cULL}},
      {"fed2x8/SP-ISP",
       {0x4040ce6d58c8eef3ULL, 0x40352de54b48d3afULL, 0x401f036031c3f25fULL,
        0x400110890f32cddfULL, 0x40091148fd9fd373ULL, 0x3fbb0ddd81859470ULL,
        0x3fa5d4479b702150ULL, 0x3feef3e141414141ULL, 0x0000000000000000ULL,
        0x0000000000000033ULL, 0x82ee6ec36831d9d4ULL}},
  });
}

TEST(ReplayDigest, AdaptiveReplayKeepsPartitionsBelowThreshold) {
  // The reuse path (an unchanged partition carried to the next regrid)
  // must be covered by the pinned adaptive runs: it charges neither
  // partitioning nor migration.
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  TraceRunConfig config;
  config.nprocs = 16;
  config.modeled_partition_s_per_cell = 2e-7;
  const RunSummary adaptive = TraceRunner(digest_trace(), cluster, config)
                                  .run_adaptive(policy::standard_policy_base());
  std::size_t reused = 0;
  for (std::size_t i = 1; i < adaptive.records.size(); ++i)
    if (adaptive.records[i].partition_s == 0.0 &&
        adaptive.records[i].migration_s == 0.0)
      ++reused;
  EXPECT_GT(reused, 0u);
  EXPECT_LT(reused, adaptive.records.size() - 1);
}

TEST(ReplayDigest, SystemSensitiveRunsAreBitwisePinned) {
  std::vector<Golden> got;
  for (const std::size_t nprocs : {8, 16}) {
    SystemSensitiveConfig config;
    config.nprocs = nprocs;
    got.push_back(pin("system-sensitive-" + std::to_string(nprocs),
                      run_system_sensitive_experiment(digest_trace(), config)));
  }
  expect_pinned(got, {
      {"system-sensitive-8",
       {0x0000000000000008ULL, 0x4064364be24b20cdULL, 0x4061bcb06c9e37b6ULL,
        0x3fbf5911a8454626ULL, 0x3fe95e9fe1475dc0ULL, 0x3fe3243602488df9ULL,
        0x0000000000000008ULL, 0xef911863f1616b7dULL}},
      {"system-sensitive-16",
       {0x0000000000000010ULL, 0x4060bb15b29dd49dULL, 0x405dee8b4fa6e482ULL,
        0x3fbb013d8e201474ULL, 0x3ff94e382d333bc1ULL, 0x3ff0d7073ad5509dULL,
        0x0000000000000010ULL, 0x5933a128c3e4437cULL}},
  });
}

}  // namespace
}  // namespace pragma::core
