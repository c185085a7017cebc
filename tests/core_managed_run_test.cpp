#include "pragma/core/managed_run.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "pragma/obs/obs.hpp"

namespace pragma::core {
namespace {

ManagedRunConfig small_config(int steps = 60) {
  ManagedRunConfig config;
  config.app.coarse_steps = steps;
  config.nprocs = 8;
  return config;
}

TEST(ManagedRun, CompletesAndReports) {
  ManagedRun managed(small_config());
  const ManagedRunReport report = managed.run();
  EXPECT_GT(report.total_time_s, 0.0);
  EXPECT_EQ(report.regrids, 15u);  // 60 steps / regrid interval 4
  EXPECT_GE(report.repartitions, 1u);
  EXPECT_EQ(report.records.size(), report.regrids);
  for (const ManagedStepRecord& record : report.records) {
    EXPECT_FALSE(record.octant.empty());
    EXPECT_FALSE(record.partitioner.empty());
    EXPECT_EQ(record.live_nodes, 8u);
  }
}

TEST(ManagedRun, DeterministicForSeed) {
  const ManagedRunReport a = ManagedRun(small_config()).run();
  const ManagedRunReport b = ManagedRun(small_config()).run();
  // The only nondeterministic contribution is the wall-clock-measured
  // partitioning cost (scaled into simulated seconds); everything else is
  // seed-determined.
  EXPECT_NEAR(a.total_time_s, b.total_time_s, 0.01 * a.total_time_s);
  EXPECT_EQ(a.repartitions, b.repartitions);
  EXPECT_EQ(a.regrids, b.regrids);
  EXPECT_EQ(a.partitioner_switches, b.partitioner_switches);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].octant, b.records[i].octant);
    EXPECT_EQ(a.records[i].partitioner, b.records[i].partitioner);
  }
}

TEST(ManagedRun, SurvivesNodeFailureViaAgents) {
  ManagedRunConfig config = small_config(80);
  ManagedRun managed(config);
  // Fail node 2 early, permanently.
  managed.schedule_failure(0.5, 2, -1.0);
  const ManagedRunReport report = managed.run();
  // The run completes despite the dead node...
  EXPECT_EQ(report.regrids, 20u);
  // ...because the control network migrated its work.
  EXPECT_GE(report.migrations, 1u);
  // Later records see the reduced cluster.
  EXPECT_EQ(report.records.back().live_nodes, 7u);
}

TEST(ManagedRun, FailedNodeReceivesNoWork) {
  ManagedRunConfig config = small_config(40);
  ManagedRun managed(config);
  managed.schedule_failure(0.5, 5, -1.0);
  const ManagedRunReport report = managed.run();
  EXPECT_GE(report.migrations, 1u);
  // Execution time stays finite and sane (no unbounded stall).
  EXPECT_LT(report.total_time_s, 1e6);
}

TEST(ManagedRun, BackgroundLoadTriggersAgentEvents) {
  ManagedRunConfig config = small_config(60);
  config.with_background_load = true;
  config.load.mean_cpu_load = 0.7;
  config.load.node_bias_spread = 0.4;
  config.load_event_threshold = 0.75;
  ManagedRun managed(config);
  const ManagedRunReport report = managed.run();
  EXPECT_GT(report.agent_events, 0u);
  EXPECT_GT(report.adm_decisions, 0u);
}

TEST(ManagedRun, SystemSensitiveUsesCapacities) {
  ManagedRunConfig config = small_config(60);
  config.capacity_spread = 0.5;
  config.system_sensitive = true;
  ManagedRunConfig equal = config;
  equal.system_sensitive = false;
  const double sensitive = ManagedRun(config).run().total_time_s;
  const double uniform = ManagedRun(equal).run().total_time_s;
  // Capacity weighting beats equal shares on a heterogeneous cluster.
  EXPECT_LT(sensitive, uniform);
}

TEST(ManagedRun, ProactiveModeRuns) {
  ManagedRunConfig config = small_config(40);
  config.capacity_spread = 0.35;
  config.with_background_load = true;
  config.system_sensitive = true;
  config.proactive = true;
  const ManagedRunReport report = ManagedRun(config).run();
  EXPECT_GT(report.total_time_s, 0.0);
  EXPECT_EQ(report.regrids, 10u);
}

TEST(ManagedRun, SwitchesPartitionersAcrossPhases) {
  // 200 steps cross the quiescent -> shock transition.
  ManagedRun managed(small_config(200));
  const ManagedRunReport report = managed.run();
  EXPECT_GE(report.partitioner_switches, 1u);
}

class ManagedRunGridCache : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::MetricsRegistry::instance().set_enabled(false);
    obs::MetricsRegistry::instance().reset();
  }
};

TEST_F(ManagedRunGridCache, EventRepartitionsReuseTheRegridsGrids) {
  // The CI observability smoke configuration, without durable files: the
  // hierarchy changes only at a regrid, so every event repartition finds
  // both of its grids cached and each regrid makes at most two grids.
  ManagedRunConfig config = small_config(60);
  config.capacity_spread = 0.35;
  config.with_background_load = true;
  config.system_sensitive = true;
  config.ft.enabled = true;
  config.ft.channel.drop_probability = 0.05;
  config.modeled_partition_s_per_cell = 50e-9;
  config.obs.metrics = true;
  const auto count = [](const std::string& name) -> std::uint64_t {
    return obs::metrics().counter("partition.workgrid_cache." + name).value();
  };
  const std::uint64_t hits = count("hits");
  const std::uint64_t builds = count("full_builds") +
                               count("incremental_builds");
  ManagedRun managed(config);
  managed.schedule_failure(60.0, 3, 120.0);
  const ManagedRunReport report = managed.run();
  ASSERT_GT(report.event_repartitions, 0u);
  EXPECT_GE(count("hits") - hits, report.event_repartitions);
  EXPECT_LE(count("full_builds") + count("incremental_builds") - builds,
            2 * (report.regrids + 1));
}

}  // namespace
}  // namespace pragma::core
