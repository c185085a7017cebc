// Seeded inputs of the three benchmark workloads.
//
// Everything a workload submits is a pure function of the workload seed
// given on the command line, so one seed always yields the same spec list
// and arrival schedule.  Every spec uses a modeled partition cost
// (modeled_partition_s_per_cell > 0), which makes the simulated outputs
// bitwise deterministic and therefore checkable against direct core calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/amr/trace.hpp"
#include "pragma/service/run_spec.hpp"

namespace perfbench {

using pragma::service::RunSpec;

inline constexpr double kModeledPartitionSPerCell = 50e-9;
/// The admission workload's nominal open-loop rate (runs per second).
inline constexpr double kNominalRateHz = 100.0;
/// One arrival in every kBatchEvery is a batch of kBatchSize runs.
inline constexpr std::size_t kBatchSize = 8;
inline constexpr std::size_t kBatchEvery = 10;
/// Samples a p99 needs: ten beyond the percentile.
inline constexpr std::size_t kP99Samples = 1000;

// ---- managed_study -------------------------------------------------------

/// One tenant's submit_batch of a study.
struct StudyBatch {
  std::string tenant;
  std::vector<RunSpec> specs;
};

/// Two tenants, each one batch of four derived(i) full-size RM3D managed
/// runs (128x32x32, 3 levels, 200 coarse steps, 16 heterogeneous nodes,
/// background load, system-sensitive).  The tenants' app seeds differ (and
/// are fixed), so the study holds two distinct emulations, each repeated
/// four times; the workload seed picks the run seeds.
[[nodiscard]] std::vector<StudyBatch> managed_study_batches(std::uint64_t seed);

// ---- replay_sweep --------------------------------------------------------

/// The paper's canonical trace configuration (800 coarse steps, 201
/// snapshots); seed-independent.
[[nodiscard]] pragma::amr::Rm3dConfig canonical_config();

/// One batch over one shared trace: adaptive plus the six static
/// partitioners on 64 homogeneous nodes, 32 heterogeneous nodes (spread
/// 0.35) and a 2-site federated 64-node machine, plus system-sensitive
/// runs at 16, 32 and 64 procs.  The seed picks each run's seed, and with
/// it the heterogeneous machines' node speeds.
[[nodiscard]] std::vector<RunSpec> replay_sweep_specs(
    std::uint64_t seed,
    const std::shared_ptr<const pragma::amr::AdaptationTrace>& trace);

// ---- admission_stream ----------------------------------------------------

/// A small managed "probe" run's application (32x8x8 base, one level, 16
/// steps), one config per tenant.
[[nodiscard]] pragma::amr::Rm3dConfig probe_config(std::uint64_t seed,
                                                   std::size_t tenant);

inline constexpr std::size_t kProbeTenants = 4;

/// One due submission: a single run or a batch.
struct Arrival {
  double due_s = 0.0;  ///< offset from the phase start
  std::vector<RunSpec> specs;
};

/// Poisson arrivals of probe runs (4 heterogeneous nodes) from four
/// tenants with mixed priorities at exactly `rate_hz` runs per second on
/// average; one arrival in every ten is a batch.  The schedule lasts at
/// least `min_seconds` and holds at least `min_arrivals` requests (rounded
/// up to whole blocks of ten).  `stream` separates the phases of one run
/// (nominal phase, each search rung).
[[nodiscard]] std::vector<Arrival> admission_schedule(
    std::uint64_t seed, std::uint64_t stream, double rate_hz,
    double min_seconds, std::size_t min_arrivals);

[[nodiscard]] std::size_t run_count(const std::vector<Arrival>& schedule);

// ---- fingerprints --------------------------------------------------------

/// FNV-1a over the journal encoding of each spec (the value surface of a
/// RunSpec), in order.
[[nodiscard]] std::uint64_t spec_fingerprint(const std::vector<RunSpec>& specs);

/// Fold one regrid hierarchy (step, every level's boxes) into a digest.
[[nodiscard]] std::uint64_t fold_hierarchy(std::uint64_t digest, int step,
                                           const pragma::amr::GridHierarchy& h);

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

[[nodiscard]] std::string hex(std::uint64_t value);

/// A short stable label for an emulator config (its dims, steps and seed).
[[nodiscard]] std::string config_label(const pragma::amr::Rm3dConfig& config);

}  // namespace perfbench
