// The five-component PAC quality metric (Section 4.1).
//
// "The proposed metric for characterizing the quality of a PAC [tuple
//  <partitioner, application, computer system>] for the adaptive SAMR
//  meta-partitioner include Communication requirements, Load imbalance,
//  Amount of data migration, Partitioning time, and Partitioning induced
//  overheads."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pragma/partition/partitioner.hpp"

namespace pragma::partition {

struct PacMetrics {
  /// (1) Communication: total inter-processor ghost-exchange volume per
  /// coarse step (cell-faces, MIT-weighted across levels).
  double communication = 0.0;
  /// (2) Load imbalance: max_i(load_i / target_i) / total - 1, i.e. how far
  /// the most overloaded processor is above its proportional share
  /// (0 = perfectly proportional).  Reported as a fraction.
  double load_imbalance = 0.0;
  /// (3) Data migration: storage volume (cells, all levels) that changed
  /// owner relative to the previous assignment, as a fraction of the total
  /// storage.  0 when there is no previous assignment.
  double data_migration = 0.0;
  /// (4) Partitioning time in seconds (wall clock of the algorithm).
  double partition_time = 0.0;
  /// (5) Partitioning-induced overheads: fragmentation of ownership —
  /// the number of ownership fragments (maximal same-owner SFC runs) per
  /// processor above the ideal single fragment.
  double overhead = 0.0;
};

/// Throws std::invalid_argument (naming `who`) unless the owner map covers
/// every grain cell of `grid` with an owner in [0, nprocs).
void validate_owners(const char* who, const WorkGrid& grid,
                     const OwnerMap& owners);

/// Per-processor work loads of an assignment.  Throws std::invalid_argument
/// when the owner map does not cover the grid or an owner is out of range.
[[nodiscard]] std::vector<double> processor_loads(const WorkGrid& grid,
                                                  const OwnerMap& owners);

/// Per-processor storage (cells across levels).  Validates like
/// processor_loads.
[[nodiscard]] std::vector<double> processor_storage(const WorkGrid& grid,
                                                    const OwnerMap& owners);

/// Total inter-processor communication volume (MIT-weighted ghost faces).
/// The sweep is branchless and table-driven (per-face cost looked up by
/// the shared level mask); its result is bitwise-identical to
/// reference_communication_volume.
[[nodiscard]] double communication_volume(const WorkGrid& grid,
                                          const OwnerMap& owners);

/// Bitwise equivalence oracle for communication_volume: the pre-SIMD
/// serial sweep with the per-face scalar level fold.
[[nodiscard]] double reference_communication_volume(const WorkGrid& grid,
                                                    const OwnerMap& owners);

/// Ghost-face cost of every shared level mask, indexed by mask: a level-l
/// face is (g r^l)^2 cells exchanged r^l times per coarse step, folded in
/// ascending level order.  The table-driven sweeps look faces up here; it
/// is empty for grids too deep for a 2^levels table, whose faces fold per
/// call through face_cost.
[[nodiscard]] std::vector<double> face_cost_table(const WorkGrid& grid);
[[nodiscard]] double face_cost(const WorkGrid& grid, std::uint32_t mask);

/// The PAC load-imbalance term: max_i(loads_i / (share_i * total_work)) - 1
/// with shares normalized by their sum, clamped at 0.
[[nodiscard]] double load_imbalance(std::span<const double> loads,
                                    std::span<const double> targets,
                                    double total_work);

/// Storage fraction that changed owner between two assignments over the
/// same lattice.
[[nodiscard]] double migration_fraction(const WorkGrid& grid,
                                        const OwnerMap& previous,
                                        const OwnerMap& current);

/// Evaluate the full 5-component metric.  `previous` may be null.  Throws
/// std::invalid_argument when the owner map does not cover the grid or
/// targets.size() != nprocs.
[[nodiscard]] PacMetrics evaluate_pac(const WorkGrid& grid,
                                      const PartitionResult& result,
                                      std::span<const double> targets,
                                      const OwnerMap* previous = nullptr);

}  // namespace pragma::partition
