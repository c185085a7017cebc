// Equivalence of the table-driven assignment sweep (ExecutionModel::map)
// with the scalar per-face oracle in reference_exec_map.hpp, bit for bit,
// on every snapshot of an RM3D trace.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include "pragma/amr/rm3d.hpp"
#include "pragma/core/exec_model.hpp"
#include "pragma/partition/metrics.hpp"
#include "pragma/util/rng.hpp"
#include "reference_exec_map.hpp"

namespace pragma::core {
namespace {

constexpr int kProcs = 16;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::size_t sfc_fragments(const partition::WorkGrid& grid,
                          const partition::OwnerMap& owners) {
  std::size_t fragments = 0;
  int last = -1;
  for (const std::uint32_t c : grid.order()) {
    if (owners.owner[c] != last) ++fragments;
    last = owners.owner[c];
  }
  return fragments;
}

/// Checks every field of the sweep against the oracles; returns a
/// description of the first mismatch (empty when all match).
std::string compare(const partition::WorkGrid& grid,
                    const partition::OwnerMap& owners,
                    const std::vector<int>* sites) {
  const MappedLoad got = ExecutionModel().map(grid, owners, sites);
  const MappedLoad want = reference_map(grid, owners, sites);
  if (!same_bits(got.work, want.work)) return "work";
  if (!same_bits(got.face_cells, want.face_cells)) return "face_cells";
  if (!same_bits(got.messages, want.messages)) return "messages";
  if (!same_bits(got.wan_face_cells, want.wan_face_cells))
    return "wan_face_cells";
  if (!same_bits(got.wan_messages, want.wan_messages)) return "wan_messages";
  if (!same_bits(got.comm_volume,
                 partition::reference_communication_volume(grid, owners)))
    return "comm_volume";
  if (got.fragments != sfc_fragments(grid, owners)) return "fragments";
  return {};
}

TEST(ExecutionSweep, MatchesScalarReferenceOnEveryTraceSnapshot) {
  amr::Rm3dConfig config;
  config.base_dims = {64, 16, 16};
  config.coarse_steps = 200;
  const amr::AdaptationTrace trace = amr::Rm3dEmulator(config).run();

  std::vector<int> contiguous(kProcs);
  std::vector<int> interleaved(kProcs);
  for (int p = 0; p < kProcs; ++p) {
    contiguous[static_cast<std::size_t>(p)] = p / (kProcs / 2);
    interleaved[static_cast<std::size_t>(p)] = p % 3;
  }
  const std::vector<const std::vector<int>*> site_maps{nullptr, &contiguous,
                                                       &interleaved};
  std::vector<std::unique_ptr<partition::Partitioner>> partitioners;
  for (const char* name : {"SFC", "G-MISP+SP", "pBD-ISP"})
    partitioners.push_back(partition::make_partitioner(name));
  const std::vector<double> targets = partition::equal_targets(kProcs);

  util::Rng rng(41);
  bool saw_wan = false;
  bool saw_refinement = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const partition::WorkGrid grid(trace.at(i).hierarchy, 2);
    saw_refinement = saw_refinement || grid.num_levels() > 1;
    std::vector<partition::OwnerMap> maps;
    partition::OwnerMap random;
    random.nprocs = kProcs;
    for (std::size_t c = 0; c < grid.cell_count(); ++c)
      random.owner.push_back(static_cast<int>(rng.uniform_int(0, kProcs - 1)));
    maps.push_back(std::move(random));
    for (const auto& partitioner : partitioners)
      maps.push_back(partitioner->partition(grid, targets).owners);

    for (std::size_t m = 0; m < maps.size(); ++m)
      for (const std::vector<int>* sites : site_maps) {
        const std::string mismatch = compare(grid, maps[m], sites);
        ASSERT_TRUE(mismatch.empty())
            << mismatch << " differs at snapshot " << i << ", owner map "
            << m << (sites ? ", with sites" : ", without sites");
        if (sites != nullptr)
          saw_wan = saw_wan ||
                    ExecutionModel().map(grid, maps[m], sites).wan_messages >
                        0.0;
      }
  }
  EXPECT_TRUE(saw_wan);
  EXPECT_TRUE(saw_refinement);
}

TEST(ExecutionSweep, DeepGridsFoldPerFace) {
  // More levels than the 2^levels cost table covers: the sweep folds each
  // mask level by level and must still match the oracle.
  constexpr int kLevels = 18;
  amr::GridHierarchy h({4, 4, 4}, 2, kLevels);
  for (int l = 1; l < kLevels; ++l) {
    const int edge = 2 << l;  // two level-0 cells wide, then nested
    h.set_level_boxes(l, {amr::Box({0, 0, 0}, {edge, edge, edge})});
  }
  const partition::WorkGrid grid(h, 1);
  ASSERT_EQ(grid.num_levels(), kLevels);
  ASSERT_TRUE(partition::face_cost_table(grid).empty());
  util::Rng rng(43);
  partition::OwnerMap owners;
  owners.nprocs = 4;
  for (std::size_t c = 0; c < grid.cell_count(); ++c)
    owners.owner.push_back(static_cast<int>(rng.uniform_int(0, 3)));
  const std::vector<int> sites{0, 1, 0, 1};
  EXPECT_EQ(compare(grid, owners, nullptr), "");
  EXPECT_EQ(compare(grid, owners, &sites), "");
}

TEST(ExecutionSweep, RejectsOwnerMapsThatDoNotCoverTheGrid) {
  const partition::WorkGrid grid(amr::GridHierarchy({8, 8, 8}, 2, 1), 2);
  partition::OwnerMap owners;
  owners.nprocs = 2;
  owners.owner.assign(grid.cell_count() - 1, 0);
  EXPECT_THROW(ExecutionModel().map(grid, owners), std::invalid_argument);
  owners.owner.assign(grid.cell_count(), 2);
  EXPECT_THROW(ExecutionModel().map(grid, owners), std::invalid_argument);
}

}  // namespace
}  // namespace pragma::core
