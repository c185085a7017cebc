// Scalar equivalence oracle for ExecutionModel::map.
//
// The per-face formulation the table-driven assignment sweep replaced:
// every face folds its shared levels one by one, cross-site exchanges are
// deduplicated through a std::set of (proc pair, level) triples, and the
// SFC message pass walks every level of every cell.  It fills the fields
// the execution model times (work, face cells, messages, WAN tallies);
// tests compare the sweep against it bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "pragma/core/exec_model.hpp"

namespace pragma::core {

inline MappedLoad reference_map(const partition::WorkGrid& grid,
                                const partition::OwnerMap& owners,
                                const std::vector<int>* proc_sites = nullptr) {
  const auto nprocs = static_cast<std::size_t>(owners.nprocs);

  MappedLoad mapped;
  mapped.work = partition::processor_loads(grid, owners);

  std::vector<double> face_cells(nprocs, 0.0);
  const amr::IntVec3 dims = grid.lattice_dims();
  const int g = grid.grain();
  // Cross-site exchanges: one WAN message per (proc pair, level) per
  // substep, not per face.
  std::set<std::tuple<int, int, int>> wan_exchanges;

  auto visit_face = [&](std::size_t a, std::size_t b) {
    const int pa = owners.owner[a];
    const int pb = owners.owner[b];
    if (pa == pb) return;
    const std::uint32_t shared =
        grid.levels_present(a) & grid.levels_present(b);
    if (shared == 0) return;
    const bool cross_site =
        proc_sites != nullptr &&
        (*proc_sites)[static_cast<std::size_t>(pa)] !=
            (*proc_sites)[static_cast<std::size_t>(pb)];
    double cost = 0.0;
    double r = 1.0;
    for (int l = 0; l < grid.num_levels(); ++l) {
      if (shared & (1u << l)) {
        const double edge = static_cast<double>(g) * r;
        cost += edge * edge * r;  // face cells x substeps
        if (cross_site &&
            wan_exchanges.insert({std::min(pa, pb), std::max(pa, pb), l})
                .second)
          mapped.wan_messages += r;  // substeps of this level
      }
      r *= static_cast<double>(grid.ratio());
    }
    face_cells[static_cast<std::size_t>(pa)] += cost;
    face_cells[static_cast<std::size_t>(pb)] += cost;
    if (cross_site) mapped.wan_face_cells += cost;
  };

  for (int z = 0; z < dims.z; ++z)
    for (int y = 0; y < dims.y; ++y)
      for (int x = 0; x < dims.x; ++x) {
        const std::size_t c = grid.linear({x, y, z});
        if (x + 1 < dims.x) visit_face(c, grid.linear({x + 1, y, z}));
        if (y + 1 < dims.y) visit_face(c, grid.linear({x, y + 1, z}));
        if (z + 1 < dims.z) visit_face(c, grid.linear({x, y, z + 1}));
      }

  mapped.face_cells = std::move(face_cells);

  // Message count = per-level ownership fragmentation: the number of
  // maximal same-owner runs of level-l cells along the SFC order, per
  // substep.  Each fragment is a patch piece with its own ghost exchanges
  // and metadata — this is where fine-grain partitioning of scattered
  // refinement patterns pays its "partitioning induced overheads".
  mapped.messages.assign(nprocs, 0.0);
  std::vector<double> substeps(static_cast<std::size_t>(grid.num_levels()));
  {
    double r = 1.0;
    for (int l = 0; l < grid.num_levels(); ++l) {
      substeps[static_cast<std::size_t>(l)] = r;
      r *= static_cast<double>(grid.ratio());
    }
  }
  int prev_owner = -1;
  std::uint32_t prev_levels = 0;
  for (std::uint32_t c : grid.order()) {
    const int owner = owners.owner[c];
    const std::uint32_t levels = grid.levels_present(c);
    for (int l = 0; l < grid.num_levels(); ++l) {
      const bool now = (levels >> l) & 1u;
      const bool before = owner == prev_owner && ((prev_levels >> l) & 1u);
      // A fragment of level l starts here: two boundary exchanges per
      // substep of that level.
      if (now && !before)
        mapped.messages[static_cast<std::size_t>(owner)] +=
            2.0 * substeps[static_cast<std::size_t>(l)];
    }
    prev_owner = owner;
    prev_levels = levels;
  }
  return mapped;
}


}  // namespace pragma::core
