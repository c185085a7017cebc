#include "pragma/core/exec_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "pragma/obs/tracer.hpp"

namespace pragma::core {

namespace {

/// Sum of `weight[l]` over the levels set in `mask`, in ascending level
/// order.
double fold_levels(const std::vector<double>& weight, std::uint32_t mask) {
  double sum = 0.0;
  for (std::size_t l = 0; l < weight.size(); ++l)
    if ((mask >> l) & 1u) sum += weight[l];
  return sum;
}

/// The assignment sweep.  Faces are visited from their lower cell, x then y
/// then z, with the past-the-boundary neighbour resolving to the cell
/// itself (same owner, so nothing is charged); work and face traffic
/// therefore accumulate in exactly the per-face order of a scalar sweep.
/// `face_cost` and `fragment_cost` map a level mask to the face's ghost
/// cells x substeps and to the boundary exchanges of the fragments
/// starting there.  Every term is integer-valued, so pre-summing a mask's
/// levels leaves each accumulator bitwise unchanged.
template <typename FaceCost, typename FragmentCost>
void sweep(const partition::WorkGrid& grid, const partition::OwnerMap& owners,
           const std::vector<int>* proc_sites, FaceCost face_cost,
           FragmentCost fragment_cost, std::vector<std::uint32_t>& wan_pairs,
           MappedLoad& mapped) {
  const int* owner = owners.owner.data();
  const std::uint32_t* levels = grid.levels().data();
  double* work = mapped.work.data();
  double* face_cells = mapped.face_cells.data();
  const amr::IntVec3 dims = grid.lattice_dims();
  const std::size_t sy = static_cast<std::size_t>(dims.x);
  const std::size_t sz = sy * static_cast<std::size_t>(dims.y);
  const std::size_t nprocs = mapped.nprocs();
  double total = 0.0;
  // The current owner run's work total stays in a register (loaded at the
  // run's start, stored at its end), so the adds still happen in cell
  // order.
  int run_owner = -1;
  double run_work = 0.0;
  for (int z = 0; z < dims.z; ++z) {
    const std::size_t zstep = z + 1 < dims.z ? sz : 0;
    for (int y = 0; y < dims.y; ++y) {
      const std::size_t ystep = y + 1 < dims.y ? sy : 0;
      const std::size_t base =
          sy * static_cast<std::size_t>(y) + sz * static_cast<std::size_t>(z);
      for (int x = 0; x < dims.x; ++x) {
        const std::size_t c = base + static_cast<std::size_t>(x);
        const int oc = owner[c];
        const std::uint32_t lc = levels[c];
        if (oc != run_owner) {
          if (run_owner >= 0) work[run_owner] = run_work;
          run_owner = oc;
          run_work = work[oc];
        }
        run_work += grid.work(c);
        const auto visit = [&](std::size_t n) {
          const int on = owner[n];
          if (on == oc) return;
          const std::uint32_t shared = lc & levels[n];
          const double cost = face_cost(shared);
          face_cells[oc] += cost;
          face_cells[on] += cost;
          total += cost;
          if (proc_sites != nullptr && (*proc_sites)[oc] != (*proc_sites)[on]) {
            mapped.wan_face_cells += cost;
            wan_pairs[static_cast<std::size_t>(std::min(oc, on)) * nprocs +
                      static_cast<std::size_t>(std::max(oc, on))] |= shared;
          }
        };
        visit(c + static_cast<std::size_t>(x + 1 < dims.x));
        visit(c + ystep);
        visit(c + zstep);
      }
    }
  }
  if (run_owner >= 0) work[run_owner] = run_work;
  mapped.comm_volume = total;

  // Message count = per-level ownership fragmentation: the number of
  // maximal same-owner runs of level-l cells along the SFC order, per
  // substep.  Each fragment is a patch piece with its own ghost exchanges
  // and metadata — this is where fine-grain partitioning of scattered
  // refinement patterns pays its "partitioning induced overheads".  A
  // level's fragment starts where the owner changes or the level appears.
  int prev_owner = -1;
  std::uint32_t prev_levels = 0;
  for (std::uint32_t c : grid.order()) {
    const int o = owner[c];
    const std::uint32_t l = levels[c];
    const bool continues = o == prev_owner;
    mapped.fragments += continues ? 0 : 1;
    const std::uint32_t starts = continues ? l & ~prev_levels : l;
    if (starts != 0)
      mapped.messages[static_cast<std::size_t>(o)] += fragment_cost(starts);
    prev_owner = o;
    prev_levels = l;
  }
}

}  // namespace

MappedLoad ExecutionModel::map(const partition::WorkGrid& grid,
                               const partition::OwnerMap& owners,
                               const std::vector<int>* proc_sites) const {
  PRAGMA_SPAN("core", "ExecutionModel.map");
  partition::validate_owners("ExecutionModel::map", grid, owners);
  const auto nprocs = static_cast<std::size_t>(owners.nprocs);
  MappedLoad mapped;
  mapped.work.assign(nprocs, 0.0);
  mapped.face_cells.assign(nprocs, 0.0);
  mapped.messages.assign(nprocs, 0.0);

  // Per level: substeps per coarse step, and a fragment's two boundary
  // exchanges per substep.
  std::vector<double> substeps(static_cast<std::size_t>(grid.num_levels()));
  std::vector<double> fragment(substeps.size());
  double r = 1.0;
  for (std::size_t l = 0; l < substeps.size(); ++l) {
    substeps[l] = r;
    fragment[l] = 2.0 * r;
    r *= static_cast<double>(grid.ratio());
  }
  // Cross-site exchanges: one WAN message per (proc pair, level) per
  // substep, not per face — the levels each pair shares across sites.
  std::vector<std::uint32_t> wan_pairs(
      proc_sites != nullptr ? nprocs * nprocs : 0, 0u);

  const std::vector<double> face_table = partition::face_cost_table(grid);
  if (!face_table.empty()) {
    std::vector<double> fragment_table(face_table.size());
    for (std::size_t mask = 0; mask < fragment_table.size(); ++mask)
      fragment_table[mask] =
          fold_levels(fragment, static_cast<std::uint32_t>(mask));
    sweep(
        grid, owners, proc_sites,
        [&](std::uint32_t mask) { return face_table[mask]; },
        [&](std::uint32_t mask) { return fragment_table[mask]; }, wan_pairs,
        mapped);
  } else {
    sweep(
        grid, owners, proc_sites,
        [&](std::uint32_t mask) { return partition::face_cost(grid, mask); },
        [&](std::uint32_t mask) { return fold_levels(fragment, mask); },
        wan_pairs, mapped);
  }
  for (const std::uint32_t shared : wan_pairs)
    mapped.wan_messages += fold_levels(substeps, shared);
  return mapped;
}

StepTime ExecutionModel::time_of(const MappedLoad& mapped,
                                 const grid::Cluster& cluster) const {
  const std::size_t nprocs = mapped.nprocs();
  if (nprocs > cluster.size())
    throw std::invalid_argument("time_of: more processors than nodes");

  StepTime result;
  result.proc_busy_s.assign(nprocs, 0.0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    // A processor with nothing assigned costs nothing — even a failed node
    // (after its work has been migrated away) must not stall the step.
    if (mapped.work[p] <= 0.0 && mapped.face_cells[p] <= 0.0 &&
        mapped.messages[p] <= 0.0)
      continue;
    const grid::Node& node = cluster.node(static_cast<grid::NodeId>(p));
    const double flops = mapped.work[p] * config_.flops_per_cell_update;
    const double compute = node.compute_time(flops / 1e9);  // gflop units

    const double bytes = mapped.face_cells[p] * config_.bytes_per_face_cell;
    const double rate =
        cluster.uplink(static_cast<grid::NodeId>(p)).effective_bytes_per_s();
    const double comm = (rate > 0.0 ? bytes / rate : 0.0) +
                        mapped.messages[p] * config_.message_latency_s;

    result.proc_busy_s[p] = compute + comm;
    result.compute_s = std::max(result.compute_s, compute);
    result.comm_s = std::max(result.comm_s, comm);
    result.total_s = std::max(result.total_s, compute + comm);
  }

  // Federated grids: cross-site ghost traffic shares one WAN link; the
  // bulk-synchronous step waits for it on top of the slowest processor.
  if (cluster.federated() && mapped.wan_face_cells > 0.0) {
    const double rate = cluster.wan().effective_bytes_per_s();
    const double wan_s =
        (rate > 0.0
             ? mapped.wan_face_cells * config_.bytes_per_face_cell / rate
             : 0.0) +
        mapped.wan_messages * cluster.wan().spec().latency_s;
    result.comm_s += wan_s;
    result.total_s += wan_s;
  }
  return result;
}

StepTime ExecutionModel::step_time(const partition::WorkGrid& grid,
                                   const partition::OwnerMap& owners,
                                   const grid::Cluster& cluster) const {
  return time_of(map(grid, owners), cluster);
}

double ExecutionModel::migration_time(const partition::WorkGrid& grid,
                                      const partition::OwnerMap& previous,
                                      const partition::OwnerMap& current,
                                      const grid::Cluster& cluster) const {
  PRAGMA_SPAN("core", "ExecutionModel.migration_time");
  if (previous.owner.size() != current.owner.size())
    throw std::invalid_argument("migration_time: lattice mismatch");
  const auto nprocs = static_cast<std::size_t>(
      std::max(previous.nprocs, current.nprocs));
  std::vector<double> outgoing(nprocs, 0.0);
  std::vector<double> incoming(nprocs, 0.0);
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    const int from = previous.owner[c];
    const int to = current.owner[c];
    if (from == to) continue;
    const double bytes = grid.storage(c) * config_.bytes_per_cell;
    outgoing[static_cast<std::size_t>(from)] += bytes;
    incoming[static_cast<std::size_t>(to)] += bytes;
  }
  double worst = 0.0;
  for (std::size_t p = 0; p < nprocs && p < cluster.size(); ++p) {
    const double rate =
        cluster.uplink(static_cast<grid::NodeId>(p)).effective_bytes_per_s();
    if (rate <= 0.0) continue;
    worst = std::max(worst, (outgoing[p] + incoming[p]) / rate);
  }
  return worst * config_.redistribution_overhead;
}

partition::OwnerMap project_owners(const partition::OwnerMap& source,
                                   amr::IntVec3 source_dims,
                                   amr::IntVec3 target_dims) {
  if (target_dims.x % source_dims.x != 0 ||
      target_dims.y % source_dims.y != 0 ||
      target_dims.z % source_dims.z != 0)
    throw std::invalid_argument("project_owners: dims must divide");
  const int fx = target_dims.x / source_dims.x;
  const int fy = target_dims.y / source_dims.y;
  const int fz = target_dims.z / source_dims.z;

  partition::OwnerMap out;
  out.nprocs = source.nprocs;
  out.owner.resize(static_cast<std::size_t>(target_dims.x) *
                   static_cast<std::size_t>(target_dims.y) *
                   static_cast<std::size_t>(target_dims.z));
  for (int z = 0; z < target_dims.z; ++z)
    for (int y = 0; y < target_dims.y; ++y)
      for (int x = 0; x < target_dims.x; ++x) {
        const std::size_t src =
            static_cast<std::size_t>(x / fx) +
            static_cast<std::size_t>(source_dims.x) *
                (static_cast<std::size_t>(y / fy) +
                 static_cast<std::size_t>(source_dims.y) *
                     static_cast<std::size_t>(z / fz));
        const std::size_t dst =
            static_cast<std::size_t>(x) +
            static_cast<std::size_t>(target_dims.x) *
                (static_cast<std::size_t>(y) +
                 static_cast<std::size_t>(target_dims.y) *
                     static_cast<std::size_t>(z));
        out.owner[dst] = source.owner[src];
      }
  return out;
}

}  // namespace pragma::core
