// Per-layer measurements for the traced run: standalone timings of the
// public calls into amr, partition, the journal and core on the workload's
// own inputs, and the split of a traced phase's busy time across layers
// from span self times.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/amr/trace.hpp"
#include "pragma/obs/tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

// ---- amr -----------------------------------------------------------------

/// One emulation of a config driven call by call through
/// Rm3dEmulator::advance, as the managed run and trace generation do.
struct Emulation {
  std::string label;
  double advance_s = 0.0;           ///< all advance() calls
  std::vector<double> regrid_s;     ///< advance() calls that regridded
  std::size_t boxes = 0;            ///< summed over regrid hierarchies
  double refined_cells = 0.0;       ///< cells on levels >= 1, summed
  std::uint64_t digest = kFnvOffset;  ///< every regrid hierarchy, in order
  std::shared_ptr<const pragma::amr::AdaptationTrace> trace;
};

[[nodiscard]] Emulation emulate(const pragma::amr::Rm3dConfig& config);

/// Calls of Rm3dEmulator::advance so far, from any thread.  The benchmark
/// links with `--wrap` on that symbol (CMakeLists.txt), so every call the
/// library makes, from ManagedRun included, passes a wrapper that counts
/// it and, while tracing is on, records it as a "bench" span named
/// kAdvanceSpan.  The traced run charges those spans to amr.
[[nodiscard]] std::uint64_t emulator_advance_calls();
inline constexpr const char* kAdvanceSpan = "Rm3dEmulator.advance";

// ---- partition -----------------------------------------------------------

struct PartitionProbe {
  double workgrid_build_s = 0.0;
  double workgrid_delta_s = 0.0;
  std::size_t delta_attempts = 0;
  std::size_t delta_applied = 0;
  /// apply_delta results that differ from a fresh build, and comm volumes
  /// that are negative or NaN.
  std::size_t bad_outputs = 0;
  double partition_s = 0.0;
  double commvol_s = 0.0;
};

/// WorkGrid build and apply_delta, then each static partitioner and the
/// communication volume of its assignment, over every snapshot.
void probe_partition(const pragma::amr::AdaptationTrace& trace,
                     std::size_t nprocs, PartitionProbe* probe);

// ---- journal -------------------------------------------------------------

struct JournalProbe {
  std::vector<double> append_ms;
  std::vector<double> append_batch_ms;
  double bytes_per_spec = 0.0;
  double fsyncs_per_spec = 0.0;  ///< over the single and batched appends
};

/// Standalone Journal::append (kP99Samples calls) and append_batch calls
/// of `batch_size` specs on a scratch directory, cycling through `specs`.
[[nodiscard]] JournalProbe probe_journal(const std::vector<RunSpec>& specs,
                                         std::size_t batch_size,
                                         const std::string& dir);

// ---- core ----------------------------------------------------------------

/// ManagedRun construction time for each spec (its to_managed()).
[[nodiscard]] std::vector<double> probe_managed_ctor(
    const std::vector<RunSpec>& specs);

/// One adaptive TraceRunner replay of `trace` on the spec's machine.
[[nodiscard]] double probe_replay(const pragma::amr::AdaptationTrace& trace,
                                  const RunSpec& machine);

// ---- attribution ---------------------------------------------------------

/// Busy time of a traced phase split by layer.
struct Attribution {
  std::map<std::string, double> layer_s;  ///< self time by layer
  double unattributed_s = 0.0;  ///< busy - every layer
  /// Durations / self times of selected program spans in the window.
  std::vector<double> managed_run_s;
  std::vector<double> replay_s;
  double meta_select_s = 0.0;
  double consolidate_s = 0.0;
  double sample_s = 0.0;
};

/// Self time of each event: its duration minus its direct children's, per
/// thread.  Events must nest (RAII spans do).
[[nodiscard]] std::vector<double> self_times(
    const std::vector<pragma::obs::TraceEvent>& events);

/// Split `busy_s` over the layers named by span categories in
/// [start_us, end_us].  Spans the benchmark adds have the "bench" category:
/// its wrappers around Runtime::submit / submit_batch are charged to
/// service, the emulator's advance() spans to amr, the rest (idle waits)
/// is left out.
[[nodiscard]] Attribution attribute(
    const std::vector<pragma::obs::TraceEvent>& events, double start_us,
    double end_us, double busy_s);

}  // namespace perfbench
