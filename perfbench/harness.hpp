// Driving pragma::Runtime: closed-loop units, the open-loop generator,
// journal recovery timing, and the output checks against direct core calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pragma/service/runtime.hpp"
#include "pragma/util/thread_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The runtime under test: journal on, two workers on a pool of their own
/// two threads (on the shared pool, runs hop across every core's thread and
/// each thread's allocator arena keeps its own free memory, which made the
/// peak RSS swing).  Wrapped so it can live behind a unique_ptr (Runtime
/// itself is not movable).
struct Service {
  explicit Service(const std::string& journal_dir);
  pragma::util::ThreadPool pool;  // declared first: outlives the runtime
  pragma::Runtime runtime;
};

inline constexpr std::size_t kWorkers = 2;
/// The timed runtimes journal every admission but skip the per-append
/// fsync: on shared virtual disks its latency varied 2-4x between
/// back-to-back runs and buried every other admission cost.  The fsync'd
/// append is timed on its own in the traced run (service.journal.*).
inline constexpr bool kJournalFsync = false;

/// What one submitted run produced, with its timings.
struct RunRecord {
  RunSpec spec;
  pragma::service::RunOutcome outcome;
  std::size_t request = 0;  ///< index of the submit call that carried it
  bool admitted = false;
  bool completed = false;
  double submit_latency_s = 0.0;  ///< call return - due
  double late_s = 0.0;            ///< call start - due
  /// due -> completion: submit latency + queue_s + exec_s (the scheduler
  /// stamps admission just before submit returns).
  double latency_s = 0.0;
  double sim_time_s = 0.0;
};

/// One measured phase: a closed-loop unit or an open-loop schedule.
struct PhaseResult {
  std::vector<RunRecord> runs;
  std::vector<double> single_call_s;  ///< submit() calls of one spec
  std::vector<double> batch_call_s;   ///< submit_batch() calls
  double wall_s = 0.0;
  double submit_call_s = 0.0;  ///< summed generator time inside submits
  std::size_t shed = 0;
  std::size_t outstanding_at_end = 0;  ///< open loop: unfinished at last send
  bool aborted = false;                ///< open loop: overload cut it short
  double window_start_us = 0.0;        ///< tracer clock
  double window_end_us = 0.0;

  [[nodiscard]] std::vector<double> latencies_s() const;
  [[nodiscard]] std::vector<double> submit_latencies_ms() const;
  [[nodiscard]] std::vector<double> late_ms() const;
  /// Per request (one submit or submit_batch call): run latency until its
  /// last run completes, submit latency and lateness.  A request with a
  /// run that was shed or failed is left out (it missed every limit).
  [[nodiscard]] std::vector<double> request_latencies_s() const;
  [[nodiscard]] std::vector<double> request_submit_ms() const;
  [[nodiscard]] std::vector<double> request_late_ms() const;
  [[nodiscard]] std::vector<double> queue_s() const;
  [[nodiscard]] std::vector<double> exec_s() const;
  [[nodiscard]] double sum_exec_s() const;
  [[nodiscard]] double sim_time_s() const;
  [[nodiscard]] std::size_t failed() const;
};

/// Closed loop: submit every batch back to back (all due at the unit's
/// start), then wait for every run.
[[nodiscard]] PhaseResult run_closed(pragma::Runtime& runtime,
                                     const std::vector<std::vector<RunSpec>>&
                                         batches);

/// Open loop: send each arrival when it is due from one generator thread.
/// With `abort_late_s` > 0 the phase stops early (aborted) at the first
/// shed or once a request returns more than that long after it was due.
[[nodiscard]] PhaseResult run_open(pragma::Runtime& runtime,
                                   const std::vector<Arrival>& schedule,
                                   double abort_late_s);

/// Copy a journal directory (regular files only).
void copy_dir(const std::string& from, const std::string& to);

/// Build a fresh Runtime on copies of `journal_dir`, `repeats` times; the
/// medians of the build times.  Counts a copy that recovers pending runs
/// or torn files in *mismatches.
struct RecoveryTiming {
  double runtime_s = 0.0;  ///< Runtime::Builder::build() on the copy
  double journal_open_s = 0.0;  ///< Journal::open() alone on the copy
};
[[nodiscard]] RecoveryTiming time_recovery(const std::string& journal_dir,
                                           const std::string& scratch_dir,
                                           int repeats,
                                           std::size_t* mismatches);

/// Re-execute a completed run directly through core (ManagedRun on
/// to_managed(), TraceRunner on to_trace(), or the system-sensitive
/// experiment) and compare every reported figure bitwise.  Returns an
/// empty string when they match, else what differed.
[[nodiscard]] std::string check_against_core(const RunRecord& record);

}  // namespace perfbench
