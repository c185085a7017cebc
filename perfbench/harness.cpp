#include "harness.hpp"

#include <filesystem>
#include <sstream>
#include <algorithm>

#include "pragma/core/managed_run.hpp"
#include "pragma/core/system_sensitive.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/policy/builtin.hpp"

namespace perfbench {

namespace core = pragma::core;
namespace service = pragma::service;
namespace fs = std::filesystem;

namespace {

/// The Runtime configuration every workload uses.
pragma::Runtime::Builder service_builder(const std::string& journal_dir,
                                         pragma::util::ThreadPool* pool) {
  service::JournalConfig journal;
  journal.enabled = true;
  journal.dir = journal_dir;
  journal.fsync = kJournalFsync;
  pragma::Runtime::Builder builder;
  builder.workers(kWorkers).journal(journal).pool(pool);
  return builder;
}

}  // namespace

Service::Service(const std::string& journal_dir)
    : pool(kWorkers), runtime(service_builder(journal_dir, &pool).build()) {}

// ---------------------------------------------------------------------------
// PhaseResult views
// ---------------------------------------------------------------------------

namespace {

template <typename F>
std::vector<double> collect(const std::vector<RunRecord>& runs, F field) {
  std::vector<double> out;
  out.reserve(runs.size());
  for (const RunRecord& run : runs)
    if (run.completed) out.push_back(field(run));
  return out;
}

double sim_time_of(const RunSpec& spec,
                   const service::RunOutcome& outcome) {
  switch (spec.kind) {
    case service::WorkloadKind::kManaged: return outcome.managed.total_time_s;
    case service::WorkloadKind::kTraceReplay: return outcome.replay.runtime_s;
    case service::WorkloadKind::kSystemSensitive:
      return outcome.system_sensitive.sensitive_runtime_s;
    case service::WorkloadKind::kCustom: return 0.0;
  }
  return 0.0;
}

/// Record the admission result of one spec submitted in a call spanning
/// [call_start, call_end] that was due at `due`.
RunRecord admitted_record(RunSpec spec, std::size_t request,
                          Clock::time_point due, Clock::time_point call_start,
                          Clock::time_point call_end, bool admitted) {
  RunRecord record;
  record.spec = std::move(spec);
  record.request = request;
  record.admitted = admitted;
  record.submit_latency_s = seconds_between(due, call_end);
  record.late_s = seconds_between(due, call_start);
  return record;
}

/// Join every admitted run and fill in its outcome-derived timings.
void join(std::vector<RunRecord>& records,
          std::vector<pragma::RunHandle>& handles) {
  std::size_t h = 0;
  for (RunRecord& record : records) {
    if (!record.admitted) continue;
    pragma::RunHandle& handle = handles[h++];
    {
      PRAGMA_SPAN_VAR(span, "bench", "RunHandle.wait");
      record.outcome = handle.wait();
    }
    record.completed = record.outcome.state == service::RunState::kCompleted;
    record.latency_s = record.submit_latency_s + record.outcome.queue_s +
                       record.outcome.exec_s;
    record.sim_time_s = sim_time_of(record.spec, record.outcome);
  }
}

}  // namespace

std::vector<double> PhaseResult::latencies_s() const {
  return collect(runs, [](const RunRecord& r) { return r.latency_s; });
}
std::vector<double> PhaseResult::submit_latencies_ms() const {
  return collect(runs,
                 [](const RunRecord& r) { return r.submit_latency_s * 1e3; });
}
std::vector<double> PhaseResult::late_ms() const {
  return collect(runs, [](const RunRecord& r) { return r.late_s * 1e3; });
}
std::vector<double> PhaseResult::queue_s() const {
  return collect(runs, [](const RunRecord& r) { return r.outcome.queue_s; });
}
std::vector<double> PhaseResult::exec_s() const {
  return collect(runs, [](const RunRecord& r) { return r.outcome.exec_s; });
}
double PhaseResult::sum_exec_s() const { return sum(exec_s()); }

namespace {

/// Fold a per-run field into one value per request (max over its runs),
/// dropping requests with a run that did not complete.
template <typename F>
std::vector<double> per_request(const std::vector<RunRecord>& runs, F field) {
  std::vector<double> value;
  std::vector<bool> complete;
  for (const RunRecord& run : runs) {
    if (run.request >= value.size()) {
      value.resize(run.request + 1, 0.0);
      complete.resize(run.request + 1, true);
    }
    value[run.request] = std::max(value[run.request], field(run));
    complete[run.request] = complete[run.request] && run.completed;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < value.size(); ++i)
    if (complete[i]) out.push_back(value[i]);
  return out;
}

}  // namespace

std::vector<double> PhaseResult::request_latencies_s() const {
  return per_request(runs, [](const RunRecord& r) { return r.latency_s; });
}
std::vector<double> PhaseResult::request_submit_ms() const {
  return per_request(
      runs, [](const RunRecord& r) { return r.submit_latency_s * 1e3; });
}
std::vector<double> PhaseResult::request_late_ms() const {
  return per_request(runs, [](const RunRecord& r) { return r.late_s * 1e3; });
}
double PhaseResult::sim_time_s() const {
  // Summed in submission order so the figure repeats bit for bit.
  double total = 0.0;
  for (const RunRecord& run : runs) total += run.sim_time_s;
  return total;
}
std::size_t PhaseResult::failed() const {
  std::size_t failed = 0;
  for (const RunRecord& run : runs) failed += run.completed ? 0 : 1;
  return failed;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

PhaseResult run_closed(pragma::Runtime& runtime,
                       const std::vector<std::vector<RunSpec>>& batches) {
  PhaseResult phase;
  std::vector<pragma::RunHandle> handles;
  phase.window_start_us = pragma::obs::Tracer::now_us();
  const Clock::time_point due = Clock::now();
  for (const std::vector<RunSpec>& batch : batches) {
    const Clock::time_point call_start = Clock::now();
    std::vector<pragma::util::Expected<pragma::RunHandle>> results;
    {
      PRAGMA_SPAN_VAR(span, "bench", "Runtime.submit_batch");
      results = runtime.submit_batch(batch);
    }
    const Clock::time_point call_end = Clock::now();
    phase.batch_call_s.push_back(seconds_between(call_start, call_end));
    phase.submit_call_s += phase.batch_call_s.back();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool admitted = results[i].has_value();
      if (admitted) handles.push_back(results[i].value());
      else ++phase.shed;
      phase.runs.push_back(admitted_record(batch[i],
                                           phase.batch_call_s.size() - 1, due,
                                           call_start, call_end, admitted));
    }
  }
  join(phase.runs, handles);
  phase.wall_s = seconds_between(due, Clock::now());
  phase.window_end_us = pragma::obs::Tracer::now_us();
  return phase;
}

PhaseResult run_open(pragma::Runtime& runtime,
                     const std::vector<Arrival>& schedule,
                     double abort_late_s) {
  PhaseResult phase;
  std::vector<pragma::RunHandle> handles;
  phase.window_start_us = pragma::obs::Tracer::now_us();
  // A short lead so the first arrival is not late by construction.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::size_t request = 0;
  for (const Arrival& arrival : schedule) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival.due_s));
    // Spin rather than sleep until the send is due: waking a sleeping
    // thread costs a variable 0.05-1 ms on virtual machines, which would
    // otherwise count as the system's submit latency.
    while (Clock::now() < due) {
    }
    const Clock::time_point call_start = Clock::now();
    std::vector<pragma::util::Expected<pragma::RunHandle>> results;
    if (arrival.specs.size() == 1) {
      PRAGMA_SPAN_VAR(span, "bench", "Runtime.submit");
      results.push_back(runtime.submit(arrival.specs.front()));
    } else {
      PRAGMA_SPAN_VAR(span, "bench", "Runtime.submit_batch");
      results = runtime.submit_batch(arrival.specs);
    }
    const Clock::time_point call_end = Clock::now();
    const double call_s = seconds_between(call_start, call_end);
    (arrival.specs.size() == 1 ? phase.single_call_s : phase.batch_call_s)
        .push_back(call_s);
    phase.submit_call_s += call_s;
    for (std::size_t i = 0; i < arrival.specs.size(); ++i) {
      const bool admitted = results[i].has_value();
      if (admitted) handles.push_back(results[i].value());
      else ++phase.shed;
      phase.runs.push_back(admitted_record(arrival.specs[i], request, due,
                                           call_start, call_end, admitted));
    }
    ++request;
    if (abort_late_s > 0.0 &&
        (phase.shed > 0 || seconds_between(due, call_end) > abort_late_s)) {
      phase.aborted = true;
      break;
    }
  }
  for (const pragma::RunHandle& handle : handles)
    phase.outstanding_at_end += handle.done() ? 0 : 1;
  join(phase.runs, handles);
  phase.wall_s = seconds_between(start, Clock::now());
  phase.window_end_us = pragma::obs::Tracer::now_us();
  return phase;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const fs::directory_entry& entry : fs::directory_iterator(from))
    if (entry.is_regular_file())
      fs::copy_file(entry.path(), fs::path(to) / entry.path().filename());
}

RecoveryTiming time_recovery(const std::string& journal_dir,
                             const std::string& scratch_dir, int repeats,
                             std::size_t* mismatches) {
  std::vector<double> runtime_s;
  std::vector<double> open_s;
  for (int i = 0; i < repeats; ++i) {
    const std::string copy = scratch_dir + "/recover-" + std::to_string(i);
    copy_dir(journal_dir, copy);
    {
      const Clock::time_point t0 = Clock::now();
      Service fresh(copy);
      runtime_s.push_back(seconds_between(t0, Clock::now()));
      const service::JournalRecovery& recovered = fresh.runtime.recovered();
      if (fresh.runtime.journal() == nullptr || !recovered.pending.empty() ||
          recovered.torn_files != 0)
        ++*mismatches;
    }
    copy_dir(journal_dir, copy);
    {
      service::JournalConfig config;
      config.enabled = true;
      config.dir = copy;
      service::Journal journal(config);
      const Clock::time_point t0 = Clock::now();
      const auto recovered = journal.open();
      open_s.push_back(seconds_between(t0, Clock::now()));
      if (!recovered.has_value()) ++*mismatches;
    }
    fs::remove_all(copy);
  }
  return {median(runtime_s), median(open_s)};
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

namespace {

class Diff {
 public:
  template <typename T>
  void eq(const char* what, const T& a, const T& b) {
    if (!(a == b) && out_.tellp() < 400) {
      out_ << what << ": service=" << a << " direct=" << b << "; ";
    }
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

void compare(Diff& d, const core::ManagedRunReport& a,
             const core::ManagedRunReport& b) {
  d.eq("total_time_s", a.total_time_s, b.total_time_s);
  d.eq("regrids", a.regrids, b.regrids);
  d.eq("repartitions", a.repartitions, b.repartitions);
  d.eq("agent_events", a.agent_events, b.agent_events);
  d.eq("adm_decisions", a.adm_decisions, b.adm_decisions);
  d.eq("event_repartitions", a.event_repartitions, b.event_repartitions);
  d.eq("partitioner_switches", a.partitioner_switches, b.partitioner_switches);
  d.eq("cells_advanced", a.cells_advanced, b.cells_advanced);
  d.eq("records", a.records.size(), b.records.size());
  for (std::size_t i = 0; i < std::min(a.records.size(), b.records.size());
       ++i) {
    const core::ManagedStepRecord& x = a.records[i];
    const core::ManagedStepRecord& y = b.records[i];
    d.eq("record.step", x.step, y.step);
    d.eq("record.octant", x.octant, y.octant);
    d.eq("record.partitioner", x.partitioner, y.partitioner);
    d.eq("record.sim_time_s", x.sim_time_s, y.sim_time_s);
    d.eq("record.step_time_s", x.step_time_s, y.step_time_s);
    d.eq("record.imbalance", x.imbalance, y.imbalance);
    d.eq("record.live_nodes", x.live_nodes, y.live_nodes);
  }
}

void compare(Diff& d, const core::RunSummary& a, const core::RunSummary& b) {
  d.eq("runtime_s", a.runtime_s, b.runtime_s);
  d.eq("compute_s", a.compute_s, b.compute_s);
  d.eq("comm_s", a.comm_s, b.comm_s);
  d.eq("migration_s", a.migration_s, b.migration_s);
  d.eq("partition_s", a.partition_s, b.partition_s);
  d.eq("max_imbalance", a.max_imbalance, b.max_imbalance);
  d.eq("mean_imbalance", a.mean_imbalance, b.mean_imbalance);
  d.eq("amr_efficiency", a.amr_efficiency, b.amr_efficiency);
  d.eq("switches", a.switches, b.switches);
  d.eq("records", a.records.size(), b.records.size());
  for (std::size_t i = 0; i < std::min(a.records.size(), b.records.size());
       ++i) {
    d.eq("record.partitioner", a.records[i].partitioner,
         b.records[i].partitioner);
    d.eq("record.step_time_s", a.records[i].step_time_s,
         b.records[i].step_time_s);
    d.eq("record.comm_volume", a.records[i].comm_volume,
         b.records[i].comm_volume);
  }
}

void compare(Diff& d, const core::SystemSensitiveResult& a,
             const core::SystemSensitiveResult& b) {
  d.eq("default_runtime_s", a.default_runtime_s, b.default_runtime_s);
  d.eq("sensitive_runtime_s", a.sensitive_runtime_s, b.sensitive_runtime_s);
  d.eq("improvement", a.improvement, b.improvement);
  d.eq("default_imbalance", a.default_imbalance, b.default_imbalance);
  d.eq("sensitive_imbalance", a.sensitive_imbalance, b.sensitive_imbalance);
}

}  // namespace

std::string check_against_core(const RunRecord& record) {
  if (!record.completed) return "run did not complete";
  const RunSpec& spec = record.spec;
  Diff diff;
  switch (spec.kind) {
    case service::WorkloadKind::kManaged: {
      core::ManagedRun run(spec.to_managed());
      compare(diff, record.outcome.managed, run.run());
      break;
    }
    case service::WorkloadKind::kTraceReplay: {
      const pragma::grid::Cluster cluster = service::build_cluster(spec);
      core::TraceRunConfig config = spec.to_trace();
      config.shared_cache = nullptr;  // independent of the service's cache
      const core::TraceRunner runner(*spec.trace, cluster, config);
      const core::RunSummary direct =
          spec.strategy == "adaptive"
              ? runner.run_adaptive(pragma::policy::standard_policy_base())
              : runner.run_static(spec.strategy);
      compare(diff, record.outcome.replay, direct);
      break;
    }
    case service::WorkloadKind::kSystemSensitive: {
      core::SystemSensitiveConfig config = spec.to_system_sensitive();
      config.workgrid_cache = nullptr;
      compare(diff, record.outcome.system_sensitive,
              core::run_system_sensitive_experiment(*spec.trace, config));
      break;
    }
    case service::WorkloadKind::kCustom:
      return "custom runs are not checked";
  }
  return diff.str();
}

}  // namespace perfbench
