#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>

#include "pragma/core/managed_run.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/partition/metrics.hpp"
#include "pragma/partition/partitioner.hpp"
#include "pragma/partition/splitters.hpp"
#include "pragma/partition/workgrid.hpp"
#include "pragma/policy/builtin.hpp"
#include "pragma/service/journal.hpp"
#include "stats.hpp"

namespace perfbench {

namespace amr = pragma::amr;
namespace partition = pragma::partition;
namespace service = pragma::service;

// ---------------------------------------------------------------------------
// amr
// ---------------------------------------------------------------------------

namespace {

void fold_snapshot(Emulation& e, int step, const amr::GridHierarchy& h) {
  e.digest = fold_hierarchy(e.digest, step, h);
  for (int l = 0; l < h.num_levels(); ++l) {
    e.boxes += h.level(l).box_count();
    if (l > 0) e.refined_cells += static_cast<double>(h.level(l).cell_count());
  }
}

}  // namespace

Emulation emulate(const amr::Rm3dConfig& config) {
  Emulation e;
  e.label = config_label(config);
  amr::Rm3dEmulator emulator(config);
  auto trace = std::make_shared<amr::AdaptationTrace>();
  trace->add(amr::Snapshot{emulator.step(), emulator.hierarchy()});
  fold_snapshot(e, emulator.step(), emulator.hierarchy());
  while (emulator.step() < config.coarse_steps) {
    const Clock::time_point t0 = Clock::now();
    const bool regridded = emulator.advance();
    const double dt = seconds_between(t0, Clock::now());
    e.advance_s += dt;
    if (regridded) {
      e.regrid_s.push_back(dt);
      trace->add(amr::Snapshot{emulator.step(), emulator.hierarchy()});
      fold_snapshot(e, emulator.step(), emulator.hierarchy());
    }
  }
  e.trace = std::move(trace);
  return e;
}

namespace {
std::atomic<std::uint64_t> g_advance_calls{0};
}  // namespace

std::uint64_t emulator_advance_calls() {
  return g_advance_calls.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// The link-time wrapper of bool pragma::amr::Rm3dEmulator::advance() (see
// emulator_advance_calls).  A member function takes `this` as its first
// argument, so it links as a free function of the object pointer.
extern "C" bool __real__ZN6pragma3amr12Rm3dEmulator7advanceEv(
    pragma::amr::Rm3dEmulator* self);
extern "C" bool __wrap__ZN6pragma3amr12Rm3dEmulator7advanceEv(
    pragma::amr::Rm3dEmulator* self) {
  perfbench::g_advance_calls.fetch_add(1, std::memory_order_relaxed);
  PRAGMA_SPAN("bench", perfbench::kAdvanceSpan);
  return __real__ZN6pragma3amr12Rm3dEmulator7advanceEv(self);
}

namespace perfbench {

// ---------------------------------------------------------------------------
// partition
// ---------------------------------------------------------------------------

namespace {

bool same_grid(const partition::WorkGrid& a, const partition::WorkGrid& b) {
  if (a.cell_count() != b.cell_count() || a.total_work() != b.total_work() ||
      a.levels() != b.levels())
    return false;
  for (std::size_t c = 0; c < a.cell_count(); ++c)
    if (a.work(c) != b.work(c) || a.storage(c) != b.storage(c)) return false;
  return true;
}

template <typename F>
auto timed(double* total, F&& body) {
  const Clock::time_point t0 = Clock::now();
  auto result = body();
  *total += seconds_between(t0, Clock::now());
  return result;
}

}  // namespace

void probe_partition(const amr::AdaptationTrace& trace, std::size_t nprocs,
                     PartitionProbe* probe) {
  const std::vector<std::unique_ptr<partition::Partitioner>> suite =
      partition::standard_suite();
  const std::vector<double> targets = partition::equal_targets(nprocs);
  std::unique_ptr<partition::WorkGrid> previous;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const amr::GridHierarchy& h = trace.at(i).hierarchy;
    auto canonical = timed(&probe->workgrid_build_s, [&] {
      return std::make_unique<partition::WorkGrid>(
          h, 2, partition::CurveKind::kHilbert);
    });
    if (previous) {
      const amr::HierarchyDelta delta = trace.delta(i);
      ++probe->delta_attempts;
      const bool applied = timed(
          &probe->workgrid_delta_s, [&] { return previous->apply_delta(delta); });
      if (applied) {
        ++probe->delta_applied;
        if (!same_grid(*previous, *canonical)) ++probe->bad_outputs;
      }
    }
    for (const auto& partitioner : suite) {
      const int grain = partitioner->preferred_grain();
      const partition::CurveKind curve = partitioner->curve();
      std::unique_ptr<partition::WorkGrid> own;
      if (grain != 2 || curve != partition::CurveKind::kHilbert)
        own = timed(&probe->workgrid_build_s, [&] {
          return std::make_unique<partition::WorkGrid>(h, grain, curve);
        });
      const partition::WorkGrid& grid = own ? *own : *canonical;
      const partition::PartitionResult result = timed(
          &probe->partition_s, [&] { return partitioner->partition(grid, targets); });
      const double volume = timed(&probe->commvol_s, [&] {
        return partition::communication_volume(grid, result.owners);
      });
      if (!(volume >= 0.0)) ++probe->bad_outputs;
    }
    previous = std::move(canonical);
  }
}

// ---------------------------------------------------------------------------
// journal
// ---------------------------------------------------------------------------

JournalProbe probe_journal(const std::vector<RunSpec>& specs,
                           std::size_t batch_size, const std::string& dir) {
  if (specs.empty()) throw std::invalid_argument("probe_journal: no specs");
  std::filesystem::remove_all(dir);
  service::JournalConfig config;
  config.enabled = true;
  config.dir = dir;
  JournalProbe probe;
  std::uint64_t fsyncs = 0;
  std::uint64_t appended = 0;
  {
    service::Journal journal(config);
    if (!journal.open().has_value())
      throw std::runtime_error("probe_journal: cannot open " + dir);
    for (std::size_t i = 0; i < kP99Samples; ++i) {
      const RunSpec& spec = specs[i % specs.size()];
      const Clock::time_point t0 = Clock::now();
      const bool ok = journal.append(spec).has_value();
      probe.append_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      if (!ok) throw std::runtime_error("probe_journal: append failed");
    }
    const service::JournalStats singles = journal.stats();
    probe.bytes_per_spec = static_cast<double>(singles.active_bytes) /
                           static_cast<double>(singles.appends);
    fsyncs += singles.fsyncs;
    appended += singles.appends;
  }
  std::filesystem::remove_all(dir);
  {
    service::Journal journal(config);
    if (!journal.open().has_value())
      throw std::runtime_error("probe_journal: cannot open " + dir);
    std::size_t next = 0;
    for (std::size_t b = 0; b < 100; ++b) {
      std::vector<const RunSpec*> batch;
      for (std::size_t i = 0; i < batch_size; ++i)
        batch.push_back(&specs[next++ % specs.size()]);
      const Clock::time_point t0 = Clock::now();
      const bool ok = journal.append_batch(batch).has_value();
      if (!ok) throw std::runtime_error("probe_journal: append_batch failed");
      probe.append_batch_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    fsyncs += journal.stats().fsyncs;
    appended += journal.stats().appends;
  }
  probe.fsyncs_per_spec =
      static_cast<double>(fsyncs) / static_cast<double>(appended);
  std::filesystem::remove_all(dir);
  return probe;
}

// ---------------------------------------------------------------------------
// core
// ---------------------------------------------------------------------------

std::vector<double> probe_managed_ctor(const std::vector<RunSpec>& specs) {
  std::vector<double> out;
  for (const RunSpec& spec : specs) {
    const pragma::core::ManagedRunConfig config = spec.to_managed();
    const Clock::time_point t0 = Clock::now();
    const auto run = std::make_unique<pragma::core::ManagedRun>(config);
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

double probe_replay(const amr::AdaptationTrace& trace, const RunSpec& machine) {
  const pragma::grid::Cluster cluster = service::build_cluster(machine);
  pragma::core::TraceRunConfig config = machine.to_trace();
  config.shared_cache = nullptr;
  const pragma::core::TraceRunner runner(trace, cluster, config);
  const pragma::policy::PolicyBase policies =
      pragma::policy::standard_policy_base();
  const Clock::time_point t0 = Clock::now();
  (void)runner.run_adaptive(policies);
  return seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// attribution
// ---------------------------------------------------------------------------

std::vector<double> self_times(
    const std::vector<pragma::obs::TraceEvent>& events) {
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;  // parents before children at one start
  });
  constexpr double kSlackUs = 1e-3;
  std::vector<double> self(events.size(), 0.0);
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (std::size_t idx : order) {
    const auto& event = events[idx];
    if (stack.empty() || event.tid != tid) {
      stack.clear();
      tid = event.tid;
    }
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (event.ts_us + kSlackUs >= top.ts_us + top.dur_us) stack.pop_back();
      else break;
    }
    self[idx] = event.dur_us;
    if (!stack.empty()) self[stack.back()] -= event.dur_us;
    stack.push_back(idx);
  }
  for (double& s : self) s *= 1e-6;  // seconds
  return self;
}

Attribution attribute(const std::vector<pragma::obs::TraceEvent>& all,
                      double start_us, double end_us, double busy_s) {
  std::vector<pragma::obs::TraceEvent> events;
  for (const auto& event : all)
    if (event.ts_us >= start_us && event.ts_us + event.dur_us <= end_us)
      events.push_back(event);
  const std::vector<double> self = self_times(events);
  Attribution out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string category = events[i].category;
    const std::string name = events[i].name;
    if (category != "bench")
      out.layer_s[category] += self[i];
    else if (name == "Runtime.submit" || name == "Runtime.submit_batch")
      out.layer_s["service"] += self[i];
    else if (name == kAdvanceSpan)
      out.layer_s["amr"] += self[i];
    if (name == "ManagedRun.run") out.managed_run_s.push_back(
        events[i].dur_us * 1e-6);
    if (name == "TraceRunner.replay")
      out.replay_s.push_back(events[i].dur_us * 1e-6);
    if (name == "MetaPartitioner.select") out.meta_select_s += self[i];
    if (name == "Adm.consolidate") out.consolidate_s += self[i];
    if (name == "ComponentAgent.sample") out.sample_s += self[i];
  }
  for (const char* layer : {"service", "core", "amr", "partition", "agents"})
    out.layer_s[layer] += 0.0;  // every layer shows, even when idle
  out.unattributed_s = busy_s;
  for (const auto& [layer, seconds] : out.layer_s)
    out.unattributed_s -= seconds;
  return out;
}

}  // namespace perfbench
