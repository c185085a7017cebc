#include "pragma/service/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/metrics.hpp"
#include "pragma/policy/builtin.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Service counters; every add() is a no-op while obs metrics are off.
obs::Counter& submitted_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.submitted");
  return counter;
}
obs::Counter& rejected_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.rejected");
  return counter;
}
obs::Counter& completed_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.completed");
  return counter;
}
obs::Counter& failed_counter() {
  static obs::Counter& counter = obs::metrics().counter("service.runs.failed");
  return counter;
}
obs::Counter& cancelled_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.cancelled");
  return counter;
}
obs::Counter& shed_queue_full_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.shed_queue_full");
  return counter;
}
obs::Counter& shed_rate_limited_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.shed_rate_limited");
  return counter;
}
obs::Counter& shed_journal_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.shed_journal");
  return counter;
}
obs::Counter& batches_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.batches");
  return counter;
}
obs::Counter& batch_specs_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.batch_specs");
  return counter;
}
obs::Counter& coalesced_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.coalesced");
  return counter;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge = obs::metrics().gauge("service.sched.queue_depth");
  return gauge;
}
obs::Counter& budget_killed_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.budget_killed");
  return counter;
}
obs::Counter& budget_throttled_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.budget_throttled");
  return counter;
}

util::Status shutting_down_status() {
  return shed_status(util::StatusCode::kUnavailable, ShedReason::kShuttingDown,
                     "scheduler is shutting down", /*retry_after_ms=*/-1);
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig config, util::ThreadPool* pool)
    : config_(config), pool_(pool != nullptr ? pool : &util::shared_pool()) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

Scheduler::~Scheduler() {
  std::vector<TicketPtr> doomed;
  std::vector<TicketPtr> running;
  {
    // Submitters whose journal append is in flight observe shutdown_ when
    // they come back to stage, and shed instead.
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    doomed.assign(queue_.begin(), queue_.end());
    queue_.clear();
    running = inflight_;
  }
  for (const TicketPtr& ticket : running) {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->cancel.store(true, std::memory_order_relaxed);
    if (ticket->active != nullptr) ticket->active->request_cancel();
  }
  for (const TicketPtr& ticket : doomed) {
    {
      std::lock_guard<std::mutex> lock(ticket->mu);
      ticket->state = RunState::kCancelled;
      ticket->outcome.state = RunState::kCancelled;
      ticket->outcome.status =
          util::Status::unavailable("scheduler shut down before dispatch");
    }
    ticket->cv.notify_all();
    // A clean shutdown resolves queued runs as cancelled (their callers
    // were told); tombstone so a restart does not resurrect them.
    if (config_.journal != nullptr && ticket->journal_seq != 0)
      config_.journal->tombstone(ticket->journal_seq);
  }
  drain();
}

std::size_t Scheduler::workers() const {
  if (config_.workers > 0) return config_.workers;
  return std::max<std::size_t>(1, pool_->size());
}

util::Status Scheduler::reject(util::Status status,
                               std::size_t SchedulerStats::*rung,
                               obs::Counter* rung_counter) {
  ++stats_.rejected;
  rejected_counter().add();
  if (rung != nullptr) ++(stats_.*rung);
  if (rung_counter != nullptr) rung_counter->add();
  return status;
}

util::Status Scheduler::shed_ladder(const RunSpec& spec, bool rate_limited) {
  if (shutdown_) return reject(shutting_down_status());
  if (rate_limited && config_.rate_limit.rate_per_s > 0.0) {
    if (util::Status limited = check_rate_limit(spec.tenant);
        !limited.is_ok())
      return reject(std::move(limited), &SchedulerStats::shed_rate_limited,
                    &shed_rate_limited_counter());
  }
  if (queue_.size() + reserved_ >= config_.queue_capacity)
    return reject(
        shed_status(util::StatusCode::kUnavailable, ShedReason::kQueueFull,
                    "admission queue full (" + std::to_string(queue_.size()) +
                        "/" + std::to_string(config_.queue_capacity) +
                        "); run \"" + spec.name + "\" shed",
                    config_.shed_retry_after_ms),
        &SchedulerStats::shed_queue_full, &shed_queue_full_counter());
  return util::Status::ok();
}

util::Status Scheduler::check_rate_limit(const std::string& tenant_name) {
  TokenBucket& bucket = buckets_[tenant_name];
  const auto now = std::chrono::steady_clock::now();
  if (!bucket.primed) {
    bucket.primed = true;
    bucket.tokens = std::max(config_.rate_limit.burst, 1.0);
    bucket.last_refill = now;
  } else {
    const double elapsed =
        std::chrono::duration<double>(now - bucket.last_refill).count();
    bucket.tokens =
        std::min(std::max(config_.rate_limit.burst, 1.0),
                 bucket.tokens + elapsed * config_.rate_limit.rate_per_s);
    bucket.last_refill = now;
  }
  if (bucket.tokens < 1.0) {
    const double wait_s =
        (1.0 - bucket.tokens) / config_.rate_limit.rate_per_s;
    return shed_status(util::StatusCode::kUnavailable,
                       ShedReason::kRateLimited,
                       "tenant \"" + tenant_name + "\" rate limited",
                       static_cast<int>(wait_s * 1000.0) + 1);
  }
  bucket.tokens -= 1.0;
  return util::Status::ok();
}

util::Expected<RunHandle> Scheduler::submit(RunSpec spec) {
  return std::move(admit({&spec, 1}, /*rate_limited=*/true,
                         /*recovered_seq=*/0)
                       .front());
}

util::Expected<RunHandle> Scheduler::resubmit_recovered(
    RunSpec spec, std::uint64_t journal_seq) {
  return std::move(
      admit({&spec, 1}, /*rate_limited=*/false, journal_seq).front());
}

std::vector<util::Expected<RunHandle>> Scheduler::admit(
    std::span<RunSpec> specs, bool rate_limited,
    std::uint64_t recovered_seq) {
  // Build the tickets before taking mu_: moving a RunSpec is most of
  // the per-spec work, and it needs no lock.
  std::vector<TicketPtr> tickets(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    tickets[i] = std::make_shared<detail::Ticket>();
    tickets[i]->spec = std::move(specs[i]);
    tickets[i]->journal_seq = recovered_seq;
  }
  const bool journaling = config_.journal != nullptr && recovered_seq == 0;
  std::vector<util::Status> sheds(specs.size());
  std::vector<const RunSpec*> to_journal;
  std::vector<util::Expected<RunHandle>> results;
  results.reserve(specs.size());
  std::unique_lock<std::mutex> lock(mu_);

  // Phase 1 (mu_): the shed ladder, then reserve a queue slot.  The
  // reservation keeps concurrent submitters from oversubscribing the
  // queue while phase 2 runs unlocked.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sheds[i] = shed_ladder(tickets[i]->spec, rate_limited);
    if (!sheds[i].is_ok()) continue;
    ++reserved_;
    if (journaling) to_journal.push_back(&tickets[i]->spec);
  }

  // Phase 2 (unlocked): the durable append — group-commit fsync happens
  // here, so no scheduler lock is ever held across disk I/O.  The whole
  // reserved set is one append_batch() call (a batch of one writes the
  // same bytes as append()); a shed sheds it all-or-nothing so no half
  // of a batch is durable while its other half never existed.  Recovered
  // runs keep their original pending record.
  util::Status journaled = util::Status::ok();
  if (!to_journal.empty()) {
    lock.unlock();
    const util::Expected<std::vector<std::uint64_t>> seqs =
        config_.journal->append_batch(to_journal);
    lock.lock();
    journaled = seqs.status();
    for (std::size_t i = 0, k = 0; seqs && i < specs.size(); ++i)
      if (sheds[i].is_ok()) tickets[i]->journal_seq = seqs.value()[k++];
  }

  // Phase 3 (mu_): stage in index order, so admission sequences match N
  // single submits, then dispatch.  Shed tickets are freed after mu_ is
  // released.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TicketPtr& ticket = tickets[i];
    if (!sheds[i].is_ok()) {
      results.emplace_back(std::move(sheds[i]));
      continue;
    }
    --reserved_;
    if (!journaled.is_ok()) {
      results.emplace_back(reject(journaled, &SchedulerStats::shed_journal,
                                  &shed_journal_counter()));
    } else if (shutdown_) {
      // Shut down while appending: the journal keeps the pending record,
      // so a restart recovers the run instead of losing it silently.
      results.emplace_back(reject(shutting_down_status()));
    } else {
      ticket->sequence = next_sequence_++;
      ticket->run_id = ticket->sequence;
      ticket->submitted_at = std::chrono::steady_clock::now();
      queue_.push_back(ticket);
      ++stats_.submitted;
      submitted_counter().add();
      stats_.peak_queue_depth =
          std::max(stats_.peak_queue_depth, queue_.size());
      results.emplace_back(RunHandle(std::move(ticket), this));
    }
  }
  queue_depth_gauge().set(static_cast<double>(queue_.size()));
  maybe_dispatch();
  return results;
}

std::vector<util::Expected<RunHandle>> Scheduler::submit_batch(
    std::vector<RunSpec> specs) {
  const std::size_t n = specs.size();
  if (n == 0) return {};

  // Coalesce: duplicates of the same journal_key with bitwise-identical
  // encoded payloads (and the same trace object) attach to the first
  // occurrence's execution.  Custom workloads never coalesce — their
  // callables are not part of the encoding, so two specs could encode
  // equal yet run different code.
  std::vector<RunSpec> primaries;
  std::vector<std::size_t> slot(n);  // specs[i] -> its primary's index
  std::vector<std::vector<std::uint8_t>> encoded(n);
  std::map<std::string, std::size_t> first_by_key;
  std::size_t coalesced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (specs[i].kind != WorkloadKind::kCustom) {
      encoded[i] = encode_run_spec(specs[i]);
      const auto [it, fresh] = first_by_key.emplace(specs[i].journal_key(), i);
      const std::size_t j = it->second;
      if (!fresh && specs[i].trace == primaries[slot[j]].trace &&
          encoded[i] == encoded[j]) {
        slot[i] = slot[j];
        ++coalesced;
        continue;
      }
    }
    slot[i] = primaries.size();
    primaries.push_back(std::move(specs[i]));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.batch_specs += n;
    stats_.coalesced += coalesced;
  }
  batches_counter().add();
  batch_specs_counter().add(n);
  coalesced_counter().add(coalesced);

  const std::vector<util::Expected<RunHandle>> admitted =
      admit(primaries, /*rate_limited=*/true, /*recovered_seq=*/0);
  // Fan each primary's result — handle or shed status — out to its
  // coalesced followers.
  std::vector<util::Expected<RunHandle>> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) results.push_back(admitted[slot[i]]);
  return results;
}

void Scheduler::set_tenant_weight(const std::string& tenant, double weight) {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_[tenant].weight = std::max(weight, 1e-9);
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats out = stats_;
  const std::vector<double> latencies = queue_latencies_s_.values();
  out.queue_p50_s = util::percentile(latencies, 50.0);
  out.queue_p99_s = util::percentile(latencies, 99.0);
  return out;
}

std::size_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

Scheduler::TicketPtr Scheduler::pick_next() {
  // Pass 1: the tenant owed the most service — smallest dispatched/weight,
  // ties to the lexicographically smaller name so ordering is
  // deterministic regardless of submission interleaving.
  const std::string* best_tenant = nullptr;
  double best_share = std::numeric_limits<double>::infinity();
  for (const TicketPtr& ticket : queue_) {
    const Tenant& tenant = tenants_[ticket->spec.tenant];
    const double share =
        static_cast<double>(tenant.dispatched) / tenant.weight;
    if (best_tenant == nullptr || share < best_share ||
        (share == best_share && ticket->spec.tenant < *best_tenant)) {
      best_share = share;
      best_tenant = &ticket->spec.tenant;
    }
  }
  // Pass 2: within that tenant, highest priority first, then FIFO.
  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->spec.tenant != *best_tenant) continue;
    if (best == queue_.end() ||
        (*it)->spec.priority > (*best)->spec.priority ||
        ((*it)->spec.priority == (*best)->spec.priority &&
         (*it)->sequence < (*best)->sequence))
      best = it;
  }
  TicketPtr picked = *best;
  queue_.erase(best);
  return picked;
}

void Scheduler::maybe_dispatch() {
  while (running_ < workers() && !queue_.empty()) {
    TicketPtr ticket = pick_next();
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
    ++running_;
    stats_.peak_running = std::max(stats_.peak_running, running_);
    const double queued_s = seconds_since(ticket->submitted_at);
    queue_latencies_s_.push(queued_s);
    // Pre-dispatch: the executor (and any waiter, via the terminal-state
    // handshake) observes this write through the pool's queue ordering.
    ticket->outcome.queue_s = queued_s;
    tenants_[ticket->spec.tenant].dispatched++;
    inflight_.push_back(ticket);
    pool_->submit([this, ticket] { execute(ticket); });
  }
}

void Scheduler::execute(const TicketPtr& ticket) {
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->state = RunState::kRunning;
  }
  const RunSpec& spec = ticket->spec;
  RunOutcome outcome;
  outcome.queue_s = ticket->outcome.queue_s;
  util::Status status = util::Status::ok();
  const auto started = std::chrono::steady_clock::now();

  if (ticket->cancel.load(std::memory_order_relaxed)) {
    outcome.state = RunState::kCancelled;
    finish(ticket, std::move(outcome));
    return;
  }

  // Open the run's resource account (find-or-create, so a retried run
  // keeps accumulating against the same budget).  Null accountant = the
  // pre-accounting path, byte-identical.
  std::shared_ptr<res::RunAccount> account;
  if (config_.accountant != nullptr)
    account = config_.accountant->open(spec.name, spec.tenant, spec.budget);

  try {
    switch (spec.kind) {
      case WorkloadKind::kManaged: {
        core::ManagedRunConfig managed_config = spec.to_managed();
        managed_config.account = account.get();
        core::ManagedRun run(managed_config);
        {
          std::lock_guard<std::mutex> lock(ticket->mu);
          ticket->active = &run;
        }
        if (ticket->cancel.load(std::memory_order_relaxed))
          run.request_cancel();
        for (const FailurePlan& plan : spec.failures)
          run.schedule_failure(plan.at_s, plan.node, plan.downtime_s);
        if (spec.random_mtbf_s > 0.0 && spec.random_mttr_s > 0.0)
          run.start_random_failures(spec.random_mtbf_s, spec.random_mttr_s);
        outcome.managed = run.run();
        {
          std::lock_guard<std::mutex> lock(ticket->mu);
          ticket->active = nullptr;
        }
        break;
      }
      case WorkloadKind::kTraceReplay: {
        if (!spec.trace) {
          status = util::Status::invalid("trace replay without a trace");
          break;
        }
        const grid::Cluster cluster = build_cluster(spec);
        core::TraceRunConfig config = spec.to_trace();
        config.should_abort = [ticket, account] {
          return ticket->cancel.load(std::memory_order_relaxed) ||
                 (account != nullptr && account->should_stop());
        };
        const core::TraceRunner runner(*spec.trace, cluster, config);
        if (spec.strategy == "adaptive") {
          const policy::PolicyBase policies = policy::standard_policy_base();
          outcome.replay = runner.run_adaptive(policies);
        } else {
          outcome.replay = runner.run_static(spec.strategy);
        }
        break;
      }
      case WorkloadKind::kSystemSensitive: {
        if (!spec.trace) {
          status = util::Status::invalid(
              "system-sensitive experiment without a trace");
          break;
        }
        outcome.system_sensitive = core::run_system_sensitive_experiment(
            *spec.trace, spec.to_system_sensitive());
        break;
      }
      case WorkloadKind::kCustom: {
        if (!spec.custom) {
          status =
              util::Status::invalid("custom run without a workload callable");
          break;
        }
        RunContext context{[ticket, account] {
          return ticket->cancel.load(std::memory_order_relaxed) ||
                 (account != nullptr && account->should_stop());
        }};
        status = spec.custom(context);
        break;
      }
    }
  } catch (const std::exception& error) {
    status = util::Status::internal(std::string("run \"") + spec.name +
                                    "\" threw: " + error.what());
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->active = nullptr;
  }

  outcome.exec_s = seconds_since(started);

  // Budget classification runs first so a kill-action violation yields
  // exactly one terminal status (resource-exhausted), even when a caller
  // cancel raced the kill; accountant close() folds the run's usage into
  // the per-tenant aggregate exactly once.
  if (account != nullptr) {
    outcome.usage = account->usage();
    outcome.budget_throttled = account->throttled();
    if (status.is_ok() && account->should_stop())
      status = shed_status(util::StatusCode::kResourceExhausted,
                           ShedReason::kBudgetExhausted,
                           "run \"" + spec.name + "\": " +
                               account->violation(),
                           config_.shed_retry_after_ms);
    config_.accountant->close(account);
  }

  outcome.status = status;
  if (!status.is_ok()) {
    outcome.state = RunState::kFailed;
  } else if (ticket->cancel.load(std::memory_order_relaxed)) {
    outcome.state = RunState::kCancelled;
  } else {
    outcome.state = RunState::kCompleted;
  }
  finish(ticket, std::move(outcome));
}

void Scheduler::finish(const TicketPtr& ticket, RunOutcome outcome) {
  if (outcome.state == RunState::kFailed)
    util::log_warn("service: run \"", ticket->spec.name,
                   "\" failed: ", outcome.status.to_string());
  switch (outcome.state) {
    case RunState::kCompleted: completed_counter().add(); break;
    case RunState::kFailed: failed_counter().add(); break;
    case RunState::kCancelled: cancelled_counter().add(); break;
    default: break;
  }
  if (outcome.state == RunState::kFailed &&
      outcome.status.code() == util::StatusCode::kResourceExhausted)
    budget_killed_counter().add();
  if (outcome.budget_throttled) budget_throttled_counter().add();
  // Tombstone before taking mu_: the journal may compact (disk I/O) and
  // the scheduler lock must never be held across it.
  if (config_.journal != nullptr && ticket->journal_seq != 0)
    config_.journal->tombstone(ticket->journal_seq);
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  inflight_.erase(std::find(inflight_.begin(), inflight_.end(), ticket));
  switch (outcome.state) {
    case RunState::kCompleted: ++stats_.completed; break;
    case RunState::kFailed: ++stats_.failed; break;
    case RunState::kCancelled: ++stats_.cancelled; break;
    default: break;
  }
  if (outcome.state == RunState::kFailed &&
      outcome.status.code() == util::StatusCode::kResourceExhausted)
    ++stats_.budget_killed;
  if (outcome.budget_throttled) ++stats_.budget_throttled;
  {
    std::lock_guard<std::mutex> ticket_lock(ticket->mu);
    ticket->state = outcome.state;
    ticket->outcome = std::move(outcome);
  }
  ticket->cv.notify_all();
  maybe_dispatch();
  idle_cv_.notify_all();
}

bool Scheduler::cancel_ticket(const TicketPtr& ticket) {
  bool withdrawn = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(queue_.begin(), queue_.end(), ticket);
    if (it != queue_.end()) {
      queue_.erase(it);
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
      ++stats_.cancelled;
      {
        std::lock_guard<std::mutex> ticket_lock(ticket->mu);
        ticket->cancel.store(true, std::memory_order_relaxed);
        ticket->state = RunState::kCancelled;
        ticket->outcome.state = RunState::kCancelled;
      }
      ticket->cv.notify_all();
      idle_cv_.notify_all();
      cancelled_counter().add();
      withdrawn = true;
    }
  }
  if (withdrawn) {
    if (config_.journal != nullptr && ticket->journal_seq != 0)
      config_.journal->tombstone(ticket->journal_seq);
    return true;
  }
  std::lock_guard<std::mutex> lock(ticket->mu);
  if (is_terminal(ticket->state)) return false;
  ticket->cancel.store(true, std::memory_order_relaxed);
  if (ticket->active != nullptr) ticket->active->request_cancel();
  return true;
}

}  // namespace pragma::service
