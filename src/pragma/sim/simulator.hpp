// Discrete-event simulation core.
//
// The Pragma testbed (cluster nodes, links, monitors, agents, the synthetic
// load generator) all execute on this engine.  It is a classic event-list
// simulator: events are (time, sequence, callback) tuples kept in a binary
// heap; ties in time break deterministically by insertion sequence so that
// runs with the same seed replay identically.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace pragma::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Opaque handle identifying a scheduled event; usable to cancel it.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return id_ != 0; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Single-threaded deterministic discrete-event simulator.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(SimTime delay, Callback fn);

  /// Schedule `fn` at the absolute time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, Callback fn);

  /// Schedule `fn` every `period` seconds, first firing after `period`
  /// (or after `first_delay` when given).  Returns the handle of the first
  /// occurrence; cancelling it stops the whole periodic chain.
  EventHandle schedule_periodic(SimTime period, Callback fn,
                                SimTime first_delay = -1.0);

  /// Cancel a pending event.  Returns true if the event had not yet fired.
  bool cancel(EventHandle handle);

  /// Run until the event queue drains or `until` is reached.
  /// Returns the number of events executed.
  std::size_t run(SimTime until = std::numeric_limits<SimTime>::infinity());

  /// Execute exactly one event if available.  Returns false on empty queue.
  bool step();

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::size_t executed() const { return executed_; }

  /// Stop a run() in progress after the current event completes.
  void request_stop() { stop_requested_ = true; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t sequence;
    std::uint64_t id;
    Callback fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;  // FIFO among simultaneous events
    }
  };

  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::vector<std::uint64_t> cancelled_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t executed_ = 0;
  std::size_t live_pending_ = 0;
  bool stop_requested_ = false;

  void push_periodic(SimTime at, std::uint64_t id, SimTime period,
                     std::shared_ptr<Callback> fn);
  bool is_cancelled(std::uint64_t id) const;
  void forget_cancelled(std::uint64_t id);
};

}  // namespace pragma::sim
