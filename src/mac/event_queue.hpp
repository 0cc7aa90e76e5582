#ifndef SICMAC_MAC_EVENT_QUEUE_HPP
#define SICMAC_MAC_EVENT_QUEUE_HPP

/// \file event_queue.hpp
/// The discrete-event engine: a time-ordered queue of callbacks with
/// deterministic FIFO tie-breaking (events scheduled earlier run first at
/// equal timestamps), which keeps simulations reproducible.
///
/// Events live in a binary heap ordered by (time, sequence number); that
/// key is unique per event, so the execution order is fully determined by
/// the scheduling calls. step() moves the next event out of the heap
/// instead of copying it, so a callback whose captures fit
/// std::function's inline buffer (two words on libstdc++ and libc++, e.g.
/// `[this, index]`) costs no heap allocation from schedule to execution.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "mac/sim_time.hpp"
#include "util/check.hpp"

namespace sic::mac {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() { heap_.reserve(8); }

  /// Schedules \p fn at absolute time \p at (must be >= now()).
  void schedule_at(SimTime at, Callback fn) {
    SIC_CHECK_MSG(at >= now_, "cannot schedule into the past");
    heap_.push_back(Event{at, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedules \p fn after \p delay from now.
  void schedule_after(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Runs the next event; returns false when the queue is empty. The
  /// event leaves the queue before its callback runs, so the callback may
  /// schedule further events.
  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.at;
    ev.fn();
    return true;
  }

  /// Runs until the queue drains or \p horizon is reached (events at or
  /// after the horizon remain queued). now() stays at the last executed
  /// event so callers can read the true completion time of a finite run.
  void run_until(SimTime horizon) {
    while (!heap_.empty() && heap_.front().at < horizon) step();
  }

  /// Runs until the queue drains.
  void run() {
    while (step()) {
    }
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Callback fn;
  };
  /// Heap order: the root is the earliest event, ties broken by seq.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_EVENT_QUEUE_HPP
