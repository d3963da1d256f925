// Event queue for the discrete-event kernel.
//
// The kernel's ordering contract is exact: events pop in (time, seq) order,
// seq being the global push counter, so FIFO-within-timestamp determinism is
// preserved bit for bit. Two structures hold the events:
//
//   * now-FIFO — events scheduled at exactly the current time (semaphore
//                hand-offs, barrier releases, join wake-ups, yields). Seq
//                order equals insertion order, so a flat FIFO suffices and
//                these events never touch the heap.
//   * heap     — every later event, in one binary min-heap over (time, seq).
//
// Every stored event satisfies t >= now (the kernel never schedules into the
// past) and the FIFO holds only t == now, so pop takes the (t, seq) minimum
// of the two fronts. A heap event can share the FIFO's timestamp when it was
// pushed before the clock reached it; the seq compare orders the two.
//
// Both structures are measured choices: DESIGN.md §11 gives the end-to-end
// A/B runs against a bare heap and against more levels.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace daosim::sim {

class EventQueue {
 public:
  /// A scheduled coroutine resumption.
  struct Item {
    Time t = 0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> h;
  };

  bool empty() const noexcept { return fifoEmpty() && heap_.empty(); }
  std::size_t size() const noexcept {
    return fifo_.size() - fifo_head_ + heap_.size();
  }

  /// Pushes an event; `now` is the kernel's current time and `t >= now`,
  /// `seq` strictly increasing across pushes.
  void push(Time now, Time t, std::uint64_t seq, std::coroutine_handle<> h) {
    assert(t >= now);
    if (t != now) {
      heap_.push_back(Item{t, seq, h});
      std::push_heap(heap_.begin(), heap_.end(), After{});
      return;
    }
    assert(fifoEmpty() || fifo_[fifo_head_].t == now);
    if (fifoEmpty()) {  // reuse the drained storage from index zero
      fifo_.clear();
      fifo_head_ = 0;
    }
    fifo_.push_back(Item{t, seq, h});
  }

  /// Pops the (time, seq)-minimum event. Queue must be non-empty.
  Item pop() {
    assert(!empty());
    if (!fifoEmpty() &&
        (heap_.empty() || After{}(heap_.front(), fifo_[fifo_head_]))) {
      return fifo_[fifo_head_++];
    }
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    const Item e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// Timestamp of the next event to pop. Queue must be non-empty.
  Time nextTime() const {
    assert(!empty());
    if (fifoEmpty()) return heap_.front().t;
    if (heap_.empty()) return fifo_[fifo_head_].t;
    return std::min(fifo_[fifo_head_].t, heap_.front().t);
  }

 private:
  /// "a comes after b": heap comparator yielding a (time, seq) min-front.
  struct After {
    bool operator()(const Item& a, const Item& b) const noexcept {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  bool fifoEmpty() const noexcept { return fifo_head_ == fifo_.size(); }

  // Events at exactly the current time, drained via a head index (a cheaper
  // empty check than a deque).
  std::vector<Item> fifo_;
  std::size_t fifo_head_ = 0;
  std::vector<Item> heap_;  // (time, seq) min-heap of events pushed for later
};

}  // namespace daosim::sim
