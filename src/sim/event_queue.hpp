// Pending-event set for the discrete-event engine.
//
// Layout: a slab of fixed-size slots holds the callbacks (EventCallback,
// small-buffer-optimized; see callback.hpp) and a 4-ary min-heap of
// 24-byte (time, seq, slot) nodes orders them.  Sift operations therefore
// move small PODs, never callbacks, and the steady-state schedule/fire
// cycle performs zero heap allocations: fired and cancelled slots are
// eagerly recycled through a free list, and every capture lives inline in
// its slot.
//
// Ordering is (time, insertion sequence) — simultaneous events fire in
// schedule order, which keeps runs bit-deterministic and replay digests
// stable across engine rewrites.
//
// Cancellation is an O(1) flag-set: the slot is released immediately (its
// capture destroyed, its generation bumped) and the heap node it leaves
// behind goes stale — detected by a seq mismatch and discarded when it
// surfaces.  Handles are generation-counted (queue, slot, generation)
// triples, so a stale handle can never cancel a recycled slot.
//
// const-correctness: empty() is an O(1) live-event count; next_time() and
// pop() lazily discard stale heap prefixes.  The heap and meta-counters
// are `mutable` — discarding a node whose event no longer exists does not
// change the queue's observable state, so the probes are genuinely const.
//
// Lifetime: handles and Fired callbacks must not outlive the queue (in
// practice: the Simulator, which components already hold by reference).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace pp::sim {

class EventQueue;

// Handle to a scheduled event; allows cancellation.  Default-constructed
// handles refer to nothing and are safe to query or cancel.  Copies are
// cheap (16 bytes) and all observe the same event: once it fires or any
// copy cancels it, every copy reports !pending() and cancels are no-ops.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither fired nor been cancelled.
  bool pending() const;
  // Cancel the event if still pending.  Idempotent; O(1).
  void cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
      : q_{q}, slot_{slot}, gen_{gen} {}

  EventQueue* q_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    // Stale heap nodes discarded (one per cancellation, eventually).
    std::uint64_t stale_pruned = 0;
  };

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  template <typename F>
  EventHandle push(Time when, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.cb = EventCallback{std::forward<F>(fn)};
    s.seq = next_seq_;
    heap_push(HeapNode{when, next_seq_, slot});
    ++next_seq_;
    ++live_;
    ++stats_.scheduled;
    return EventHandle{this, slot, s.gen};
  }

  // True when no pending (non-cancelled) events remain.  O(1), exact.
  bool empty() const { return live_ == 0; }
  // Pending (non-cancelled) events.
  std::size_t size() const { return live_; }
  // Heap nodes currently held (size() plus not-yet-pruned stale nodes).
  std::size_t size_bound() const { return heap_.size(); }

  // Earliest pending event time; Time::max() if empty.
  Time next_time() const;

  // Pop and return the earliest pending event.  Precondition: !empty().
  struct Fired {
    Time when;
    EventCallback fn;
  };
  Fired pop();

  const Stats& stats() const { return stats_; }
  // Slab high-water mark: slots ever allocated (== peak concurrent events).
  std::size_t slab_slots() const { return slots_.size(); }

 private:
  friend class EventHandle;

  struct Slot {
    EventCallback cb;
    std::uint64_t seq = kNoSeq;  // kNoSeq while the slot is free
    std::uint32_t gen = 0;       // bumped on every release
  };

  struct HeapNode {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};
  static constexpr std::size_t kArity = 4;

  static bool node_less(const HeapNode& a, const HeapNode& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  bool slot_pending(std::uint32_t slot, std::uint32_t gen) const;
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  void heap_push(HeapNode n);
  // Remove the root.  const: see header comment on lazy pruning.
  void heap_pop_root() const;
  // Discard stale nodes (seq mismatch) from the top of the heap.
  void prune_stale() const;

  mutable std::vector<HeapNode> heap_;  // 4-ary min-heap on (when, seq)
  std::vector<Slot> slots_;             // slab, indexed by HeapNode::slot
  std::vector<std::uint32_t> free_;     // released slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  mutable Stats stats_;
};

inline bool EventHandle::pending() const {
  return q_ != nullptr && q_->slot_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (q_ != nullptr) q_->cancel_slot(slot_, gen_);
}

}  // namespace pp::sim
