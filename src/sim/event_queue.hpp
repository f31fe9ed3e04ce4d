// Pending-event set for the discrete-event engine.
//
// Layout: a slab of fixed-size slots holds the callbacks (EventCallback,
// inline-only; see callback.hpp) and a 4-ary min-heap of 24-byte nodes
// orders them.  Sift operations therefore move small PODs, never
// callbacks, and the steady-state schedule/fire cycle performs zero heap
// allocations: fired and cancelled slots are eagerly recycled through a
// free list, and every capture lives inline in its slot.
//
// A slot is one 64-byte cache line: the callback (48 bytes), its seq and
// its generation, plus 4 spare bytes.  It is that small because events
// carry no packets: links keep their in-flight payloads in FIFO rings of
// their own (net/fifo_ring.hpp), so a fleet cell's thousands of pending
// wake timers cost one line each.
//
// Ordering is (time, insertion sequence) — simultaneous events fire in
// schedule order, which keeps runs bit-deterministic and replay digests
// stable across engine rewrites.
//
// Runs: a push whose time equals the immediately preceding push's time
// joins that push's run instead of adding a heap node.  A heap node is a
// run: its key is the run head's (time, seq) and its extra slots live in
// a chain of fixed-size chunks drawn from one shared pool.  Seqs inside a
// run are contiguous, so no other pending event has the run's time and a
// seq inside the run's range; ordering the node by its head therefore
// pops exactly the (time, seq) sequence one node per event would, and a
// pop advances the root's head in place, with no sift, until the run
// drains.  A schedule broadcast that re-arms every client's timer at one
// instant costs one heap node, not one sift per client.
//
// Cancellation is an O(1) flag-set: the slot is released immediately (its
// capture destroyed, its generation bumped) and the run entry it leaves
// behind goes stale — detected by a seq mismatch and skipped, in O(1),
// when it reaches its run's head at the root.  Handles are
// generation-counted (queue, slot, generation) triples, so a stale handle
// can never cancel a recycled slot.
//
// const-correctness: empty() is an O(1) live-event count; next_time() and
// pop() lazily discard stale entries.  The heap, the chunk pool and the
// meta-counters are `mutable` — discarding an entry whose event no longer
// exists does not change the queue's observable state, so the probes are
// genuinely const.
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
    // Stale run entries discarded (one per cancellation, eventually).
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
    if (open_ != kNoNode && heap_[open_].when == when) {
      run_append(slot);
    } else {
      heap_push(HeapNode{when, next_seq_, slot, kNoChunk});
    }
    ++next_seq_;
    ++held_;
    ++live_;
    ++stats_.scheduled;
    return EventHandle{this, slot, s.gen};
  }

  // True when no pending (non-cancelled) events remain.  O(1), exact.
  bool empty() const { return live_ == 0; }
  // Pending (non-cancelled) events.
  std::size_t size() const { return live_; }
  // Run entries currently held (size() plus not-yet-skipped stale ones).
  std::size_t size_bound() const { return held_; }

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

  struct alignas(64) Slot {
    EventCallback cb;
    std::uint64_t seq = kNoSeq;  // kNoSeq while the slot is free
    std::uint32_t gen = 0;       // bumped on every release
  };
  static_assert(sizeof(Slot) == 64, "one slab slot per cache line");

  // One run: the head entry's key and slot, plus the chunk chain holding
  // the entries behind it (kNoChunk for a run of one).  The run's k-th
  // entry has seq `seq + k`.
  struct HeapNode {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t chunk;
  };
  static_assert(sizeof(HeapNode) == 24);

  // A run's extra slots, in push order: [begin, end) are still held, and
  // `next` links the run's following chunk (or, when pooled, the next free
  // chunk).  13 slots plus three indices make a 64-byte chunk.
  static constexpr std::uint32_t kChunkSlots = 13;
  struct Chunk {
    std::uint32_t slots[kChunkSlots];
    std::uint32_t next;
    std::uint32_t begin;
    std::uint32_t end;
  };
  static_assert(sizeof(Chunk) == 64);

  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoChunk = ~std::uint32_t{0};
  static constexpr std::size_t kNoNode = ~std::size_t{0};
  static constexpr std::size_t kArity = 4;

  static bool node_less(const HeapNode& a, const HeapNode& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  bool slot_pending(std::uint32_t slot, std::uint32_t gen) const;
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  // Add `slot` to the tail of the open run (heap_[open_]).
  void run_append(std::uint32_t slot);
  std::uint32_t acquire_chunk();
  // Move the root's head to its run's next entry, or remove the root
  // when its run drains.  const: see header comment on lazy pruning.
  void advance_root() const;

  // Insert a new run; it becomes the open run.
  void heap_push(HeapNode n);
  // Remove the root.  const: see header comment on lazy pruning.
  void heap_pop_root() const;
  // Skip stale entries (seq mismatch) at the root's head.
  void prune_stale() const;

  mutable std::vector<HeapNode> heap_;  // 4-ary min-heap on head (when, seq)
  mutable std::vector<Chunk> chunks_;   // run chunk pool
  mutable std::uint32_t free_chunk_ = kNoChunk;  // pooled chunks, via next
  // The run the next push at the same time joins: heap index of the last
  // push's run while that run is still held, else kNoNode.  Kept current
  // through the sifts.
  mutable std::size_t open_ = kNoNode;
  std::uint32_t open_tail_ = kNoChunk;  // last chunk of the open run
  std::vector<Slot> slots_;             // slab, indexed by slot number
  std::vector<std::uint32_t> free_;     // released slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  mutable std::size_t held_ = 0;
  mutable Stats stats_;
};

inline bool EventHandle::pending() const {
  return q_ != nullptr && q_->slot_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (q_ != nullptr) q_->cancel_slot(slot_, gen_);
}

}  // namespace pp::sim
