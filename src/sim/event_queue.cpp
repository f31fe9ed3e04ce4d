#include "sim/event_queue.hpp"

#include <utility>

#include "check/check.hpp"

namespace pp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.seq = kNoSeq;
  ++s.gen;
  free_.push_back(slot);
}

bool EventQueue::slot_pending(std::uint32_t slot, std::uint32_t gen) const {
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  return s.gen == gen && s.seq != kNoSeq;
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_pending(slot, gen)) return;
  release_slot(slot);  // its heap node goes stale; pruned when it surfaces
  --live_;
  ++stats_.cancelled;
}

void EventQueue::run_append(std::uint32_t slot) {
  if (heap_[open_].chunk == kNoChunk) {
    open_tail_ = acquire_chunk();
    heap_[open_].chunk = open_tail_;
  } else if (chunks_[open_tail_].end == kChunkSlots) {
    const std::uint32_t c = acquire_chunk();
    chunks_[open_tail_].next = c;
    open_tail_ = c;
  }
  Chunk& tail = chunks_[open_tail_];
  tail.slots[tail.end++] = slot;
}

std::uint32_t EventQueue::acquire_chunk() {
  std::uint32_t c = free_chunk_;
  if (c != kNoChunk) {
    free_chunk_ = chunks_[c].next;
  } else {
    c = static_cast<std::uint32_t>(chunks_.size());
    chunks_.emplace_back();
  }
  Chunk& ch = chunks_[c];
  ch.next = kNoChunk;
  ch.begin = 0;
  ch.end = 0;
  return c;
}

void EventQueue::advance_root() const {
  --held_;
  HeapNode& root = heap_.front();
  if (root.chunk == kNoChunk) {
    heap_pop_root();
    return;
  }
  Chunk& c = chunks_[root.chunk];
  root.slot = c.slots[c.begin++];
  ++root.seq;
  if (c.begin == c.end) {  // chunk drained: return it to the pool
    const std::uint32_t drained = root.chunk;
    root.chunk = c.next;
    c.next = free_chunk_;
    free_chunk_ = drained;
  }
}

void EventQueue::heap_push(HeapNode n) {
  std::size_t i = heap_.size();
  heap_.push_back(n);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!node_less(n, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = n;
  open_ = i;
}

void EventQueue::heap_pop_root() const {
  // A local copy: open_ may alias HeapNode::seq, so the compiler would
  // otherwise reload it after every node move.
  std::size_t open = open_ == 0 ? kNoNode : open_;
  const HeapNode last = heap_.back();
  const bool last_open = open == heap_.size() - 1;
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (node_less(heap_[c], heap_[best])) best = c;
    }
    if (!node_less(heap_[best], last)) break;
    heap_[i] = heap_[best];
    if (best == open) open = i;
    i = best;
  }
  if (n > 0) heap_[i] = last;
  open_ = last_open ? i : open;
}

void EventQueue::prune_stale() const {
  while (!heap_.empty()) {
    const HeapNode& top = heap_.front();
    if (slots_[top.slot].seq == top.seq) return;  // live head
    advance_root();
    ++stats_.stale_pruned;
  }
}

Time EventQueue::next_time() const {
  prune_stale();
  return heap_.empty() ? Time::max() : heap_.front().when;
}

EventQueue::Fired EventQueue::pop() {
  prune_stale();
  PP_CHECK(!heap_.empty(), "sim.event_queue.pop_empty");
  const Time when = heap_.front().when;
  const std::uint32_t slot = heap_.front().slot;
  advance_root();
  Slot& s = slots_[slot];
  Fired fired{when, std::move(s.cb)};
  // Release before returning so a handle queried from inside its own
  // callback reports !pending(), and the slot is reusable immediately.
  release_slot(slot);
  --live_;
  ++stats_.fired;
  return fired;
}

}  // namespace pp::sim
