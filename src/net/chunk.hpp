// Refcounted chunk queues — the one buffer type on the downlink data path
// (lighttpd's chunk.c / network_write.c idiom, adapted to datagrams).
//
// A datagram entering the splice is wrapped once in a ChunkDatagram and
// from then on moves by reference: the proxy's per-client queue, the burst
// chain handed down the wire, the AP's PSM parked queues and the medium's
// in-flight reservation all hold Chunk *views* (offset/length into the
// datagram's payload) linked into intrusive chains.  Queued → snapshotted →
// scheduled → bursted → traced, without re-copying or re-enqueueing the
// packet per hop.  Per-datagram metadata (arrival time via pkt.sent_at,
// flow addressing, the end-of-burst mark) rides along: delay accounting,
// deadline slack and the conservation auditors read it off the view.
//
// Byte convention: ChunkQueue::bytes() counts *payload* bytes (the view
// lengths).  Every queue_limit_bytes admission check on the data path —
// proxy per-client queues and the AP's PSM parking — compares payload
// bytes against the limit, and the queue_depth gauges publish the same
// number.  Wire-level queues (Channel, the AP forwarding FIFO) stay on
// wire_size(): they model link budgets, not application buffering.
//
// Nodes come from a ChunkPool slab allocator.  Queues hold the pool by
// shared_ptr because burst chains wait in other components' in-flight
// rings (net/fifo_ring.hpp): a chain destroyed after its owning component
// (testbed teardown order) must still be able to return its nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace pp::net {

// The underlying refcounted datagram: the packet by value, app header
// included, in a pool slot.  `refs` counts the Chunk views alive over it;
// the slot goes back to the pool when the last view goes, releasing the
// packet's shared message, if it has one, with it.
struct ChunkDatagram {
  Packet pkt;
  std::uint32_t refs = 0;
};
static_assert(sizeof(ChunkDatagram) <= 80, "ChunkDatagram outgrew 80 bytes");

// One view over [offset, offset+length) of a datagram's payload.  A full
// view has offset 0 and length == pkt.payload; split_front() produces
// partial views when a burst boundary lands inside a datagram.  The mark
// flag lives on the view, not the datagram: only the copy that terminates
// a burst carries it.
struct Chunk {
  ChunkDatagram* data = nullptr;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  bool marked = false;
  Chunk* next = nullptr;
};

// Wire bytes of one view: its payload share plus IP + transport headers
// (mirrors Packet::wire_size() for the materialized view).
inline std::uint32_t chunk_wire_bytes(const Chunk& c) {
  return c.length + 20u + (c.data->pkt.proto == Protocol::Tcp ? 20u : 8u);
}

// Slab allocator for Chunk and ChunkDatagram nodes.  Free lists are plain
// vectors (reserved at slab growth), so steady-state take/give never
// touches the heap.
class ChunkPool {
 public:
  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  Chunk* take_chunk();
  void give_chunk(Chunk* c);
  ChunkDatagram* take_datagram();
  void give_datagram(ChunkDatagram* d);

  // Slab growth count — a flat value after warmup is the zero-alloc
  // steady-state evidence the counting-allocator test asserts on.
  std::uint64_t slab_allocs() const { return slab_allocs_; }
  std::size_t chunk_slots() const { return chunk_slabs_.size() * kSlab; }

 private:
  static constexpr std::size_t kSlab = 256;

  std::vector<std::unique_ptr<Chunk[]>> chunk_slabs_;
  std::vector<std::unique_ptr<ChunkDatagram[]>> dgram_slabs_;
  std::vector<Chunk*> free_chunks_;
  std::vector<ChunkDatagram*> free_dgrams_;
  std::uint64_t slab_allocs_ = 0;
};

// An intrusive chain of Chunk views with O(1) push/pop/splice and running
// packet/byte totals (so demand snapshots are O(1)).  Move-only, 48 bytes:
// it is passed by value through the burst path and waits out each hop in
// that link's in-flight ring, never in an event.
class ChunkQueue {
 public:
  ChunkQueue() = default;
  explicit ChunkQueue(std::shared_ptr<ChunkPool> pool)
      : pool_{std::move(pool)} {}
  ~ChunkQueue() { clear(); }

  ChunkQueue(const ChunkQueue&) = delete;
  ChunkQueue& operator=(const ChunkQueue&) = delete;
  ChunkQueue(ChunkQueue&& o) noexcept;
  ChunkQueue& operator=(ChunkQueue&& o) noexcept;

  void set_pool(std::shared_ptr<ChunkPool> pool) { pool_ = std::move(pool); }
  const std::shared_ptr<ChunkPool>& pool() const { return pool_; }

  bool empty() const { return head_ == nullptr; }
  std::size_t packets() const { return count_; }
  // Payload bytes queued (see the byte-convention note above).
  std::uint64_t bytes() const { return bytes_; }
  Chunk* front() { return head_; }
  const Chunk* front() const { return head_; }
  Chunk* back() { return tail_; }
  const Chunk* back() const { return tail_; }

  // Wrap a datagram in a fresh full-length view at the tail.
  void push(Packet pkt);
  // Materialize the front view as a Packet and release it.  A sole full
  // view moves the packet out (no copy, no refcount churn); a shared or
  // partial view copies with payload = view length.  The view's mark is
  // OR-ed onto the packet.
  Packet pop_packet();
  // Release the front view without materializing it.
  void drop_front();
  // Move the front chunk node to the tail of `dst` — the per-hop handoff;
  // the datagram itself never moves.  Queues must share a pool.
  void pop_front_to(ChunkQueue& dst);
  // Splice the whole chain onto the tail of `dst` in O(1).
  void move_all_to(ChunkQueue& dst);
  // Split the front view at `bytes` (0 < bytes < front length): the front
  // chunk shrinks to [offset, offset+bytes) and a second view over the
  // remainder is inserted right after it, bumping the datagram's refcount.
  // Used when a burst boundary lands inside a datagram.
  void split_front(std::uint32_t bytes);
  // Set the end-of-burst mark on the tail view.
  void mark_tail();
  // Release every view.
  void clear();

  template <typename F>
  void for_each(F&& f) const {
    for (const Chunk* c = head_; c != nullptr; c = c->next) f(*c);
  }

  // Structural invariants: totals match the chain, every view is in range
  // and referenced.  Aborts via PP_CHECK on violation.
  void audit() const;

 private:
  void release(Chunk* c);

  std::shared_ptr<ChunkPool> pool_;
  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace pp::net
