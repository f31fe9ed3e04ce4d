#include "net/chunk.hpp"

#include <utility>

#include "check/check.hpp"

namespace pp::net {

Chunk* ChunkPool::take_chunk() {
  if (free_chunks_.empty()) {
    chunk_slabs_.push_back(std::make_unique<Chunk[]>(kSlab));
    free_chunks_.reserve(chunk_slots());
    Chunk* slab = chunk_slabs_.back().get();
    for (std::size_t i = kSlab; i-- > 0;) free_chunks_.push_back(&slab[i]);
    ++slab_allocs_;
  }
  Chunk* c = free_chunks_.back();
  free_chunks_.pop_back();
  *c = Chunk{};
  return c;
}

void ChunkPool::give_chunk(Chunk* c) {
  c->data = nullptr;
  c->next = nullptr;
  free_chunks_.push_back(c);
}

ChunkDatagram* ChunkPool::take_datagram() {
  if (free_dgrams_.empty()) {
    dgram_slabs_.push_back(std::make_unique<ChunkDatagram[]>(kSlab));
    free_dgrams_.reserve(dgram_slabs_.size() * kSlab);
    ChunkDatagram* slab = dgram_slabs_.back().get();
    for (std::size_t i = kSlab; i-- > 0;) free_dgrams_.push_back(&slab[i]);
    ++slab_allocs_;
  }
  ChunkDatagram* d = free_dgrams_.back();
  free_dgrams_.pop_back();
  d->refs = 0;
  return d;
}

void ChunkPool::give_datagram(ChunkDatagram* d) {
  d->pkt.data.reset();  // drop a shared message reference now, not at reuse
  free_dgrams_.push_back(d);
}

ChunkQueue::ChunkQueue(ChunkQueue&& o) noexcept
    : pool_{std::move(o.pool_)},
      head_{o.head_},
      tail_{o.tail_},
      bytes_{o.bytes_},
      count_{o.count_} {
  o.head_ = nullptr;
  o.tail_ = nullptr;
  o.bytes_ = 0;
  o.count_ = 0;
}

ChunkQueue& ChunkQueue::operator=(ChunkQueue&& o) noexcept {
  if (this == &o) return *this;
  clear();
  pool_ = std::move(o.pool_);
  head_ = o.head_;
  tail_ = o.tail_;
  bytes_ = o.bytes_;
  count_ = o.count_;
  o.head_ = nullptr;
  o.tail_ = nullptr;
  o.bytes_ = 0;
  o.count_ = 0;
  return *this;
}

void ChunkQueue::push(Packet pkt) {
  PP_CHECK(pool_ != nullptr, "net.chunk.no_pool");
  ChunkDatagram* d = pool_->take_datagram();
  d->pkt = std::move(pkt);
  d->refs = 1;
  Chunk* c = pool_->take_chunk();
  c->data = d;
  c->offset = 0;
  c->length = d->pkt.payload;
  c->marked = d->pkt.marked;
  if (tail_ == nullptr) {
    head_ = tail_ = c;
  } else {
    tail_->next = c;
    tail_ = c;
  }
  bytes_ += c->length;
  ++count_;
}

void ChunkQueue::release(Chunk* c) {
  ChunkDatagram* d = c->data;
  pool_->give_chunk(c);
  if (d != nullptr && --d->refs == 0) pool_->give_datagram(d);
}

Packet ChunkQueue::pop_packet() {
  PP_CHECK(head_ != nullptr, "net.chunk.pop_empty");
  Chunk* c = head_;
  head_ = c->next;
  if (head_ == nullptr) tail_ = nullptr;
  bytes_ -= c->length;
  --count_;

  ChunkDatagram* d = c->data;
  Packet out;
  const bool sole_full_view =
      d->refs == 1 && c->offset == 0 && c->length == d->pkt.payload;
  if (sole_full_view) {
    out = std::move(d->pkt);
  } else {
    out = d->pkt;
    out.payload = c->length;
  }
  out.marked = out.marked || c->marked;
  release(c);
  return out;
}

void ChunkQueue::drop_front() {
  PP_CHECK(head_ != nullptr, "net.chunk.pop_empty");
  Chunk* c = head_;
  head_ = c->next;
  if (head_ == nullptr) tail_ = nullptr;
  bytes_ -= c->length;
  --count_;
  release(c);
}

void ChunkQueue::pop_front_to(ChunkQueue& dst) {
  PP_CHECK(head_ != nullptr, "net.chunk.pop_empty");
  PP_CHECK(dst.pool_.get() == pool_.get(), "net.chunk.pool_mismatch");
  Chunk* c = head_;
  head_ = c->next;
  if (head_ == nullptr) tail_ = nullptr;
  bytes_ -= c->length;
  --count_;
  c->next = nullptr;
  if (dst.tail_ == nullptr) {
    dst.head_ = dst.tail_ = c;
  } else {
    dst.tail_->next = c;
    dst.tail_ = c;
  }
  dst.bytes_ += c->length;
  ++dst.count_;
}

void ChunkQueue::move_all_to(ChunkQueue& dst) {
  if (head_ == nullptr) return;
  PP_CHECK(dst.pool_.get() == pool_.get(), "net.chunk.pool_mismatch");
  if (dst.tail_ == nullptr) {
    dst.head_ = head_;
  } else {
    dst.tail_->next = head_;
  }
  dst.tail_ = tail_;
  dst.bytes_ += bytes_;
  dst.count_ += count_;
  head_ = nullptr;
  tail_ = nullptr;
  bytes_ = 0;
  count_ = 0;
}

void ChunkQueue::split_front(std::uint32_t bytes) {
  PP_CHECK(head_ != nullptr, "net.chunk.pop_empty");
  PP_CHECK(bytes > 0 && bytes < head_->length, "net.chunk.split_range");
  Chunk* rest = pool_->take_chunk();
  rest->data = head_->data;
  ++rest->data->refs;
  rest->offset = head_->offset + bytes;
  rest->length = head_->length - bytes;
  rest->marked = head_->marked;  // the mark stays with the burst's last bytes
  rest->next = head_->next;
  head_->length = bytes;
  head_->marked = false;
  head_->next = rest;
  if (tail_ == head_) tail_ = rest;
  ++count_;
}

void ChunkQueue::mark_tail() {
  PP_CHECK(tail_ != nullptr, "net.chunk.mark_empty");
  tail_->marked = true;
}

void ChunkQueue::clear() {
  Chunk* c = head_;
  while (c != nullptr) {
    Chunk* next = c->next;
    release(c);
    c = next;
  }
  head_ = nullptr;
  tail_ = nullptr;
  bytes_ = 0;
  count_ = 0;
}

void ChunkQueue::audit() const {
  std::uint64_t bytes = 0;
  std::uint32_t count = 0;
  const Chunk* last = nullptr;
  for (const Chunk* c = head_; c != nullptr; c = c->next) {
    PP_CHECK(c->data != nullptr && c->data->refs > 0, "net.chunk.dangling");
    PP_CHECK(c->offset + c->length <= c->data->pkt.payload,
             "net.chunk.view_range");
    bytes += c->length;
    ++count;
    last = c;
  }
  PP_CHECK(bytes == bytes_ && count == count_, "net.chunk.totals");
  PP_CHECK(last == tail_, "net.chunk.tail");
}

}  // namespace pp::net
