// FifoRing: the in-flight payloads of a link whose deliveries happen in
// push order.
//
// The wired Channel, the access point's forwarding FIFO and the wireless
// medium each deliver their transmissions at times that never decrease
// (busy_until_ or the last_departure_ clamp).  Most deliveries are events,
// none of them cancelled, and the event queue fires equal times in
// schedule order, so the k-th completion to fire belongs to the k-th
// transmission pushed.  The payload therefore waits here, not in the
// event's capture: the event captures `this` (and at most a couple of
// counts) and pops the front, which keeps every capture small enough for a
// one-cache-line event slot (see sim/callback.hpp).  The paced datagrams on
// a lazily read Channel ingress have no event at all: they wait in a ring
// of their own, with their arrival times, until the reader pops them.
//
// Grow-only: capacity doubles when full and never shrinks, so after warmup
// push and pop never touch the heap.  A popped slot keeps a moved-from T,
// which holds no payload.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "check/check.hpp"

namespace pp::net {

template <typename T>
class FifoRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  // The i-th oldest payload (0 = the front); i < size().
  T& operator[](std::size_t i) {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  // Remove and return the oldest payload.
  T pop() {
    PP_CHECK(size_ > 0, "net.fifo_ring.pop_empty");
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 4 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // power-of-two capacity
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pp::net
