// EventCallback: the engine's move-only, type-erased `void()` callable.
//
// Scheduling an event must not touch the global heap, and std::function's
// small buffer is implementation-defined.  EventCallback fixes the buffer
// at kInlineCapacity and always stores the callable inline: a capture that
// does not fit (or whose move can throw) is a compile error at the
// scheduling call site, so there is no fallback path to count or to warm
// up.
//
// Events carry no packets.  The links that deliver packets (net::Channel,
// net::AccessPoint, net::WirelessMedium) keep their in-flight payloads in
// a FIFO ring of their own and schedule events that capture `this` and a
// count or two (see net/fifo_ring.hpp); paced datagrams on a lazily read
// channel ingress get no event at all.  So the buffer is sized for small
// captures, and a callback plus its slot's bookkeeping fills one 64-byte
// cache line.
#pragma once

#include <cstddef>
#include <new>  // pp-lint: allow(raw-new): header name, not an expression
#include <type_traits>
#include <utility>

namespace pp::sim {

class EventCallback {
 public:
  // The SBO threshold: captures up to this many bytes (nothrow-movable,
  // alignment <= max_align_t) are stored inline.  The largest capture in
  // the simulator is 40 bytes (`this` plus four words of state); a lambda
  // that captures a net::Packet does not fit, by design.
  static constexpr std::size_t kInlineCapacity = 40;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  explicit EventCallback(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    static_assert(fits_inline<Fn>(),
                  "event capture must fit EventCallback::kInlineCapacity "
                  "(and be nothrow-movable): shrink the capture or raise "
                  "kInlineCapacity");
    // pp-lint: allow(raw-new): placement-new into the SBO buffer
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  EventCallback(EventCallback&& o) noexcept : ops_{o.ops_} {
    if (ops_) ops_->relocate(o, *this);
    o.ops_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_) ops_->relocate(o, *this);
      o.ops_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void reset() {
    if (ops_) {
      ops_->destroy(*this);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(*this); }

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  // Declared up front: the kOps initializer below names it.
  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];

  struct Ops {
    void (*invoke)(EventCallback&);
    // Move-construct `dst`'s storage from `src` and destroy `src`'s.
    void (*relocate)(EventCallback& src, EventCallback& dst) noexcept;
    void (*destroy)(EventCallback&) noexcept;
  };

  template <typename Fn>
  Fn* inline_obj() {
    return std::launder(reinterpret_cast<Fn*>(buf_));
  }

  template <typename Fn>
  static constexpr Ops kOps = {
      // invoke
      [](EventCallback& c) { (*c.inline_obj<Fn>())(); },
      // relocate
      [](EventCallback& src, EventCallback& dst) noexcept {
        // pp-lint: allow(raw-new): placement-new into the SBO buffer
        ::new (static_cast<void*>(dst.buf_))
            Fn(std::move(*src.inline_obj<Fn>()));
        src.inline_obj<Fn>()->~Fn();
      },
      // destroy
      [](EventCallback& c) noexcept { c.inline_obj<Fn>()->~Fn(); },
  };

  const Ops* ops_ = nullptr;
};

static_assert(sizeof(EventCallback) == 48,
              "buffer plus ops pointer: with the slot's seq and generation "
              "it must fit one 64-byte slab slot");

}  // namespace pp::sim
