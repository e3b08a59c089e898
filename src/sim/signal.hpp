// Typed signals with inertial delay and observer notification.
//
// A Signal<T> is a named value inside a Kernel. Writers either set it
// immediately (`set`) or schedule a future value (`schedule`); the latter
// has inertial semantics — a newer schedule retracts an older pending one,
// which is how a real gate output swallows a pulse shorter than its own
// delay. Observers subscribe a callback and are notified on every change.
//
// Listener storage is allocation-free on the common path: subscriptions
// live in a small inline array of {context, function-pointer} slots that
// spills to a vector only past kInlineListeners entries, and dispatch is
// one indirect call per listener — no std::function, no per-subscription
// heap allocation. Use `subscribe<&C::member>(obj)` for the typed zero-
// allocation path; `on_change(std::function)` remains for ad-hoc probes
// (tests, tooling) and boxes the callable once at registration time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/time.hpp"

namespace emc::sim {

/// Removable handle for a signal subscription (see Signal::subscribe).
/// Value-semantic and trivially copyable; 0 is "never subscribed".
struct Subscription {
  std::uint32_t id = 0;
  bool active() const { return id != 0; }
};

template <typename T>
class Signal {
 public:
  /// Raw listener shape: a context pointer plus a plain function pointer.
  using RawListener = void (*)(void* ctx, const Signal&);
  /// Type-erased listener for on_change (boxed; not on the hot path).
  using Listener = std::function<void(const Signal&)>;

  Signal(Kernel& kernel, std::string name, T initial = T{})
      : kernel_(&kernel), name_(std::move(name)), value_(std::move(initial)) {}

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  const std::string& name() const { return name_; }
  Kernel& kernel() const { return *kernel_; }

  const T& read() const { return value_; }

  /// Timestamp of the most recent value change.
  Time last_change() const { return last_change_; }

  /// Number of value changes since construction.
  std::uint64_t transitions() const { return transitions_; }

  /// Immediate write; notifies listeners synchronously when the value
  /// actually changes. Also retracts any pending scheduled write, since
  /// the driver has asserted a new value.
  void set(const T& v) {
    retract_pending();
    apply(v);
  }

  /// Inertial delayed write: the value appears after `delay`; a subsequent
  /// schedule() or set() before it matures retracts it.
  void schedule(const T& v, Time delay) {
    retract_pending();
    if (delay == 0) {
      apply(v);
      return;
    }
    pending_ = true;  // retract_pending() cancelled any earlier write
    pending_id_ = kernel_->schedule(delay, [this, v] {
      pending_ = false;
      apply(v);
    });
  }

  /// True if a delayed write is in flight.
  bool has_pending() const { return pending_; }

  // --- subscriptions ----------------------------------------------------
  //
  // Lifetime contract: a listener (its `ctx` object) must either outlive
  // the signal or remove itself with unsubscribe() first — the signal
  // calls through the stored pointer on every value change and never
  // checks liveness. Circuits built once and torn down together (the
  // usual case) can ignore the returned handle.
  //
  // Reentrancy contract: listeners are delivered in registration order.
  // A listener may subscribe further listeners mid-notification; they are
  // appended and will NOT be called for the change already in flight
  // (first delivery on the next change). A listener may unsubscribe any
  // listener — itself included — mid-notification: the entry is
  // tombstoned and skipped for the rest of the walk, the remaining
  // delivery order is unaffected, and storage (including the closure of
  // a boxed on_change listener, which may be the one executing) is only
  // released once the outermost notification completes.

  /// Zero-allocation typed subscription: calls `(obj->*Member)()` or
  /// `(obj->*Member)(const Signal&)` on every value change.
  ///   wire.subscribe<&Gate::on_input_change>(this);
  template <auto Member, typename C>
  Subscription subscribe(C* obj) {
    return subscribe_raw(obj, [](void* ctx, const Signal& s) {
      C* self = static_cast<C*>(ctx);
      if constexpr (std::is_invocable_v<decltype(Member), C&, const Signal&>) {
        (self->*Member)(s);
      } else {
        (void)s;
        (self->*Member)();
      }
    });
  }

  /// Untyped zero-allocation subscription (the primitive the typed
  /// helpers ride on): `fn(ctx, signal)` on every value change.
  Subscription subscribe_raw(void* ctx, RawListener fn) {
    const Subscription sub{next_sub_id_++};
    const Slot s{ctx, fn, sub.id};
    if (listener_count_ < kInlineListeners) {
      inline_[listener_count_] = s;
    } else {
      spill_.push_back(s);
    }
    ++listener_count_;
    return sub;
  }

  /// Register a type-erased change listener (boxed once; dispatch goes
  /// through the same slot machinery as subscribe). Returns a removable
  /// handle like subscribe(); the box is freed on unsubscribe.
  Subscription on_change(Listener fn) {
    boxed_.push_back(std::make_unique<Boxed>());
    Boxed* box = boxed_.back().get();
    box->fn = std::move(fn);
    const Subscription sub = subscribe_raw(
        box, [](void* ctx, const Signal& s) {
          static_cast<Boxed*>(ctx)->fn(s);
        });
    box->sub = sub;
    return sub;
  }

  /// Remove a subscription; delivery order of the remaining listeners is
  /// preserved. No-op for inactive/unknown/already-removed handles. Safe
  /// to call from inside a notification (see the reentrancy contract).
  void unsubscribe(Subscription sub) {
    if (!sub.active()) return;
    std::uint32_t i = 0;
    for (; i < listener_count_; ++i) {
      if (slot(i).id == sub.id && slot(i).fn != nullptr) break;
    }
    if (i == listener_count_) return;
    if (notify_depth_ > 0) {
      // Mid-walk: tombstone only. Erasing now would shift slots under
      // the running walk (skipping a listener) and, for a boxed
      // listener, could destroy the closure currently executing.
      slot(i).fn = nullptr;
      compact_pending_ = true;
      retire_boxed(sub.id);
      return;
    }
    for (std::uint32_t j = i; j + 1 < listener_count_; ++j) {
      slot(j) = slot(j + 1);
    }
    --listener_count_;
    if (!spill_.empty()) spill_.pop_back();
    retire_boxed(sub.id);
    retired_boxed_.clear();
  }

  /// Listeners currently registered.
  std::size_t listener_count() const { return listener_count_; }

 private:
  /// Small inline capacity: nearly every wire in the paper's circuits has
  /// 1-3 observers (its fan-out gates plus maybe a checker or trace).
  static constexpr std::uint32_t kInlineListeners = 4;

  struct Slot {
    void* ctx;
    RawListener fn;
    std::uint32_t id;
  };

  struct Boxed {
    Listener fn;
    Subscription sub;
  };

  Slot& slot(std::uint32_t i) {
    return i < kInlineListeners ? inline_[i] : spill_[i - kInlineListeners];
  }

  void retract_pending() {
    if (pending_) {
      kernel_->cancel(pending_id_);
      pending_ = false;
    }
  }

  /// Move a boxed listener's storage to the retirement area (freed once
  /// no walk is active) instead of destroying it in place.
  void retire_boxed(std::uint32_t id) {
    for (std::size_t b = 0; b < boxed_.size(); ++b) {
      if (boxed_[b]->sub.id == id) {
        retired_boxed_.push_back(std::move(boxed_[b]));
        boxed_.erase(boxed_.begin() + static_cast<std::ptrdiff_t>(b));
        return;
      }
    }
  }

  /// Ordered removal of tombstoned slots (deferred from mid-walk
  /// unsubscribes).
  void compact_listeners() {
    std::uint32_t w = 0;
    for (std::uint32_t r = 0; r < listener_count_; ++r) {
      const Slot s = slot(r);
      if (s.fn == nullptr) continue;
      slot(w++) = s;
    }
    spill_.resize(w > kInlineListeners ? w - kInlineListeners : 0);
    listener_count_ = w;
    compact_pending_ = false;
  }

  void apply(const T& v) {
    if (v == value_) return;
    value_ = v;
    last_change_ = kernel_->now();
    ++transitions_;
    // Snapshot the count: listeners appended mid-walk are not delivered
    // this change. Each slot is copied by value before the call so a
    // mid-walk spill/realloc cannot invalidate the entry being invoked;
    // tombstoned (mid-walk-unsubscribed) slots are skipped.
    ++notify_depth_;
    const std::uint32_t n = listener_count_;
    for (std::uint32_t i = 0; i < n && i < listener_count_; ++i) {
      const Slot s = slot(i);
      if (s.fn != nullptr) s.fn(s.ctx, *this);
    }
    if (--notify_depth_ == 0) {
      if (compact_pending_) compact_listeners();
      retired_boxed_.clear();
    }
  }

  Kernel* kernel_;
  std::string name_;
  T value_;
  Time last_change_ = 0;
  std::uint64_t transitions_ = 0;
  bool pending_ = false;
  EventId pending_id_ = 0;
  std::uint32_t listener_count_ = 0;
  std::uint32_t next_sub_id_ = 1;
  std::uint32_t notify_depth_ = 0;
  bool compact_pending_ = false;
  Slot inline_[kInlineListeners];
  std::vector<Slot> spill_;
  std::vector<std::unique_ptr<Boxed>> boxed_;
  std::vector<std::unique_ptr<Boxed>> retired_boxed_;
};

/// Digital rail — the workhorse type for gate-level circuits.
using Wire = Signal<bool>;

}  // namespace emc::sim
