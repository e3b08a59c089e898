// One pending wake-up per owner, by construction.
//
// Elements that re-poll a supply, retry a refused admission or tick
// periodically reschedule themselves. With a fresh Kernel::schedule()
// per trigger, two triggers before the first event fires (a refusal per
// release, a stall per fault-window wake, a stop(); start() pair) leave
// two chains running that never merge. A Timer is built once by its
// owner with the callback and holds at most one pending event:
//
//   * arm(delay) schedules the callback at now + delay. Arming while
//     armed keeps the earlier of the two times: a later arm is a no-op,
//     an earlier one moves the event forward.
//   * cancel() and the destructor retract the pending event, so a timer
//     never fires into a destroyed owner.
//
// The callback is stored once; an arm only schedules a pointer-sized
// trampoline. The timer is disarmed before the callback runs, so the
// callback may re-arm it, and fire() touches no member afterwards, so
// the callback may also destroy the timer's owner. Not copyable or
// movable: the pending event refers to the timer by address.
#pragma once

#include "sim/kernel.hpp"

namespace emc::sim {

class Timer {
 public:
  Timer(Kernel& kernel, Action callback)
      : kernel_(&kernel), callback_(std::move(callback)) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire the callback after `delay` ticks, or at the already pending
  /// time if that is earlier.
  void arm(Time delay) {
    const Time t = saturating_add(kernel_->now(), delay);
    if (id_ != 0) {
      if (due_ <= t) return;
      kernel_->cancel(id_);
    }
    due_ = t;
    id_ = kernel_->schedule_at(t, [this] { fire(); });
  }

  /// Retract the pending event, if any.
  void cancel() {
    if (id_ == 0) return;
    kernel_->cancel(id_);
    id_ = 0;
  }

  bool armed() const { return id_ != 0; }

 private:
  void fire() {
    id_ = 0;
    callback_();
  }

  Kernel* kernel_;
  Action callback_;
  EventId id_ = 0;
  Time due_ = 0;
};

}  // namespace emc::sim
