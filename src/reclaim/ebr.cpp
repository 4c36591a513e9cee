#include "reclaim/ebr.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace skiptrie {

namespace detail {

// Thread-local registry mapping domains to this thread's state.  A plain
// vector with linear scan: programs use a handful of domains at most.
struct Registry {
  std::vector<EbrThreadState*> states;
  ~Registry() {
    for (auto* s : states) delete s;
  }
};

static Registry& tls_registry() {
  thread_local Registry r;
  return r;
}

EbrThreadState::~EbrThreadState() {
  // domain is nulled by ~EbrDomain if the domain died before this thread.
  if (domain != nullptr) domain->release_slot(this);
}

}  // namespace detail

EbrDomain::EbrDomain() {
  free_slots_.reserve(kMaxThreads);
  for (uint32_t i = kMaxThreads; i > 0; --i) free_slots_.push_back(i - 1);
}

EbrDomain::~EbrDomain() {
  drain();
  // Detach surviving thread states so their destructors don't touch us.
  // Any callbacks still pending at this point are executed now: the domain
  // dying asserts that no thread is pinned, so everything is reclaimable.
  std::lock_guard<std::mutex> lk(slot_mu_);
  for (auto* s : registered_) {
    for (auto& r : s->retired) r.fn(r.ptr, r.ctx);
    s->retired.clear();
    s->domain = nullptr;
  }
  registered_.clear();
  std::lock_guard<std::mutex> lk2(orphan_mu_);
  for (auto& r : orphans_) r.fn(r.ptr, r.ctx);
  orphans_.clear();
}

detail::EbrThreadState* EbrDomain::thread_state() {
  auto& reg = detail::tls_registry();
  for (auto* s : reg.states) {
    if (s->domain == this) return s;
  }
  detail::EbrThreadState* s = nullptr;
  {
    std::lock_guard<std::mutex> lk(slot_mu_);
    // Checked in every build type, before anything is allocated or taken:
    // the threads already registered keep their slots and the domain stays
    // usable for them.
    if (free_slots_.empty()) {
      throw std::length_error(
          "EbrDomain: more than kMaxThreads threads registered at once");
    }
    s = new detail::EbrThreadState();
    s->domain = this;
    s->slot = free_slots_.back();
    free_slots_.pop_back();
    registered_.push_back(s);
  }
  uint32_t wm = slot_watermark_.load(std::memory_order_relaxed);
  while (wm < s->slot + 1 &&
         !slot_watermark_.compare_exchange_weak(wm, s->slot + 1,
                                                std::memory_order_acq_rel)) {
  }
  reg.states.push_back(s);
  return s;
}

void EbrDomain::release_slot(detail::EbrThreadState* ts) {
  // Hand any still-pending retirements to the domain's orphan list so they
  // are reclaimed by other threads (or by drain()).
  if (!ts->retired.empty()) {
    std::lock_guard<std::mutex> lk(orphan_mu_);
    for (auto& r : ts->retired) orphans_.push_back(r);
    orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
    ts->retired.clear();
  }
  slots_[ts->slot].value.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lk(slot_mu_);
  free_slots_.push_back(ts->slot);
  std::erase(registered_, ts);
}

void EbrDomain::pin(detail::EbrThreadState* ts) {
  if (ts->pin_depth++ > 0) return;
  auto& slot = slots_[ts->slot].value;
  uint64_t e = global_epoch_.load(std::memory_order_acquire);
  for (;;) {
    slot.store((e << 1) | 1, std::memory_order_seq_cst);
    const uint64_t e2 = global_epoch_.load(std::memory_order_seq_cst);
    if (e2 == e) return;  // our announcement is visible at epoch e == current
    e = e2;
  }
}

void EbrDomain::unpin(detail::EbrThreadState* ts) {
  assert(ts->pin_depth > 0);
  if (--ts->pin_depth > 0) return;
  slots_[ts->slot].value.store(0, std::memory_order_release);
}

void EbrDomain::retire(void* ptr, void (*fn)(void*, void*), void* ctx) {
  auto* ts = thread_state();
  assert(ts->pin_depth > 0 && "retire() requires a pinned Guard");
  ts->retired.push_back(detail::Retired{
      ptr, fn, ctx, global_epoch_.load(std::memory_order_acquire)});
  if (ts->retired.size() % kScanThreshold == 0) {
    try_advance_and_reclaim(ts);
  }
}

bool EbrDomain::all_quiescent_at(uint64_t epoch) const {
  const uint32_t wm = slot_watermark_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < wm; ++i) {
    const uint64_t v = slots_[i].value.load(std::memory_order_seq_cst);
    if ((v & 1) != 0 && (v >> 1) < epoch) return false;
  }
  return true;
}

void EbrDomain::try_advance_and_reclaim(detail::EbrThreadState* ts) {
  const uint64_t e = global_epoch_.load(std::memory_order_acquire);
  if (all_quiescent_at(e)) {
    uint64_t expect = e;
    global_epoch_.compare_exchange_strong(expect, e + 1,
                                          std::memory_order_acq_rel);
  }
  // Entries retired at epoch r are safe once global >= r + 2: every thread
  // pinned when the entry was retired (epoch <= r+... conservatively r) has
  // since re-pinned at a later epoch or unpinned.
  const uint64_t now = global_epoch_.load(std::memory_order_acquire);
  auto& list = ts->retired;
  size_t kept = 0;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].epoch + 2 <= now) {
      list[i].fn(list[i].ptr, list[i].ctx);
    } else {
      list[kept++] = list[i];
    }
  }
  list.resize(kept);
  // Opportunistically adopt orphans when the backlog grows.
  if (orphan_count_.load(std::memory_order_relaxed) > 0 && list.size() < 8) {
    std::lock_guard<std::mutex> lk(orphan_mu_);
    size_t kept_o = 0;
    for (size_t i = 0; i < orphans_.size(); ++i) {
      if (orphans_[i].epoch + 2 <= now) {
        orphans_[i].fn(orphans_[i].ptr, orphans_[i].ctx);
      } else {
        orphans_[kept_o++] = orphans_[i];
      }
    }
    orphans_.resize(kept_o);
    orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
  }
}

void EbrDomain::drain() {
  // Force epochs forward until everything pending is past its grace period.
  // Only callable when no thread is pinned (asserted via quiescence check).
  for (int i = 0; i < 4; ++i) {
    const uint64_t e = global_epoch_.load(std::memory_order_acquire);
    if (!all_quiescent_at(e)) return;  // someone is pinned; give up silently
    uint64_t expect = e;
    global_epoch_.compare_exchange_strong(expect, e + 1,
                                          std::memory_order_acq_rel);
  }
  const uint64_t now = global_epoch_.load(std::memory_order_acquire);
  auto& reg = detail::tls_registry();
  for (auto* s : reg.states) {
    if (s->domain != this) continue;
    for (auto& r : s->retired) {
      if (r.epoch + 2 <= now) r.fn(r.ptr, r.ctx);
    }
    std::erase_if(s->retired,
                  [now](const detail::Retired& r) { return r.epoch + 2 <= now; });
  }
  std::lock_guard<std::mutex> lk(orphan_mu_);
  for (auto& r : orphans_) {
    if (r.epoch + 2 <= now) r.fn(r.ptr, r.ctx);
  }
  std::erase_if(orphans_,
                [now](const detail::Retired& r) { return r.epoch + 2 <= now; });
  orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
}

size_t EbrDomain::pending_retired() const {
  // Thread-local lists are not visible here; report orphans plus a marker.
  return orphan_count_.load(std::memory_order_relaxed);
}

}  // namespace skiptrie
