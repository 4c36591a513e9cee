#include "skiplist/leaf.h"

#include <cassert>

#include "common/backoff.h"
#include "common/marked_ptr.h"

namespace skiptrie {

namespace {

// First occupied slot with key >= x among the sorted prefix [0, n).
template <typename Chunk, typename Ikey>
uint32_t chunk_lower_bound(const Chunk* ch, uint32_t n, Ikey x) {
  uint32_t lo = 0;
  uint32_t hi = n;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (ch->keys[mid].load() < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

template <typename Traits>
LeafChunkManager<Traits>::LeafChunkManager() {
  for (auto& s : slabs_) s.store(nullptr, std::memory_order_relaxed);
  head_ = alloc_chunk();  // uncontended: id 0
  assert(head_ != nullptr && head_->id == 0);
  head_->base.store(Ikey(0));
  head_->next.store(0, std::memory_order_release);  // unpark (clear kMark)
  chunks_live_.store(1, std::memory_order_relaxed);
}

template <typename Traits>
LeafChunkManager<Traits>::~LeafChunkManager() {
  for (auto& s : slabs_) delete[] s.load(std::memory_order_relaxed);
}

template <typename Traits>
auto LeafChunkManager<Traits>::chunk(uint32_t id) const -> Chunk* {
  if (id >= allocated_.load(std::memory_order_acquire)) return nullptr;
  Chunk* s = slabs_[id / kSlabChunks].load(std::memory_order_acquire);
  return s == nullptr ? nullptr : s + (id % kSlabChunks);
}

template <typename Traits>
auto LeafChunkManager<Traits>::alloc_chunk() -> Chunk* {
  std::unique_lock<std::mutex> lk(alloc_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return nullptr;  // contended: caller skips the split
  if (!free_ids_.empty()) {
    const uint32_t id = free_ids_.back();
    free_ids_.pop_back();
    return chunk(id);
  }
  const uint32_t id = allocated_.load(std::memory_order_relaxed);
  const uint32_t slab = id / kSlabChunks;
  if (slab >= kMaxSlabs) return nullptr;  // table exhausted: stop splitting
  Chunk* s = slabs_[slab].load(std::memory_order_relaxed);
  if (s == nullptr) {
    s = new Chunk[kSlabChunks];
    for (uint32_t i = 0; i < kSlabChunks; ++i) {
      s[i].id = slab * kSlabChunks + i;
      // Park never-handed-out chunks marked so a garbage hint id resolving
      // into this slab fails the find() screens.
      s[i].next.store(kMark, std::memory_order_relaxed);
    }
    slabs_[slab].store(s, std::memory_order_release);
  }
  allocated_.store(id + 1, std::memory_order_release);
  return s + (id % kSlabChunks);
}

template <typename Traits>
void LeafChunkManager<Traits>::free_chunk(Chunk* ch) {
  std::unique_lock<std::mutex> lk(alloc_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;  // rare: the id leaks (stays parked marked)
  free_ids_.push_back(ch->id);
}

template <typename Traits>
bool LeafChunkManager<Traits>::lock_chunk(Chunk* ch, uint64_t* v) {
  Backoff bo;
  for (int i = 0; i < kLockAttempts; ++i) {
    uint64_t cv = ch->version.load(std::memory_order_relaxed);
    if ((cv & 1) == 0 &&
        ch->version.compare_exchange_weak(cv, cv + 1,
                                          std::memory_order_acq_rel)) {
      *v = cv;
      return true;
    }
    bo.spin();
  }
  return false;
}

template <typename Traits>
bool LeafChunkManager<Traits>::covers_locked(Chunk* ch, Ikey x) const {
  const uint64_t nw = ch->next.load(std::memory_order_relaxed);
  if (is_marked(nw)) return false;
  if (ch->base.load() > x) return false;
  Chunk* nx = unpack_ptr<Chunk>(nw);
  // nx cannot be unlinked (that needs ch's seqlock, which we hold), so its
  // base is stable.
  return nx == nullptr || nx->base.load() > x;
}

template <typename Traits>
auto LeafChunkManager<Traits>::find(Ikey x, uint32_t hintw,
                                    StepCounters& c, Chunk** prev) const
    -> Chunk* {
  Chunk* ch = nullptr;
  if (prev != nullptr) *prev = nullptr;
  if (hintw != 0) {
    ch = chunk(hintw - 1);
    if (ch != nullptr &&
        (is_marked(ch->next.load(std::memory_order_acquire)) ||
         ch->base.load() > x)) {
      ch = nullptr;  // retired or past x: the hint is useless
    }
  }
  if (ch == nullptr) ch = head_;
  for (uint32_t steps = 0; steps < kFindWalkLimit; ++steps) {
    const uint64_t nw = ch->next.load(std::memory_order_acquire);
    if (is_marked(nw)) {  // ch retired mid-walk; restart from the head
      ch = head_;
      if (prev != nullptr) *prev = nullptr;
      continue;
    }
    Chunk* nx = unpack_ptr<Chunk>(nw);
    if (nx == nullptr || nx->base.load() > x) return ch;
    if (prev != nullptr) *prev = ch;
    ch = nx;
    c.bytes_touched += kCacheLine;  // crossed into another chunk header
  }
  return ch;  // bound hit: best-effort, every caller re-validates
}

template <typename Traits>
auto LeafChunkManager<Traits>::pred_hint(Ikey x, uint32_t hintw,
                                         StepCounters& c) const -> HintResult {
  HintResult r;
  Chunk* prev = nullptr;
  Chunk* ch = find(x, hintw, c, &prev);
  const uint64_t nw = ch->next.load(std::memory_order_acquire);
  Chunk* nx = unpack_ptr<Chunk>(nw);
  r.idw = ch->id + 1;
  const Ikey right = nx != nullptr ? nx->base.load() : Traits::ikey_max();
  r.covered = !is_marked(nw) && !(ch->base.load() > x) && x < right;
  if (!r.covered) return r;  // walk bound or a racing merge; caller falls back
  c.chunk_scans++;
  // Boehm atomic-seqlock read: acquire version, relaxed data, acquire
  // fence, re-read version.  Even a mis-validated pass is safe — nodes[]
  // only ever holds pointers into type-stable arena storage, and the caller
  // re-validates the hint through list_search (DESIGN.md §7.2).
  //
  // The search is a forward linear scan, not a binary search: at K <= 16
  // the scan is branch-predictable and — the point of the exercise — reads
  // only the key lines up to the stop slot, which is what bytes_touched is
  // charged (header line + key lines crossed + the answer's node line).
  for (int attempt = 0; attempt < 2; ++attempt) {
    const uint64_t v0 = ch->version.load(std::memory_order_acquire);
    if ((v0 & 1) != 0) continue;  // writer active
    const uint32_t n = static_cast<uint32_t>(
        std::popcount(ch->occ.load(std::memory_order_relaxed)));
    if (n > Chunk::kKeys) {
      c.bytes_touched += kCacheLine;  // read the header, fell back
      return r;                       // garbage
    }
    uint32_t lo = 0;
    while (lo < n && ch->keys[lo].load() < x) ++lo;
    Node_t* node =
        lo > 0 ? ch->nodes[lo - 1].load(std::memory_order_relaxed) : nullptr;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (ch->version.load(std::memory_order_relaxed) == v0) {
      const uint32_t last = lo < n ? lo : (n > 0 ? n - 1 : 0);
      const uint64_t key_lines = n == 0 ? 0 : last / Chunk::kKeysPerLine + 1;
      c.bytes_touched +=
          kCacheLine * (1 + key_lines + (lo > 0 ? 1 : 0));
      if (node == nullptr && prev != nullptr) {
        // x is at or below this chunk's first indexed key, so the true
        // level-0 predecessor lives in the chunk *before* it — which the
        // find() walk just crossed.  Answer from prev's last slot (its
        // largest key is < ch->base <= x by base order) instead of making
        // the caller re-walk from its tower-root start, which can be a
        // whole top-level gap behind.  One seqlock-screened read of the
        // last key/node slot: header + one key line + one node line.
        const uint64_t pv0 = prev->version.load(std::memory_order_acquire);
        if ((pv0 & 1) == 0) {
          const uint32_t pn = static_cast<uint32_t>(
              std::popcount(prev->occ.load(std::memory_order_relaxed)));
          if (pn >= 1 && pn <= Chunk::kKeys) {
            Node_t* pnode =
                prev->nodes[pn - 1].load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (prev->version.load(std::memory_order_relaxed) == pv0) {
              c.bytes_touched += kCacheLine * 3;
              node = pnode;
            }
          }
        }
      }
      r.node = node;
      return r;
    }
  }
  c.bytes_touched += kCacheLine;  // both attempts torn: header traffic only
  return r;
}

template <typename Traits>
auto LeafChunkManager<Traits>::lock_covering(Ikey x, uint32_t hintw,
                                             uint64_t* v, StepCounters& c)
    -> Chunk* {
  // One retry through a hint-free find: the first attempt may have chased a
  // stale hint or raced a split that moved x's run.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Chunk* ch = find(x, attempt == 0 ? hintw : 0, c);
    if (!lock_chunk(ch, v)) break;
    if (covers_locked(ch, x)) return ch;
    unlock_chunk(ch, *v);
  }
  skips_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

template <typename Traits>
auto LeafChunkManager<Traits>::split_locked(Chunk* ch, uint64_t* v, Ikey x,
                                            StepCounters& c) -> Chunk* {
  Chunk* d = alloc_chunk();
  if (d == nullptr) {
    unlock_chunk(ch, *v);
    return nullptr;
  }
  uint64_t dv;
  if (!lock_chunk(d, &dv)) {  // a stale writer briefly held the parked chunk
    free_chunk(d);
    unlock_chunk(ch, *v);
    return nullptr;
  }
  const uint32_t half = Chunk::kKeys / 2;
  const Ikey mid = ch->keys[half].load();
  d->base.store(mid);
  for (uint32_t i = half; i < Chunk::kKeys; ++i) {
    Node_t* node = ch->nodes[i].load(std::memory_order_relaxed);
    d->keys[i - half].store(ch->keys[i].load());
    d->nodes[i - half].store(node, std::memory_order_relaxed);
    if (node != nullptr) node->chunkw.store(d->id + 1, std::memory_order_relaxed);
  }
  d->occ.store((uint64_t(1) << half) - 1, std::memory_order_relaxed);
  ch->occ.store((uint64_t(1) << half) - 1, std::memory_order_relaxed);
  // Link d right after ch.  ch->next is stable and unmarked (we hold ch's
  // seqlock and covers_locked screened the mark).
  d->next.store(without_tags(ch->next.load(std::memory_order_relaxed)),
                std::memory_order_relaxed);
  ch->next.store(pack_ptr(d), std::memory_order_release);
  chunks_live_.fetch_add(1, std::memory_order_relaxed);
  c.chunk_splits++;
  c.bytes_touched += kScanBytes;  // rewrote both halves' key/node lines
  if (!(x < mid)) {
    unlock_chunk(ch, *v);
    *v = dv;
    return d;
  }
  unlock_chunk(d, dv);
  return ch;
}

template <typename Traits>
void LeafChunkManager<Traits>::note_insert(Ikey x, Node_t* node,
                                           uint32_t hintw) {
  auto& c = tls_counters();
  uint64_t v;
  Chunk* ch = lock_covering(x, hintw, &v, c);
  if (ch == nullptr) return;
  uint32_t n = ch->count();
  uint32_t pos = chunk_lower_bound(ch, n, x);
  if (pos < n && ch->keys[pos].load() == x) {
    // Stale entry from an earlier incarnation of this key (its erase
    // maintenance was skipped): re-point it at the live node.
    ch->nodes[pos].store(node, std::memory_order_relaxed);
    node->chunkw.store(ch->id + 1, std::memory_order_relaxed);
    unlock_chunk(ch, v);
    return;
  }
  if (n == Chunk::kKeys) {
    ch = split_locked(ch, &v, x, c);
    if (ch == nullptr) {
      skips_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    n = ch->count();
    pos = chunk_lower_bound(ch, n, x);
  }
  for (uint32_t i = n; i > pos; --i) {
    ch->keys[i].store(ch->keys[i - 1].load());
    ch->nodes[i].store(ch->nodes[i - 1].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  ch->keys[pos].store(x);
  ch->nodes[pos].store(node, std::memory_order_relaxed);
  ch->occ.store((uint64_t(1) << (n + 1)) - 1, std::memory_order_relaxed);
  node->chunkw.store(ch->id + 1, std::memory_order_relaxed);
  keys_live_.fetch_add(1, std::memory_order_relaxed);
  c.bytes_touched += 2 * kCacheLine;  // header + shifted key line
  unlock_chunk(ch, v);
}

template <typename Traits>
void LeafChunkManager<Traits>::note_erase(Ikey x, uint32_t hintw) {
  auto& c = tls_counters();
  uint64_t v;
  Chunk* ch = lock_covering(x, hintw, &v, c);
  if (ch == nullptr) return;
  const uint32_t n = ch->count();
  const uint32_t pos = chunk_lower_bound(ch, n, x);
  if (pos >= n || ch->keys[pos].load() != x) {
    unlock_chunk(ch, v);  // never indexed (its insert maintenance lagged)
    return;
  }
  for (uint32_t i = pos; i + 1 < n; ++i) {
    ch->keys[i].store(ch->keys[i + 1].load());
    ch->nodes[i].store(ch->nodes[i + 1].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  ch->occ.store((uint64_t(1) << (n - 1)) - 1, std::memory_order_relaxed);
  keys_live_.fetch_sub(1, std::memory_order_relaxed);
  c.bytes_touched += 2 * kCacheLine;
  unlock_chunk(ch, v);
  if (n - 1 <= kMergeMin && ch != head_) maybe_merge(ch, c);
}

template <typename Traits>
void LeafChunkManager<Traits>::maybe_merge(Chunk* ch, StepCounters& c) {
  // Chunks are singly linked, so find the predecessor from the head.  The
  // walk and both lock acquisitions are best-effort: a drained chunk that
  // escapes merging here is re-offered on the next erase in its range.
  Chunk* pred = head_;
  for (uint32_t steps = 0;; ++steps) {
    const uint64_t nw = pred->next.load(std::memory_order_acquire);
    if (is_marked(nw)) return;  // raced another merge
    Chunk* nx = unpack_ptr<Chunk>(nw);
    if (nx == ch) break;
    if (nx == nullptr || steps >= kPredWalkLimit) return;
    pred = nx;
  }
  uint64_t pv;
  if (!lock_chunk(pred, &pv)) return;
  if (pred->next.load(std::memory_order_relaxed) != pack_ptr(ch)) {
    unlock_chunk(pred, pv);
    return;
  }
  uint64_t v;
  if (!lock_chunk(ch, &v)) {
    unlock_chunk(pred, pv);
    return;
  }
  const uint32_t n = ch->count();
  const uint32_t pn = pred->count();
  const uint64_t nw = ch->next.load(std::memory_order_relaxed);
  if (is_marked(nw) || n > kMergeMin || pn + n > Chunk::kKeys) {
    unlock_chunk(ch, v);  // refilled or no room; leave it be
    unlock_chunk(pred, pv);
    return;
  }
  // Move the survivors.  Order is preserved: every ch key >= ch->base,
  // which is > every pred key (coverage is disjoint and base-ordered).
  for (uint32_t i = 0; i < n; ++i) {
    Node_t* node = ch->nodes[i].load(std::memory_order_relaxed);
    pred->keys[pn + i].store(ch->keys[i].load());
    pred->nodes[pn + i].store(node, std::memory_order_relaxed);
    if (node != nullptr) {
      node->chunkw.store(pred->id + 1, std::memory_order_relaxed);
    }
  }
  pred->occ.store((uint64_t(1) << (pn + n)) - 1, std::memory_order_relaxed);
  ch->occ.store(0, std::memory_order_relaxed);
  // Harris retire: mark the victim's own next word, then unlink it under
  // the predecessor's seqlock; pred's coverage absorbs the victim's range.
  ch->next.store(with_mark(nw), std::memory_order_release);
  pred->next.store(without_tags(nw), std::memory_order_release);
  unlock_chunk(ch, v);  // version bump kills in-flight seqlock reads
  unlock_chunk(pred, pv);
  chunks_live_.fetch_sub(1, std::memory_order_relaxed);
  c.chunk_merges++;
  c.bytes_touched += 2 * kCacheLine;
  free_chunk(ch);
}

template class LeafChunkManager<U64Traits>;
template class LeafChunkManager<Bytes16Traits>;

}  // namespace skiptrie
