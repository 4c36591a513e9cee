// Cache-conscious leaf chunks over level 0 of the skiplist (DESIGN.md §7).
//
// A leaf chunk is a cache-line-multiple sorted mini-array of (ikey, node)
// pairs indexing a contiguous run of the authoritative level-0 Harris list.
// Chunks form their own singly-linked, base-ordered list that partitions the
// ikey space: chunk c covers [c.base, succ(c).base).  They are a *hint
// index*, never authoritative state: every linearization point stays on the
// level-0 node list, writers maintain chunks strictly after linearizing, and
// every answer a chunk produces is re-validated by a level-0 `list_search`
// from the hinted node.  A stale, torn, lagging or recycled chunk therefore
// costs steps, never answers — the same contract as the descent cursor
// (DESIGN.md §3.6), which is what makes the chunking-on/off ablation
// equivalence hold by construction.
//
// Layout (one header line, then the key lines, then the node-pointer lines):
//
//   next     tagged LeafChunkT* (kMark = retired by a merge)
//   version  seqlock word; odd while a writer holds the chunk
//   base     inclusive lower coverage bound; head chunk holds ikey 0
//   id       self index into the manager's type-stable chunk table
//   occ      occupancy bitmap; invariant: occupied slots are the sorted
//            prefix 0..popcount(occ)-1, so occ == (1 << n) - 1
//   keys[K]  sorted ikeys; K = 16 for u64 ikeys, 8 for u128 (DESIGN.md §7.1)
//   nodes[K] the level-0 node each key was last indexed at
//
// Writers acquire the seqlock with a bounded CAS loop and *skip* the
// maintenance on exhaustion (counted; chunk content may lag, which is safe).
// Readers run the Boehm atomic-seqlock protocol — acquire version, relaxed
// data loads, acquire fence, re-read version — and fall back to the normal
// descent on validation failure.  All data words are atomics, so even a
// mis-validated read yields pointers into type-stable arena storage
// (DESIGN.md §3.3), never wild memory.
//
// Split: a full chunk is cut at its median key into a fresh chunk linked
// immediately after it, both halves held under their seqlocks for the whole
// move.  Merge: a chunk drained to <= kMergeMin keys has its survivors moved
// into its predecessor (always legal: the list is base-ordered), is
// Harris-marked on its own next word, unlinked under the predecessor's
// seqlock, and its id returned to a free list.  Chunk storage is never
// freed, so a stale id or pointer always lands on valid chunk storage; the
// version bump at retire/reuse invalidates in-flight seqlock reads.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/cacheline.h"
#include "common/key_traits.h"
#include "common/stats.h"
#include "skiplist/node.h"

namespace skiptrie {

template <typename Traits>
struct alignas(kCacheLine) LeafChunkT {
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;

  // Keys per chunk, sized to the ikey width: two cache lines of keys either
  // way (16 * 8B or 8 * 16B), so even a worst-case scan touches header +
  // 2 key lines + 1 node line regardless of traits.
  static constexpr uint32_t kKeys = sizeof(Ikey) == 8 ? 16 : 8;
  static constexpr uint64_t kFullOcc = (uint64_t(1) << kKeys) - 1;
  // How many keys share one cache line (8 for u64 ikeys, 4 for u128): the
  // unit of the exact per-scan bytes_touched accounting in pred_hint.
  static constexpr uint32_t kKeysPerLine =
      kCacheLine / sizeof(AtomicIkey<Ikey>);

  std::atomic<uint64_t> next{0};     // tagged LeafChunkT*; kMark = retired
  std::atomic<uint64_t> version{0};  // seqlock; odd = writer active
  AtomicIkey<Ikey> base;             // inclusive lower coverage bound
  uint32_t id = 0;                   // set once at slab creation, immutable
  std::atomic<uint64_t> occ{0};      // occupancy bitmap (sorted prefix)
  AtomicIkey<Ikey> keys[kKeys];
  std::atomic<Node_t*> nodes[kKeys];

  uint32_t count() const {
    return static_cast<uint32_t>(
        std::popcount(occ.load(std::memory_order_relaxed)));
  }
};

template <typename Traits>
class LeafChunkManager {
 public:
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using Chunk = LeafChunkT<Traits>;

  // Modeled traffic of a whole-chunk rewrite (split): the header line plus
  // every key line.  Reads charge exactly what their scan touched instead
  // (see pred_hint).
  static constexpr uint64_t kScanBytes =
      kCacheLine * (2 + sizeof(AtomicIkey<Ikey>) * Chunk::kKeys / kCacheLine);
  // Merge when a chunk drains to this many keys or fewer (and the
  // predecessor has room for the survivors).
  static constexpr uint32_t kMergeMin = Chunk::kKeys / 8;

  LeafChunkManager();
  ~LeafChunkManager();

  LeafChunkManager(const LeafChunkManager&) = delete;
  LeafChunkManager& operator=(const LeafChunkManager&) = delete;

  // The chunk table: ids index type-stable storage, so any uint32 resolves
  // to either nullptr (never allocated) or a valid Chunk that validation
  // screens.  `hintw` parameters below take the node/cursor encoding
  // id + 1, with 0 meaning "no hint".
  Chunk* chunk(uint32_t id) const;
  Chunk* head() const { return head_; }

  // Covering chunk for x: start from the (validated) hint or the head chunk
  // and walk forward while the successor's base still admits x.  Bounded and
  // best-effort — the caller re-validates whatever it does with the result.
  // Counts kCacheLine into c.bytes_touched per chunk header crossed.  When
  // `prev` is non-null it receives the chunk the walk crossed immediately
  // before the returned one (nullptr if the walk never advanced) — the
  // lo==0 fallback in pred_hint reads its last slot.
  Chunk* find(Ikey x, uint32_t hintw, StepCounters& c,
              Chunk** prev = nullptr) const;

  // Result of a seqlock-validated in-chunk search.  `covered` is false when
  // find() could not reach a chunk covering x (walk bound, mid-walk merge);
  // `node` may be null even when covered (no indexed key < x in the chunk,
  // or seqlock contention) — callers fall back to their own level-0 start.
  struct HintResult {
    Node_t* node = nullptr;
    uint32_t idw = 0;
    bool covered = false;
  };

  // In-chunk predecessor search: the node of the largest indexed key < x in
  // the chunk covering x.  Counts one chunk_scans when a covering chunk is
  // scanned, and charges bytes_touched the exact lines the scan read: the
  // header line, the key lines the forward scan crossed before stopping,
  // and the answer's node-pointer line.
  HintResult pred_hint(Ikey x, uint32_t hintw, StepCounters& c) const;

  // Racy coverage screen for a retained hint id: true when that chunk
  // currently covers x (unmarked, base <= x < successor base).  Hint-grade.
  bool covers_hint(uint32_t hintw, Ikey x) const {
    if (hintw == 0) return false;
    Chunk* ch = chunk(hintw - 1);
    if (ch == nullptr) return false;
    const uint64_t nw = ch->next.load(std::memory_order_acquire);
    if (is_marked(nw) || ch->base.load() > x) return false;
    Chunk* nx = unpack_ptr<Chunk>(nw);
    return nx == nullptr || nx->base.load() > x;
  }

  // Post-linearization maintenance (DESIGN.md §7.3).  Best-effort: bounded
  // seqlock acquisition, skip on exhaustion (counted in maintenance_skips).
  void note_insert(Ikey x, Node_t* node, uint32_t hintw);
  void note_erase(Ikey x, uint32_t hintw);

  // Always-current atomic totals (mid-run checkpoint sampling).
  LeafLiveStats live_stats() const {
    LeafLiveStats s;
    s.chunks = chunks_live_.load(std::memory_order_relaxed);
    s.keys = keys_live_.load(std::memory_order_relaxed);
    s.capacity = Chunk::kKeys;
    return s;
  }
  uint64_t maintenance_skips() const {
    return skips_.load(std::memory_order_relaxed);
  }

  // Quiescent walk of the chunk list in base order (validate, tests,
  // structure_stats).  Not linearizable against concurrent writers.
  template <typename F>
  void for_each_chunk(F&& f) const {
    for (Chunk* ch = head_; ch != nullptr;
         ch = unpack_ptr<Chunk>(without_tags(
             ch->next.load(std::memory_order_acquire)))) {
      f(*ch);
    }
  }

 private:
  static constexpr uint32_t kSlabChunks = 256;
  static constexpr uint32_t kMaxSlabs = 1024;  // 256k chunks
  static constexpr uint32_t kFindWalkLimit = 64;
  static constexpr int kLockAttempts = 64;
  static constexpr uint32_t kPredWalkLimit = 1024;

  // Bounded seqlock acquisition: CAS version even -> odd.
  static bool lock_chunk(Chunk* ch, uint64_t* v);
  static void unlock_chunk(Chunk* ch, uint64_t v) {
    ch->version.store(v + 2, std::memory_order_release);
  }
  // True iff ch, held under its seqlock, covers x: unmarked, base <= x, and
  // the successor's base (stable while we hold ch — unlinking the successor
  // requires ch's seqlock) is > x.
  bool covers_locked(Chunk* ch, Ikey x) const;

  // Fresh or recycled chunk, exclusively owned (unlinked); nullptr when the
  // allocator mutex is contended or the table is exhausted (caller skips).
  Chunk* alloc_chunk();
  void free_chunk(Chunk* ch);

  // Lock the chunk covering x (hint first, one fresh find on a miss);
  // nullptr — with the skip counted — when locking or coverage fails.
  Chunk* lock_covering(Ikey x, uint32_t hintw, uint64_t* v, StepCounters& c);
  // Split the full, locked chunk ch; returns the (locked) half that covers
  // x with its version handle in *v, or nullptr when allocation failed (ch
  // is then unlocked).  The other half ends the call unlocked.
  Chunk* split_locked(Chunk* ch, uint64_t* v, Ikey x, StepCounters& c);
  // Move ch's few survivors into its predecessor, mark ch and unlink it
  // (DESIGN.md §7.3).  Called unlocked; re-validates everything under the
  // pred-then-victim seqlocks and gives up on any contention or refill.
  void maybe_merge(Chunk* ch, StepCounters& c);

  std::atomic<Chunk*> slabs_[kMaxSlabs];
  std::atomic<uint32_t> allocated_{0};  // next never-used id
  std::mutex alloc_mu_;
  std::vector<uint32_t> free_ids_;

  Chunk* head_ = nullptr;  // id 0, base 0, never merged away
  std::atomic<uint64_t> chunks_live_{0};
  std::atomic<uint64_t> keys_live_{0};
  std::atomic<uint64_t> skips_{0};
};

}  // namespace skiptrie
