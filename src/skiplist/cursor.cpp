#include "skiplist/cursor.h"

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "dcss/dcss.h"

namespace skiptrie {

namespace {
// A redescent may enter from the retained top row instead of the fallback
// (skipping the SkipTrie's hash probes) — but only for short jumps: the
// walk right from the retained position crosses one top node per top gap,
// so beyond a few gaps the fallback's O(log log u) probes are cheaper.  The
// jump length in gaps is estimated from the recorded top bracket's own
// width (right - left ikeys), the one sample of top spacing the cursor has.
constexpr uint64_t kTopEntryMaxGaps = 8;
}  // namespace

template <typename Traits>
auto BasicDescentCursor<Traits>::seek(Ikey x, uint32_t cold_min_level,
                                      StartFn fallback, void* env,
                                      uint32_t stop_level,
                                      uint32_t* stopped_at) -> Bracket {
  Engine& e = *eng_;
  const uint32_t top = e.top_level();
  auto& c = tls_counters();

  const bool was_warm = warm_;
  warm_ = true;
  // Rows are only guaranteed to hold real brackets — rather than the bare
  // level heads a cold partial descent leaves above its entry — once some
  // descent has entered at the top.  Until then, entries stay at or above
  // cold_min_level so a write path's raise/tower-sweep never consumes a
  // bare-head hint (which would scan whole levels); afterwards any entry
  // level is safe and warm seeks run unrestricted.
  const uint32_t eff_min = rows_real_ ? 0 : cold_min_level;

  const auto row_validates = [&](uint32_t l) {
    Node_t* n = left_[l];
    const NodeKind k = n->kind();
    if (k != NodeKind::kInterior && k != NodeKind::kHead) return false;
    if (n->level() != l) return false;
    if (n->ikey() != left_ikey_[l]) return false;
    return !is_marked(dcss_read(n->next));
  };
  // Run the descent from (start, lvl).  A cold seek head-fills EVERY row
  // first (the descent then overwrites the rows it traverses): this covers
  // rows above the entry and rows below a stop_level floor, so no row is
  // ever left holding garbage a later warm screen would dereference.  Any
  // entry at the top makes every row real.
  const auto enter = [&](Node_t* start, uint32_t lvl) {
    const uint32_t floor = lvl < stop_level ? lvl : stop_level;
    if (stopped_at != nullptr) *stopped_at = floor;
    if (lvl == top) rows_real_ = true;
    if (!was_warm) {
      for (uint32_t l = 0; l <= top; ++l) {
        left_[l] = e.head_[l];
        left_ikey_[l] = Ikey(0);
        right_ikey_[l] = Ikey(0);
      }
    }
    return e.descend_from(x, start, lvl, left_, this, floor);
  };

  if (was_warm) {
    // Reuse: the lowest retained row (at or above eff_min) whose bracket
    // still contains x and whose left node passes the identity screen
    // (DESIGN.md §3.6 — kind, level, ikey, unmarked).  Containment against
    // the *recorded* right ikey plays the adjacency role: everything
    // between left and x at seek time is at most what has been inserted
    // into the bracket since it was recorded.
    for (uint32_t l = eff_min; l <= top; ++l) {
      if (!(left_ikey_[l] < x && x <= right_ikey_[l])) continue;
      if (!row_validates(l)) continue;
      c.cursor_reuses++;
      return enter(left_[l], l);
    }
    c.cursor_redescends++;
    // Every bracket went stale, but on an ascending stream the retained
    // *top* row is still a position left of x — enter there and walk
    // right, skipping the fallback (for the SkipTrie: every hash probe
    // after the batch's first key).  Amortized over a batch, the top walk
    // crosses each top-level node of the swept range once.
    if (top_entry_usable(x) && row_validates(top)) {
      return enter(left_[top], top);
    }
  }
  Node_t* start = fallback != nullptr ? fallback(env, x) : e.head_[top];
  const uint32_t lvl = e.resolve_start(x, start);
  return enter(start, lvl);
}

template <typename Traits>
bool BasicDescentCursor<Traits>::top_entry_usable(Ikey x) const {
  const uint32_t top = eng_->top_level();
  if (!(left_ikey_[top] < x)) return false;  // descending/jumped-back stream
  const Ikey width = right_ikey_[top] - left_ikey_[top];
  if (width == Ikey(0)) return false;  // never-traversed row (0, 0)
  return (x - left_ikey_[top]) / width <= Ikey(kTopEntryMaxGaps);
}

template <typename Traits>
void BasicDescentCursor<Traits>::note_insert(
    const typename Engine::InsertResult& r, Ikey x, uint32_t height) {
  if (!r.inserted) return;  // duplicate: the seek already recorded the rows
  // The new level-0 node is the tightest possible left anchor for the next
  // ascending key; the old right bound still holds (the tower was linked
  // strictly before it).
  left_[0] = r.root;
  left_ikey_[0] = x;
  const uint32_t top = eng_->top_level();
  for (uint32_t l = 1; l <= height && l <= top; ++l) {
    // The raise loop advanced left_[l] in place (hints()); re-stamp the
    // recorded ikey so the reuse screen and the identity validation agree.
    // The re-read is safe (type-stable storage) and self-consistent: a
    // recycled node yields an ikey that its own validation re-checks.
    left_ikey_[l] = left_[l]->ikey();
  }
}

template <typename Traits>
void BasicDescentCursor<Traits>::note_erase(Ikey x) {
  (void)x;
  // The tower sweep advanced the hints at every level it searched; re-stamp
  // their ikeys.  Rows whose right bound *was* the erased key keep
  // right_ikey_ == x: containment for any later key fails there and the
  // seek enters one level up — the natural cost of deleting one's own
  // bracket edge.
  const uint32_t top = eng_->top_level();
  for (uint32_t l = 0; l <= top; ++l) {
    left_ikey_[l] = left_[l]->ikey();
  }
}

// --- Owner ids and the dead-owner journal -------------------------------------
//
// Owner ids are never reused, so the registry below keys slots by owner and
// hands out stable objects.  To keep a thread's registry from growing with
// every engine it has *ever* touched (bench_suite's main thread prefills
// hundreds of short-lived structures), a destroyed engine appends its owner
// id here and each registry drops matching slots lazily on its next lookup.
// The journal itself is append-only (8 bytes per engine ever destroyed) and
// each thread only scans the suffix it has not yet seen.  One journal serves
// the registries of every traits instantiation (owner ids are global).

namespace {

std::mutex dead_owner_mu;
std::vector<uint64_t> dead_owner_journal;
std::atomic<uint64_t> dead_owner_ver{0};

// Appends owners released since journal position `since` to `out` and
// returns the new position.
uint64_t dead_owners_since(uint64_t since, std::vector<uint64_t>& out) {
  std::lock_guard<std::mutex> lk(dead_owner_mu);
  out.assign(dead_owner_journal.begin() + static_cast<ptrdiff_t>(since),
             dead_owner_journal.end());
  return dead_owner_journal.size();
}

// Per-thread cursor registry: one stable slot per live engine the thread
// has touched, keyed by the never-reused owner id, growable, with
// move-toward-front promotion and a lazy sweep of the dead-owner journal
// (DESIGN.md §4.2).  A slot is never rebound while its owner lives, so
// cursors fetched for different engines never alias and a shard's stream
// state survives the thread visiting every other shard in between.  One
// registry per traits instantiation (owner ids never collide across
// instantiations, but the slot payloads are different types).
template <typename Traits>
struct CursorSlot {
  uint64_t owner = 0;
  std::unique_ptr<BasicDescentCursor<Traits>> cur;
};
template <typename Traits>
struct CursorRegistry {
  std::vector<CursorSlot<Traits>> slots;
  uint64_t seen_dead = 0;  // journal position already processed
  std::vector<uint64_t> scratch;
};

template <typename Traits>
CursorRegistry<Traits>& tl_cursor_reg() {
  thread_local CursorRegistry<Traits> reg;
  return reg;
}

template <typename Traits>
void sweep_dead_owners(CursorRegistry<Traits>& reg) {
  if (dead_owner_ver.load(std::memory_order_acquire) == reg.seen_dead) return;
  reg.seen_dead = dead_owners_since(reg.seen_dead, reg.scratch);
  for (const uint64_t dead : reg.scratch) {
    for (size_t i = 0; i < reg.slots.size(); ++i) {
      if (reg.slots[i].owner == dead) {
        reg.slots.erase(reg.slots.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
}

}  // namespace

uint64_t new_engine_owner() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void release_engine_owner(uint64_t owner) {
  std::lock_guard<std::mutex> lk(dead_owner_mu);
  dead_owner_journal.push_back(owner);
  dead_owner_ver.store(dead_owner_journal.size(), std::memory_order_release);
}

template <typename Traits>
BasicDescentCursor<Traits>& tls_cursor(uint64_t owner,
                                       BasicSkipListEngine<Traits>& engine) {
  CursorRegistry<Traits>& reg = tl_cursor_reg<Traits>();
  sweep_dead_owners(reg);
  for (size_t i = 0; i < reg.slots.size(); ++i) {
    if (reg.slots[i].owner == owner) {
      // Swapping slots moves only the owner word and the unique_ptr; the
      // cursor objects themselves never move, so held references stay
      // valid across promotions.
      if (i > 0) {
        std::swap(reg.slots[i], reg.slots[i - 1]);
        --i;
      }
      return *reg.slots[i].cur;
    }
  }
  CursorSlot<Traits> s;
  s.owner = owner;
  s.cur = std::make_unique<BasicDescentCursor<Traits>>(engine);
  reg.slots.push_back(std::move(s));
  return *reg.slots.back().cur;
}

template <typename Traits>
size_t tls_cursor_registry_size_of() {
  CursorRegistry<Traits>& reg = tl_cursor_reg<Traits>();
  sweep_dead_owners(reg);
  return reg.slots.size();
}

size_t tls_cursor_registry_size() {
  return tls_cursor_registry_size_of<U64Traits>();
}

template class BasicDescentCursor<U64Traits>;
template class BasicDescentCursor<Bytes16Traits>;
template DescentCursor& tls_cursor<U64Traits>(uint64_t, SkipListEngine&);
template BasicDescentCursor<Bytes16Traits>& tls_cursor<Bytes16Traits>(
    uint64_t, BasicSkipListEngine<Bytes16Traits>&);
template size_t tls_cursor_registry_size_of<U64Traits>();
template size_t tls_cursor_registry_size_of<Bytes16Traits>();

}  // namespace skiptrie
