// Truncated lock-free skiplist engine (paper §2–§3).
//
// Levels 0..top_level each form a sorted Harris-style linked list with
// logical deletion (mark in the node's own `next` word), back pointers for
// recovery, and per-tower `stop` flags that halt concurrent raising when a
// delete claims the tower.  The top level additionally maintains the
// doubly-linked list of the paper's §3: `prev` guide pointers installed by
// fixPrev (Alg. 1) and repaired by toplevelDelete (Alg. 2).
//
// The same engine powers both the SkipTrie's truncated skiplist
// (top_level = ceil(log2 B), i.e. log log u) and the full-height baseline
// skiplist (top_level ≈ log m) — the paper's comparison target.
//
// The engine is a template over KeyTraits (DESIGN.md §6): search keys are
// the traits' ikey word (uint64_t for U64Traits — the seed behavior, byte
// for byte — or u128 for Bytes16Traits), while every mutable link stays a
// tagged 64-bit pointer word.  `using SkipListEngine =
// BasicSkipListEngine<U64Traits>` keeps the historical name for the fast
// path; member definitions live in engine.cpp with explicit instantiations
// for both shipped traits.
//
// Concurrency contract: every public method must run under an
// EbrDomain::Guard on ctx.ebr (guards are reentrant; the SkipTrie wrapper
// pins once per operation).  Node storage comes from a type-stable
// SlabArena; see DESIGN.md §3.3 for why stale guide pointers are safe.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/key_traits.h"
#include "dcss/dcss.h"
#include "reclaim/arena.h"
#include "skiplist/leaf.h"
#include "skiplist/node.h"

namespace skiptrie {

template <typename Traits>
class BasicDescentCursor;

template <typename Traits>
class BasicSkipListEngine {
 public:
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using Cursor = BasicDescentCursor<Traits>;

  static constexpr uint32_t kMaxLevels = 40;  // supports the log-m baseline

  // top_level: index of the highest level (inclusive).
  BasicSkipListEngine(DcssContext ctx, SlabArena& arena, uint32_t top_level);
  ~BasicSkipListEngine();

  BasicSkipListEngine(const BasicSkipListEngine&) = delete;
  BasicSkipListEngine& operator=(const BasicSkipListEngine&) = delete;

  struct Bracket {
    Node_t* left;
    Node_t* right;
  };

  struct InsertResult {
    Node_t* root = nullptr;  // level-0 node; nullptr if the key was present
    Node_t* top = nullptr;   // top-level node if the tower reached top_level
    // CAS-fallback only: a top-level node we linked, then marked and
    // unlinked because a delete had already claimed the tower (DESIGN.md
    // §3.5(5)).  The caller must run the trie sweep for it, then
    // retire_node() it — while linked it may have entered the trie.
    Node_t* undone_top = nullptr;
    bool inserted = false;
  };

  struct EraseResult {
    bool erased = false;
    Node_t* top = nullptr;       // top-level node if one was removed
    Node_t* top_left = nullptr;  // top-level left hint for the trie sweep
    // Tower nodes this operation owns (mark-CAS winner); retire after the
    // trie sweep via retire_tower().
    Node_t* owned[kMaxLevels + 1];
    uint32_t owned_count = 0;
  };

  uint32_t top_level() const { return top_; }
  Node_t* head(uint32_t level) const { return head_[level]; }
  Node_t* tail() const { return tail_; }
  const DcssContext& ctx() const { return ctx_; }

  // The paper's listSearch(x, start) at a given level: returns (left, right)
  // with left.ikey < x <= right.ikey such that left was unmarked and
  // left.next == right at some point during the call; unlinks marked nodes
  // it crosses.  `start` is only a hint — it is validated and the search
  // falls back to the level head when the hint is unusable (stale guides,
  // poisoned storage, wrong level).
  Bracket list_search(Ikey x, Node_t* start, uint32_t level);

  // Descend from `start` (any level; validated) to level 0, returning the
  // level-0 bracket.  If hints != nullptr it receives the per-level left
  // nodes (size must be >= top_level()+1).  Never chunk-terminated: this is
  // the full per-level descent the write paths consume.
  Bracket descend(Ikey x, Node_t* start, Node_t** hints = nullptr);

  // Insert ikey with tower height `height` (0..top_level), starting the
  // search from `start`.  Duplicate detection is exact at level 0.
  InsertResult insert(Ikey x, Node_t* start, uint32_t height);

  // Delete ikey, starting from `start`.  Claims the tower via the root's
  // stop word, then removes the tower top-down (paper Alg. 2 / §2).
  EraseResult erase(Ikey x, Node_t* start);

  // --- Cursor entry points (DESIGN.md §3.6) -------------------------------
  // The descent seam the batch API and every single-key read go through,
  // built on BasicDescentCursor (skiplist/cursor.h): a resumable per-level
  // bracket position.  A warm cursor whose retained bracket still contains
  // x enters the descent at the lowest such level; a cold cursor (or a
  // failed reuse) calls `fallback(env, x)` for the start node (nullptr
  // fallback means the top-level head) — for the SkipTrie that fallback is
  // the x-fast trie's pred_start.
  //
  // cold_min_level bounds how low a warm entry may go before some descent
  // has entered at the top: the batched write streams pass top_level() (the
  // raise and tower-sweep phases consume hints at every level, and a batch
  // must keep every retained row a real bracket rather than a bare level
  // head — see cursor.h).
  using StartFn = Node_t* (*)(void* env, Ikey x);

  Bracket cursor_descend(Cursor& cur, Ikey x, StartFn fallback, void* env);
  InsertResult cursor_insert(Cursor& cur, Ikey x, uint32_t height,
                             uint32_t cold_min_level, StartFn fallback,
                             void* env);
  EraseResult cursor_erase(Cursor& cur, Ikey x, StartFn fallback, void* env);

  // Single-key read: one cold cursor through cursor_descend, so a read
  // takes the chunk-terminated path whenever chunking is on.
  Bracket locate(Ikey x, StartFn fallback, void* env);

  // The calling thread's persistent cursor for this engine (keyed by the
  // engine's never-reused owner id; DESIGN.md §4.2).  Used by the batch API
  // so consecutive batches resume where the last one left off.
  Cursor& cursor();

  // Leaf chunking (DESIGN.md §7): read descents stop log2(K) levels above
  // level 0 and finish through a chunk scan + validating list_search; writers
  // maintain the chunk index post-linearization.  Off (the seed layout)
  // reproduces per-level step counts exactly.  Not thread-safe against
  // concurrent operations — configure before sharing.
  void enable_leaf_chunking(bool on);
  bool leaf_chunking_enabled() const { return chunks_ != nullptr; }
  // The chunk manager, nullptr when chunking is off (structure_stats,
  // validation, tests).
  LeafChunkManager<Traits>* leaf_chunks() const { return chunks_.get(); }

  // Algorithm 1.  Installs node.prev via DCSS guarded on the predecessor
  // remaining unmarked and adjacent; sets node.ready on exit.
  void fix_prev(Node_t* hint, Node_t* node);

  // Helper used by the trie's delete sweep (Alg. 7 line 16): propagate
  // right's mark into its prev word, or repair right.prev = left.
  void make_done(Node_t* left, Node_t* right);

  // Walk left from `from` until reaching a node with ikey < x, following
  // back pointers on marked nodes and prev pointers otherwise (Alg. 4 body).
  // Falls back to the top-level head when guides dead-end.
  Node_t* walk_left(Ikey x, Node_t* from);

  // Retire an owned tower (from EraseResult) after any trie sweep.
  void retire_owned(const EraseResult& r);
  // Retire a single never-published or owned node.
  void retire_node(Node_t* n);

  // --- Introspection (tests / benches; not linearizable snapshots) ---
  // First interior node at `level` (skips marked), nullptr when empty.
  Node_t* first_at(uint32_t level) const;
  // Next interior node after n at its level (skips marked).
  Node_t* next_at(Node_t* n) const;
  size_t approx_bytes() const { return arena_.bytes_reserved(); }

  // Allocate + initialize an interior node (exposed for the baseline).
  Node_t* make_node(Ikey ikey, uint32_t level, uint32_t orig_height,
                    Node_t* down, Node_t* root);

 private:
  friend class BasicDescentCursor<Traits>;

  enum class RaiseStatus {
    kOk,                   // linked at this level
    kStoppedUnpublished,   // not linked (or undone and already retired)
    kStoppedPublished,     // top-level CAS-fallback undo: caller must
                           // trie-sweep then retire the marked node
  };

  bool usable_start(Node_t* n, Ikey x, uint32_t level) const;
  // Validate `cur` as a descent start; falls back to the top-level head
  // (counting a restart).  Returns the level the descent begins at.
  uint32_t resolve_start(Ikey x, Node_t*& cur);
  // Core descent loop from (cur, lvl) down to level `floor`: fills hints[l]
  // for every traversed level (callers pre-fill untraversed levels) and
  // records every traversed bracket into the cursor's rows (when
  // rec != nullptr; hints is then rec's own left array).
  Bracket descend_from(Ikey x, Node_t* cur, uint32_t lvl, Node_t** hints,
                       Cursor* rec = nullptr, uint32_t floor = 0);
  // Chunk-terminated read descent (DESIGN.md §7.2): the body behind
  // cursor_descend when chunking is on.  Resolves a level-0 start hint
  // through the cursor's retained state or a descent stopped at
  // chunk_entry_, then finishes with a validating list_search from the
  // hinted node.
  Bracket chunked_read(Cursor& cur, Ikey x, StartFn fallback, void* env);
  // Post-descent bodies shared by the plain and cursor entry points.
  InsertResult insert_from(Ikey x, uint32_t height, Node_t** hints,
                           Bracket b);
  EraseResult erase_from(Ikey x, Node_t** hints, Bracket b0);
  // Marks n (setting back to back_hint first).  Returns true iff this call's
  // CAS performed the unmarked->marked transition (ownership for retiring).
  bool mark_node(Node_t* n, Node_t* back_hint);
  void set_prev_mark(Node_t* n);
  // Raise the tower one level; stopped when claimed or a same-key node
  // exists at the level.
  RaiseStatus raise_level(Node_t* root, Node_t* nnode, Ikey x, uint32_t lvl,
                          Node_t*& hint);
  // Find the tower node of `root` at `level` (walking equal-key runs);
  // nullptr if not present.
  Node_t* find_tower_node(Ikey x, Node_t* root, uint32_t level, Node_t*& left);

  DcssContext ctx_;
  SlabArena& arena_;
  const uint32_t top_;
  std::unique_ptr<LeafChunkManager<Traits>> chunks_;  // null = chunking off
  // Level a chunk-terminated read may stop descending at: one chunk indexes
  // ~K keys, the span of ~log2(K) skiplist levels.
  uint32_t chunk_entry_ = 0;
  const uint64_t owner_;  // registry key for tls_cursor (DESIGN.md §4.2)
  Node_t* head_[kMaxLevels + 1];
  Node_t* tail_;
};

// The historical u64 fast-path names.
using SkipListEngine = BasicSkipListEngine<U64Traits>;

}  // namespace skiptrie
