// Per-thread operation step counters.
//
// The paper's headline result is a *step-complexity* bound
// (O(log log u + c_OI) expected amortized steps per operation), so the
// benchmark harness must be able to count steps, not just wall time.  Every
// potentially-shared-memory step of interest increments a thread-local
// counter; the harness snapshots counters around a measured phase and
// aggregates across threads.  Counting is branch-free increments on
// thread-local cache lines, cheap enough to leave enabled.
#pragma once

#include <cstdint>

namespace skiptrie {

struct StepCounters {
  uint64_t node_hops = 0;        // list-node traversal steps (all levels)
  // Fine-grained attribution of node_hops (see DESIGN.md §5.2).  Like the
  // probe attribution below, these do NOT enter search_steps()/
  // total_steps(): hops_top + hops_descent == node_hops always.
  uint64_t hops_top = 0;         // node_hops incurred at the engine's top level
  uint64_t hops_descent = 0;     // node_hops incurred below the top level
  uint64_t hash_probes = 0;      // hash-chain nodes visited (all find() calls)
  // Fine-grained attribution of hash_probes (see DESIGN.md §5.1).  These do
  // NOT enter search_steps()/total_steps() — they attribute work hash_probes
  // already counts, and adding them again would double count.  Note
  // probes_lookup counts lookup() calls only, while probes_chain covers
  // every find() caller (insert/erase paths too), so
  // probes_lookup + probes_chain == hash_probes only on read-only streams.
  uint64_t probes_lookup = 0;    // SplitOrderedMap::lookup() calls issued
  uint64_t probes_chain = 0;     // chain nodes visited beyond the first per
                                 // find(), any caller (constant-factor slack)
  uint64_t probes_binsearch = 0; // lookups issued by the x-fast binary
                                 // search over prefix lengths (~log B ideal)
  uint64_t hash_updates = 0;     // prefix hash-table insert/delete attempts
  uint64_t cas_attempts = 0;     // structural CAS attempts
  uint64_t cas_failures = 0;     // failed structural CAS
  uint64_t dcss_attempts = 0;    // DCSS attempts (descriptor installs)
  uint64_t dcss_guard_fails = 0; // DCSS aborted because the guard mismatched
  uint64_t dcss_helps = 0;       // descriptors completed on behalf of others
  uint64_t back_steps = 0;       // back-pointer follows (marked-node recovery)
  uint64_t prev_steps = 0;       // prev-pointer follows (top-level walk)
  uint64_t restarts = 0;         // validation-triggered restarts from a head
  uint64_t walk_fallbacks = 0;   // walk_left gave up (limit/dead-end) and
                                 // discarded its start hint for the top head
  uint64_t trie_level_ops = 0;   // x-fast-trie per-level update iterations
  uint64_t retired_nodes = 0;    // nodes handed to reclamation
  // Leaf-chunk attribution (schema v7, DESIGN.md §7.4).  bytes_touched is a
  // cache-line traffic model of the *list + leaf* layers: kCacheLine per
  // node hop / guide-pointer follow plus the lines a chunk scan actually
  // reads (hash-layer traffic is already a line count — hash_probes — and
  // is kept separate so the leaf-chunking delta stays directly readable).
  // Event/attribution counters: none of these enter search_steps()/
  // total_steps().
  uint64_t bytes_touched = 0;    // modeled cache-line bytes read by list/leaf
                                 // traversal (64 per hop/back/prev step plus
                                 // actual lines per chunk scan)
  uint64_t chunk_scans = 0;      // leaf-chunk in-array searches performed
  uint64_t chunk_splits = 0;     // leaf chunks split (full chunk, median cut)
  uint64_t chunk_merges = 0;     // leaf chunks drained and unlinked
  // Batched-operation attribution (schema v4, DESIGN.md §5.3).  Like the
  // probe/hop attribution these count events, not shared-memory steps, and
  // do NOT enter search_steps()/total_steps().
  uint64_t cursor_reuses = 0;     // warm DescentCursor seeks served from a
                                  // retained bracket (entered below the top)
  uint64_t cursor_redescends = 0; // warm seeks whose brackets all failed and
                                  // that re-entered from the top row or the
                                  // fallback start
  uint64_t batch_ops = 0;         // batch API calls issued (any size)
  uint64_t batch_keys = 0;        // keys processed through the batch API
  // Sharded-engine / service attribution (schema v5, DESIGN.md §5.4).
  // Event counters again: they tally routing and queueing activity, never
  // shared-memory search steps, and do NOT enter search_steps()/
  // total_steps() — a ShardedEngine at shards=1 must report exactly the
  // unsharded engine's step counts.
  uint64_t shard_batches = 0;     // per-shard sub-batches executed by the
                                  // split/merge protocol (DESIGN.md §4.3);
                                  // equals batch calls issued at shards=1
  uint64_t service_requests = 0;  // requests submitted to a Service queue
  uint64_t service_subtasks = 0;  // per-shard subtasks those requests split
                                  // into (>= service_requests)
  uint64_t queue_full_waits = 0;  // submissions that blocked on a full
                                  // bounded queue before enqueueing
  uint64_t queue_depth_sum = 0;   // sum over enqueues of the queue depth
                                  // observed at enqueue (depth_sum /
                                  // service_subtasks = mean depth)
  uint64_t queue_wait_ns = 0;     // ns between a subtask's enqueue and a
                                  // worker dequeuing it
  // Always zero; kept only because wallbench/src/main.cpp still reads them.
  uint64_t finger_hits = 0;
  uint64_t finger_misses = 0;
  uint64_t adapt_checks = 0;
  uint64_t promotions = 0;

  StepCounters& operator+=(const StepCounters& o);
  StepCounters operator-(const StepCounters& o) const;

  // Steps in the sense of the paper's bound: shared-memory accesses made
  // while searching (hops + probes + guide-pointer follows).
  uint64_t search_steps() const {
    return node_hops + hash_probes + back_steps + prev_steps;
  }
  uint64_t total_steps() const {
    return search_steps() + hash_updates + cas_attempts + dcss_attempts +
           trie_level_ops;
  }
};

// Cheap, always-current leaf-chunk totals (schema v7, DESIGN.md §7.4).
// Read from the chunk manager's atomic counters, so any thread may sample
// them mid-run — unlike structure_stats(), which walks the structure and is
// only meaningful at quiescence.  All zero when leaf chunking is off.
struct LeafLiveStats {
  uint64_t chunks = 0;    // live leaf chunks
  uint64_t keys = 0;      // keys currently indexed by those chunks
  uint32_t capacity = 0;  // key slots per chunk (traits-dependent)

  double avg_occupancy() const {
    const uint64_t slots = chunks * capacity;
    return slots == 0 ? 0.0 : static_cast<double>(keys) / slots;
  }
};

// Cheap, always-current structural totals.  Read from atomic counters
// maintained by the operation paths, so any thread may sample them mid-run
// — the driver's checkpoint seam charts the top-level population per run
// quarter from this.  Approximate under races by at most the number of
// in-flight operations; exact at quiescence.
struct StructureLiveStats {
  uint64_t keys = 0;        // current set size
  uint64_t top_count = 0;   // towers currently reaching the top level
};

// The calling thread's counters.  Distinct threads get distinct instances.
StepCounters& tls_counters();

// Snapshot/restore helpers for measurement phases.
inline StepCounters snapshot_counters() { return tls_counters(); }

}  // namespace skiptrie
