// Batched bulk-operation tests (DESIGN.md §3.6).
//
// Covers sequential equivalence against the single-key operations (sorted,
// unsorted and duplicate-bearing inputs, results reported in input order),
// the empty batch, the cursor-reuse attribution sums (schema v4 counters),
// the Config::use_cursor_batching ablation, the baseline's batch API, and
// — the regression PR 5 pinned — a concurrent erase retiring a node
// the batch cursor is parked on: the reuse screen must reject it and fall
// back without ever reading reclaimed-and-unmapped memory (run under
// -DSKIPTRIE_SANITIZE=address|thread).  Also pins the per-thread cursor
// registry contract (DESIGN.md §4.2): one stable cursor per live engine,
// swept when the engine is destroyed.
//
// The sequential suites are TYPED_TESTs over {U64Traits, Bytes16Traits}
// (DESIGN.md §6): under the sanitizer builds that is what certifies the
// wide instantiation's batch path end to end.  Wide keys are spread across
// both machine words (monotonically) so sorting, cursor brackets and
// predecessor arithmetic exercise genuine 128-bit compares.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "baseline/lockfree_skiplist.h"
#include "common/key_traits.h"
#include "common/stats.h"
#include "core/skiptrie.h"
#include "skiplist/cursor.h"

namespace skiptrie {
namespace {

template <typename Traits>
class TypedBatchTest : public ::testing::Test {
 protected:
  using Trie = BasicSkipTrie<Traits>;
  using K = typename Traits::key_type;

  // A universe wide enough that spread keys genuinely overflow 64 bits on
  // the wide traits; the u64 instantiation keeps the seed default (32).
  static Config cfg() {
    Config c;
    if constexpr (Traits::kMaxBits > 64) c.universe_bits = 120;
    return c;
  }

  // Strictly monotone embedding of a small test key into the universe.
  static K key(uint64_t k) {
    if constexpr (Traits::kMaxBits > 64) {
      return (K(k) << 56) | K(k);
    } else {
      return K(k);
    }
  }
  static std::vector<K> lift(const std::vector<uint64_t>& v) {
    std::vector<K> out;
    out.reserve(v.size());
    for (const uint64_t k : v) out.push_back(key(k));
    return out;
  }
  static std::vector<uint64_t> keys_mod(size_t n, uint64_t mul, uint64_t mod) {
    std::vector<uint64_t> k(n);
    for (size_t i = 0; i < n; ++i) k[i] = (i * mul) % mod;
    return k;
  }
};

using BatchTraits = ::testing::Types<U64Traits, Bytes16Traits>;
TYPED_TEST_SUITE(TypedBatchTest, BatchTraits);

TYPED_TEST(TypedBatchTest, SortedEquivalenceAgainstPerKeyOps) {
  using Fix = TypedBatchTest<TypeParam>;
  using K = typename Fix::K;
  typename Fix::Trie batched(Fix::cfg()), plain(Fix::cfg());
  std::vector<K> keys(1024);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = Fix::key(i * 37);

  std::vector<uint8_t> r_ins(keys.size());
  EXPECT_EQ(batched.insert_batch(keys, r_ins.data()), keys.size());
  for (const K& k : keys) EXPECT_TRUE(plain.insert(k));
  for (size_t i = 0; i < keys.size(); ++i) EXPECT_TRUE(r_ins[i]) << i;
  EXPECT_EQ(batched.size(), plain.size());

  // Membership and predecessor agree key for key, including misses.
  std::vector<K> probes(2048);
  for (size_t i = 0; i < probes.size(); ++i) probes[i] = Fix::key(i * 19 + 7);
  std::vector<uint8_t> r_has(probes.size());
  std::vector<std::optional<K>> r_pred(probes.size());
  batched.contains_batch(probes, r_has.data());
  batched.predecessor_batch(probes, r_pred.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(r_has[i]), plain.contains(probes[i])) << i;
    EXPECT_TRUE(r_pred[i] == plain.predecessor(probes[i])) << i;
  }

  // Erase every third key through the batch API, the rest per key.
  std::vector<K> third;
  for (size_t i = 0; i < keys.size(); i += 3) third.push_back(keys[i]);
  std::vector<uint8_t> r_er(third.size());
  EXPECT_EQ(batched.erase_batch(third, r_er.data()), third.size());
  for (const K& k : third) EXPECT_TRUE(plain.erase(k));
  for (size_t i = 0; i < third.size(); ++i) EXPECT_TRUE(r_er[i]) << i;
  EXPECT_EQ(batched.size(), plain.size());
  for (const K& k : keys) {
    EXPECT_EQ(batched.contains(k), plain.contains(k));
  }
}

TYPED_TEST(TypedBatchTest, UnsortedAndDuplicateInputsReportInInputOrder) {
  using Fix = TypedBatchTest<TypeParam>;
  using K = typename Fix::K;
  typename Fix::Trie t(Fix::cfg());
  // Unsorted with duplicates: 40 appears at indices 1 and 3, 10 at 2 and 5.
  const std::vector<K> keys = Fix::lift({90, 40, 10, 40, 70, 10, 0});
  std::vector<uint8_t> r(keys.size());
  EXPECT_EQ(t.insert_batch(keys, r.data()), 5u);
  // First occurrence of each duplicate wins (stable sort).
  EXPECT_TRUE(r[0]);
  EXPECT_TRUE(r[1]);
  EXPECT_TRUE(r[2]);
  EXPECT_FALSE(r[3]);
  EXPECT_TRUE(r[4]);
  EXPECT_FALSE(r[5]);
  EXPECT_TRUE(r[6]);
  EXPECT_EQ(t.size(), 5u);

  std::vector<std::optional<K>> pred(keys.size());
  EXPECT_EQ(t.predecessor_batch(keys, pred.data()), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(pred[i].has_value()) << i;
    EXPECT_TRUE(*pred[i] == keys[i]) << i;  // every key is present
  }
  // Strictly-below-minimum probe has no predecessor and must say so in
  // input order even though it sorts first.
  const std::vector<K> probes = Fix::lift({95, 40, 5, 0});
  std::vector<std::optional<K>> p2(probes.size());
  EXPECT_EQ(t.predecessor_batch(probes, p2.data()), probes.size());
  EXPECT_TRUE(*p2[0] == Fix::key(90));
  EXPECT_TRUE(*p2[1] == Fix::key(40));
  EXPECT_TRUE(*p2[2] == Fix::key(0));
  EXPECT_TRUE(*p2[3] == Fix::key(0));

  // Duplicate erases: one success, reported on the first occurrence.
  const std::vector<K> er = Fix::lift({40, 40, 90});
  std::vector<uint8_t> re(er.size());
  EXPECT_EQ(t.erase_batch(er, re.data()), 2u);
  EXPECT_TRUE(re[0]);
  EXPECT_FALSE(re[1]);
  EXPECT_TRUE(re[2]);
  EXPECT_EQ(t.size(), 3u);
}

TYPED_TEST(TypedBatchTest, EmptyBatchIsANoOp) {
  using Fix = TypedBatchTest<TypeParam>;
  typename Fix::Trie t(Fix::cfg());
  t.insert(Fix::key(5));
  tls_counters() = StepCounters{};
  EXPECT_EQ(t.insert_batch(nullptr, 0), 0u);
  EXPECT_EQ(t.erase_batch(nullptr, 0), 0u);
  EXPECT_EQ(t.contains_batch(nullptr, 0), 0u);
  EXPECT_EQ(t.predecessor_batch(nullptr, 0), 0u);
  EXPECT_EQ(tls_counters().batch_ops, 0u);
  EXPECT_EQ(tls_counters().batch_keys, 0u);
  EXPECT_TRUE(t.contains(Fix::key(5)));
  tls_counters() = StepCounters{};
}

TYPED_TEST(TypedBatchTest, CursorReuseAttributionSums) {
  using Fix = TypedBatchTest<TypeParam>;
  using K = typename Fix::K;
  // A fresh thread pins the accounting: tls cursors are thread-local, so the first seek of the first batch is deterministically
  // cold (counts neither reuse nor redescend).
  std::thread probe([] {
    typename Fix::Trie t(Fix::cfg());
    for (uint64_t k = 0; k < 512; ++k) t.insert(Fix::key(k * 4));

    const std::vector<K> batch = Fix::lift(Fix::keys_mod(256, 4, 2048));
    std::vector<K> sorted = batch;
    std::sort(sorted.begin(), sorted.end());

    tls_counters() = StepCounters{};
    t.contains_batch(sorted);
    StepCounters c = tls_counters();
    EXPECT_EQ(c.batch_ops, 1u);
    EXPECT_EQ(c.batch_keys, sorted.size());
    // Every warm seek is exactly one of reuse / redescend; the cold first
    // seek is neither.
    EXPECT_EQ(c.cursor_reuses + c.cursor_redescends, sorted.size() - 1);
    // A dense sorted sweep must actually reuse (the amortization claim).
    EXPECT_GT(c.cursor_reuses, sorted.size() / 2);

    // The thread's cursor persists across batch calls: the second batch has
    // no cold seek at all.
    tls_counters() = StepCounters{};
    t.contains_batch(sorted);
    c = tls_counters();
    EXPECT_EQ(c.cursor_reuses + c.cursor_redescends, sorted.size());

    // Write batches follow the same ledger.
    const std::vector<uint64_t> fresh = Fix::keys_mod(128, 4, 8192);
    std::vector<K> ins;
    for (const uint64_t k : fresh) ins.push_back(Fix::key(k + 2048 * 4));
    tls_counters() = StepCounters{};
    t.insert_batch(ins);
    t.erase_batch(ins);
    c = tls_counters();
    EXPECT_EQ(c.batch_ops, 2u);
    EXPECT_EQ(c.batch_keys, 2 * ins.size());
    EXPECT_EQ(c.cursor_reuses + c.cursor_redescends, 2 * ins.size());
    tls_counters() = StepCounters{};
  });
  probe.join();
}

TYPED_TEST(TypedBatchTest, SingleKeyOpsProduceNoBatchCounters) {
  using Fix = TypedBatchTest<TypeParam>;
  typename Fix::Trie t(Fix::cfg());
  tls_counters() = StepCounters{};
  for (uint64_t k = 0; k < 256; ++k) t.insert(Fix::key(k * 3));
  for (uint64_t k = 0; k < 256; ++k) t.contains(Fix::key(k * 3));
  for (uint64_t k = 0; k < 64; ++k) t.erase(Fix::key(k * 3));
  const StepCounters& c = tls_counters();
  EXPECT_EQ(c.batch_ops, 0u);
  EXPECT_EQ(c.batch_keys, 0u);
  EXPECT_EQ(c.cursor_reuses, 0u);
  EXPECT_EQ(c.cursor_redescends, 0u);
  tls_counters() = StepCounters{};
}

TYPED_TEST(TypedBatchTest, AblationMatchesResultsAndStaysCold) {
  using Fix = TypedBatchTest<TypeParam>;
  using K = typename Fix::K;
  Config off_cfg = Fix::cfg();
  off_cfg.use_cursor_batching = false;
  typename Fix::Trie off(off_cfg);
  typename Fix::Trie on(Fix::cfg());

  const std::vector<K> keys = Fix::lift(Fix::keys_mod(777, 7919, 16384));
  std::vector<uint8_t> ra(keys.size()), rb(keys.size());
  EXPECT_EQ(off.insert_batch(keys, ra.data()), on.insert_batch(keys, rb.data()));
  EXPECT_EQ(ra, rb);

  const std::vector<K> probes = Fix::lift(Fix::keys_mod(999, 31, 16384));
  std::vector<uint8_t> ha(probes.size()), hb(probes.size());
  EXPECT_EQ(off.contains_batch(probes, ha.data()),
            on.contains_batch(probes, hb.data()));
  EXPECT_EQ(ha, hb);
  std::vector<std::optional<K>> pa(probes.size()), pb(probes.size());
  EXPECT_EQ(off.predecessor_batch(probes, pa.data()),
            on.predecessor_batch(probes, pb.data()));
  EXPECT_TRUE(pa == pb);

  std::vector<uint8_t> ea(keys.size()), eb(keys.size());
  EXPECT_EQ(off.erase_batch(keys, ea.data()), on.erase_batch(keys, eb.data()));
  EXPECT_EQ(ea, eb);
  EXPECT_EQ(off.size(), on.size());

  // The ablated structure's batches never touch the cursor.
  tls_counters() = StepCounters{};
  off.insert_batch(keys);
  EXPECT_EQ(tls_counters().cursor_reuses, 0u);
  EXPECT_EQ(tls_counters().cursor_redescends, 0u);
  EXPECT_GT(tls_counters().batch_ops, 0u);  // API-level counters still tally
  tls_counters() = StepCounters{};
}

std::vector<uint64_t> keys_mod(size_t n, uint64_t mul, uint64_t mod) {
  std::vector<uint64_t> k(n);
  for (size_t i = 0; i < n; ++i) k[i] = (i * mul) % mod;
  return k;
}

TEST(BatchTest, BaselineBatchMatchesPerKeyOps) {
  LockFreeSkipList batched(12), plain(12);
  const std::vector<uint64_t> keys = keys_mod(600, 2654435761u, 100000);
  std::vector<uint8_t> r(keys.size());
  const size_t inserted = batched.insert_batch(keys, r.data());
  EXPECT_EQ(inserted, batched.size());
  for (const uint64_t k : keys) plain.insert(k);
  EXPECT_EQ(batched.size(), plain.size());

  const std::vector<uint64_t> probes = keys_mod(500, 131, 100000);
  std::vector<uint8_t> h(probes.size());
  std::vector<std::optional<uint64_t>> p(probes.size());
  batched.contains_batch(probes, h.data());
  batched.predecessor_batch(probes, p.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(h[i]), plain.contains(probes[i])) << i;
    EXPECT_EQ(p[i], plain.predecessor(probes[i])) << i;
  }

  // Ablation setter mirrors Config::use_cursor_batching.
  LockFreeSkipList abl(12);
  abl.set_cursor_batching(false);
  std::vector<uint8_t> r2(keys.size());
  EXPECT_EQ(abl.insert_batch(keys, r2.data()), plain.size());
  EXPECT_EQ(r, r2);
  EXPECT_EQ(abl.erase_batch(keys), plain.size());
  EXPECT_EQ(abl.size(), 0u);
}

// --- The batch-vs-delete regression ----------------------------------------
//
// Thread A streams batched reads over a hot sorted range, so its persistent
// cursor keeps brackets onto the hot nodes between EBR pins (each batch key
// re-pins).  Thread B erases and reinserts exactly those keys while
// churning a cold range hard enough to drive grace periods, so the nodes
// A's cursor retains are retired, poisoned and recycled under A's feet.
// A's batches must stay correct (the reuse screen rejects dead rows and
// falls back) and the sanitizers must see no invalid access.

TEST(BatchInvalidationTest, ConcurrentEraseRetiresCursorNodes) {
  SkipTrie t;
  constexpr uint64_t kHot = 128;  // hot keys: 0, 8, .., 1016
  constexpr uint64_t kColdBase = 1 << 16;
  for (uint64_t k = 0; k < kHot; ++k) t.insert(k * 8);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};

  std::thread reader([&] {
    std::vector<uint64_t> batch(kHot);
    for (uint64_t k = 0; k < kHot; ++k) batch[k] = k * 8 + 3;
    std::vector<std::optional<uint64_t>> pred(batch.size());
    std::vector<uint8_t> has(batch.size());
    while (!stop.load(std::memory_order_relaxed)) {
      t.predecessor_batch(batch, pred.data());
      for (size_t i = 0; i < batch.size(); ++i) {
        // Hot keys churn, but any answer must be a plausible predecessor:
        // <= the probe, and aligned with some key ever inserted.
        if (pred[i].has_value() &&
            (*pred[i] > batch[i] ||
             (*pred[i] % 8 != 0 && *pred[i] < kColdBase))) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
      t.contains_batch(batch, has.data());
      for (size_t i = 0; i < batch.size(); ++i) {
        if (has[i]) bad.fetch_add(1, std::memory_order_relaxed);  // +3 keys
      }
    }
  });

  std::thread churner([&] {
    // Delete/reinsert the hot keys (retiring exactly the nodes the
    // reader's cursor retains) and churn a cold range to push epochs
    // forward so retired nodes actually get poisoned and recycled.
    std::vector<uint64_t> half;
    for (uint64_t k = 0; k < kHot; k += 2) half.push_back(k * 8);
    for (int round = 0; round < 300; ++round) {
      t.erase_batch(half);
      for (uint64_t i = 0; i < 256; ++i) {
        t.insert(kColdBase + (round * 256 + i) % 4096);
        t.erase(kColdBase + (round * 256 + i + 2048) % 4096);
      }
      t.insert_batch(half);
    }
    stop.store(true, std::memory_order_relaxed);
  });

  churner.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0u);

  // Quiesced: all hot keys are present again and batched queries are exact.
  std::vector<uint64_t> batch(kHot);
  for (uint64_t k = 0; k < kHot; ++k) batch[k] = k * 8;
  std::vector<uint8_t> has(batch.size());
  EXPECT_EQ(t.contains_batch(batch, has.data()), kHot);
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_TRUE(has[i]) << i;
}

// --- Cursor registry (DESIGN.md §4.2) ---------------------------------------
//
// An earlier registry held a fixed 4 slots per thread and recycled them
// round-robin, rebinding the DescentCursor objects in place.  One thread
// touching more than 4 engines — the steady state of a sharded split
// batch — silently retargeted references an outer frame still held
// (aliasing).  These tests pin the replacement contract: one stable object
// per live owner, distinct across owners, swept only when the owner's
// engine is destroyed.

TEST(RegistryAliasingTest, CursorsStayDistinctAndStableAcrossManyOwners) {
  SlabArena arena(sizeof(Node), kCacheLine, 1024);
  EbrDomain ebr;
  DcssContext ctx{&ebr, DcssMode::kDcss};
  constexpr int kEngines = 8;  // more than the old registry could hold
  std::vector<std::unique_ptr<SkipListEngine>> engines;
  for (int i = 0; i < kEngines; ++i) {
    engines.push_back(std::make_unique<SkipListEngine>(ctx, arena, 3));
  }
  std::thread probe([&] {
    DescentCursor* cursors[kEngines];
    for (int i = 0; i < kEngines; ++i) cursors[i] = &engines[i]->cursor();
    for (int i = 0; i < kEngines; ++i) {
      for (int j = i + 1; j < kEngines; ++j) {
        EXPECT_NE(cursors[i], cursors[j]) << i << "," << j;
      }
    }
    // A split batch visits shards round-robin; every revisit must find the
    // shard's own cursor (stream state intact), not a recycled slot.
    for (int round = 0; round < 3; ++round) {
      for (int i = kEngines - 1; i >= 0; --i) {
        EXPECT_EQ(&engines[i]->cursor(), cursors[i]) << i;
      }
    }
  });
  probe.join();
}

TEST(RegistryAliasingTest, DeadOwnersAreSweptFromTheCursorRegistry) {
  std::thread probe([] {
    const size_t c0 = tls_cursor_registry_size();
    {
      SlabArena arena(sizeof(Node), kCacheLine, 2048);
      EbrDomain ebr;
      DcssContext ctx{&ebr, DcssMode::kDcss};
      std::vector<std::unique_ptr<SkipListEngine>> engines;
      for (int i = 0; i < 6; ++i) {
        engines.push_back(std::make_unique<SkipListEngine>(ctx, arena, 3));
        engines.back()->cursor();
      }
      EXPECT_EQ(tls_cursor_registry_size(), c0 + 6);
    }
    // Engine destructors journaled the owners; the next lookup (which the
    // size hook shares) must have dropped every slot.
    EXPECT_EQ(tls_cursor_registry_size(), c0);
  });
  probe.join();
}

}  // namespace
}  // namespace skiptrie
