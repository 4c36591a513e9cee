// u64 fast-path step pinning regression (DESIGN.md §6).
//
// U64Traits must stay the seed behavior *byte for byte*: same deterministic
// tower heights (random.h's deterministic_height_mixed seam), same hash
// stream, same descent decisions — hence exactly the same per-op step
// counts.  This test replays a fixed single-threaded workload (seeded
// Xoshiro256, insert / read / batch / erase phases over 32- and 64-bit
// universes) and compares eleven step counters per phase against golden
// values.  Any drift — a changed mix, a different gallop seed, an extra
// restart — fails loudly with the counter-by-counter diff.
//
// The goldens are single-thread deterministic: heights come from
// (seed, mix64(ikey)), not from thread-local RNG state, and no concurrency
// means no retries.  If an *intentional* algorithm change shifts these
// numbers, re-capture them (run this test; each failure prints the new
// value) and record the old -> new table in CHANGES.md in the same commit
// that explains why.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/skiptrie.h"

namespace skiptrie {
namespace {

// {node_hops, hash_probes, back_steps, prev_steps, hash_updates,
//  cas_attempts, dcss_attempts, trie_level_ops, restarts, cursor_reuses,
//  retired_nodes}
using Golden = std::array<uint64_t, 11>;

constexpr const char* kCounterNames[11] = {
    "node_hops",    "hash_probes",  "back_steps",    "prev_steps",
    "hash_updates", "cas_attempts", "dcss_attempts", "trie_level_ops",
    "restarts",     "cursor_reuses", "retired_nodes"};

Golden delta(const StepCounters& a, const StepCounters& b) {
  const StepCounters d = b - a;
  return {d.node_hops,    d.hash_probes,  d.back_steps,    d.prev_steps,
          d.hash_updates, d.cas_attempts, d.dcss_attempts, d.trie_level_ops,
          d.restarts,     d.cursor_reuses, d.retired_nodes};
}

void expect_golden(const char* phase, const Golden& got, const Golden& want) {
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << phase << ": counter " << kCounterNames[i]
                               << " drifted from the golden";
  }
}

struct PhaseGoldens {
  Golden insert, read, batch, erase;
};

// Captured with every single-key op starting from the x-fast pred_start,
// RelWithDebInfo, single thread.
constexpr PhaseGoldens kBits32 = {
    {24708, 17809, 0, 1156, 1755, 3452, 3984, 2176, 0, 0, 0},
    {72005, 33019, 0, 3047, 0, 402, 0, 0, 0, 0, 0},
    {26705, 2858, 0, 3, 766, 1285, 1825, 1024, 0, 4769, 0},
    {26776, 8638, 3, 492, 885, 8347, 1902, 1184, 70, 0, 2017},
};
constexpr PhaseGoldens kBits64 = {
    {28367, 17421, 0, 1097, 2009, 3480, 4176, 2176, 0, 0, 0},
    {82928, 33017, 0, 3970, 0, 345, 0, 0, 0, 0, 0},
    {27156, 4080, 0, 3, 1089, 1546, 2171, 1216, 0, 4877, 0},
    {29100, 8980, 4, 593, 1035, 8940, 2128, 1152, 39, 0, 2070},
};

void run_pinned(uint32_t bits, const PhaseGoldens& want) {
  Config cfg;
  cfg.universe_bits = bits;
  // The goldens pin the seed layout: leaf chunking reshapes the read path
  // (chunk scans replace low-level hops), so it is pinned off here and its
  // on/off equivalence is covered by leaf_chunk_test's ablation cases.
  cfg.leaf_chunking = false;
  SkipTrie t(cfg);
  const uint64_t maxk = t.max_key();
  Xoshiro256 rng(42);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(rng.next() % (maxk - 8));

  tls_counters() = StepCounters{};
  StepCounters a = snapshot_counters();
  size_t ins = 0;
  for (uint64_t k : keys) ins += t.insert(k);
  StepCounters b = snapshot_counters();
  expect_golden("insert", delta(a, b), want.insert);
  EXPECT_EQ(ins, 2000u);
  EXPECT_EQ(t.size(), 2000u);

  size_t hits = 0, preds = 0;
  for (uint64_t k : keys) {
    hits += t.contains(k);
    preds += t.predecessor(k + 3).has_value();
    preds += t.successor(k).has_value();
  }
  StepCounters c = snapshot_counters();
  expect_golden("read", delta(b, c), want.read);
  EXPECT_EQ(hits, 2000u);
  EXPECT_EQ(preds, 3999u);

  // batch: sorted multiget + unsorted insert + sorted predecessor sweep
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint8_t> r8(sorted.size());
  const size_t bc = t.contains_batch(sorted.data(), sorted.size(), r8.data());
  std::vector<uint64_t> batch2;
  for (int i = 0; i < 1000; ++i) batch2.push_back(rng.next() % (maxk - 8));
  const size_t bi = t.insert_batch(batch2.data(), batch2.size(), nullptr);
  std::vector<std::optional<uint64_t>> rp(sorted.size());
  const size_t bp =
      t.predecessor_batch(sorted.data(), sorted.size(), rp.data());
  StepCounters d = snapshot_counters();
  expect_golden("batch", delta(c, d), want.batch);
  EXPECT_EQ(bc, 2000u);
  EXPECT_EQ(bi, 1000u);
  EXPECT_EQ(bp, 2000u);

  size_t er = 0;
  for (size_t i = 0; i < keys.size(); i += 2) er += t.erase(keys[i]);
  StepCounters e = snapshot_counters();
  expect_golden("erase", delta(d, e), want.erase);
  EXPECT_EQ(er, 1000u);
  EXPECT_EQ(t.size(), 2000u);
  tls_counters() = StepCounters{};
}

// NDEBUG-independence: the workload takes no assert-gated branches, and the
// goldens were captured on the default (RelWithDebInfo-equivalent) CI
// flags.  Sanitizer builds perturb nothing either — every counted step is
// an algorithmic event, not a timing artifact.
TEST(StepPinningTest, U64Bits32ReproducesSeedStepCounts) {
  run_pinned(32, kBits32);
}

TEST(StepPinningTest, U64Bits64ReproducesSeedStepCounts) {
  run_pinned(64, kBits64);
}

// The heights themselves are part of the pinned surface: the traits seam
// (height_mix -> deterministic_height_mixed) must compose to exactly the
// seed's deterministic_height on u64.
TEST(StepPinningTest, HeightSeamIsByteIdentical) {
  for (uint64_t k = 0; k < 50000; ++k) {
    const uint64_t x = k * 0x9e3779b97f4a7c15ull + 1;
    for (uint32_t cap : {3u, 5u, 6u, 7u}) {
      EXPECT_EQ(deterministic_height(7, x, cap),
                deterministic_height_mixed(7, U64Traits::height_mix(x), cap));
    }
  }
}

}  // namespace
}  // namespace skiptrie
