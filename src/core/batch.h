// Batched bulk-operation plumbing (DESIGN.md §3.6).
//
// The batch API's contract — on SkipTrie and the full-height baseline alike
// — is "one walk, many keys": sort the input, then stream the sorted keys
// through a single DescentCursor so each key after the first enters the
// descent at the lowest level where the cursor's bracket still holds.  This
// header holds the structure-independent half: the sorted iteration order
// (with an O(n) already-sorted fast path) and the batch attribution
// counters, both templated on the key word so every traits instantiation
// (uint64_t, u128) shares one implementation.  The per-structure halves
// live in src/core/batch.cpp (SkipTrie: trie fallback + Alg. 6/7 sweeps)
// and src/baseline/lockfree_skiplist.cpp (no trie).
//
// Results are reported in *input* order regardless of the internal
// processing order; duplicates are processed in input order (stable sort),
// so e.g. inserting the same key twice in one batch reports exactly one
// success, on the first occurrence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/stats.h"

namespace skiptrie {
namespace batch_detail {

template <typename K>
inline bool is_sorted_keys(const K* keys, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (keys[i - 1] > keys[i]) return false;
  }
  return true;
}

// Indices of `keys` in stable ascending key order.
template <typename K>
std::vector<uint32_t> sorted_order(const K* keys, size_t n) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  // Stable: duplicate keys keep their input order, so "first occurrence
  // wins" semantics hold for insert/erase result reporting.
  std::stable_sort(order.begin(), order.end(),
                   [keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  return order;
}

// Drive `op(key, input_index)` over the keys in ascending order, tallying
// the batch attribution counters (steps.batch_ops/batch_keys).  Returns the
// number of ops that returned true.  `op` writes its own per-key result.
template <typename K, typename PerKey>
size_t for_each_sorted(const K* keys, size_t n, PerKey&& op) {
  auto& c = tls_counters();
  c.batch_ops++;
  c.batch_keys += n;
  size_t hits = 0;
  if (is_sorted_keys(keys, n)) {
    for (size_t i = 0; i < n; ++i) {
      if (op(keys[i], static_cast<uint32_t>(i))) ++hits;
    }
    return hits;
  }
  for (const uint32_t idx : sorted_order(keys, n)) {
    if (op(keys[idx], idx)) ++hits;
  }
  return hits;
}

}  // namespace batch_detail
}  // namespace skiptrie
