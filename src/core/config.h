// SkipTrie configuration.
#pragma once

#include <cstdint>

#include "dcss/dcss.h"

namespace skiptrie {

struct Config {
  // B = log2 of the key universe size; keys live in [0, 2^B).  Bounded by
  // the traits' word width: 4..64 for U64Traits, 4..128 for Bytes16Traits
  // (DESIGN.md §6; the byte-string/IPv6 codecs emit into the full 128-bit
  // universe).  The truncated skiplist gets ceil(log2(B)) + 1 levels, so a
  // key reaches the top (and the x-fast trie) with probability
  // ~1/B = 1/log u.
  uint32_t universe_bits = 32;

  // Full DCSS (paper default) or the paper's plain-CAS fallback (§1): the
  // structure stays linearizable and lock-free either way; the fallback may
  // transiently leave pointers aimed at marked nodes (repaired lazily).
  DcssMode dcss_mode = DcssMode::kDcss;

  // Seed for the per-thread tower-height RNG (deterministic workloads can
  // fix this; threads still derive distinct streams).
  uint64_t seed = 0x5eed5eed5eed5eedull;

  // Maximum bucket count of the prefix hash table.
  size_t max_hash_buckets = 1u << 20;

  // Batched operations stream sorted keys through one DescentCursor
  // (DESIGN.md §3.6).  Off = the batch API degenerates to a per-key loop
  // over the single-key operations (ablation/measurement; results are
  // identical either way).
  bool use_cursor_batching = true;

  // Cache-conscious leaf chunks (DESIGN.md §7): read descents terminate in a
  // sorted multi-key mini-array over level 0 instead of walking the low
  // levels node by node.  Off reproduces the seed layout and step counts
  // exactly (ablation; step_pinning_test pins its goldens with this off).
  // The compile-time default lets CI build a chunking-off matrix leg.
#ifdef SKIPTRIE_LEAF_CHUNKING_DEFAULT
  bool leaf_chunking = SKIPTRIE_LEAF_CHUNKING_DEFAULT;
#else
  bool leaf_chunking = true;
#endif

  // Slab granularity of the node arena.
  size_t arena_blocks_per_slab = 4096;
};

}  // namespace skiptrie
