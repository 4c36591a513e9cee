// Example: bulk ingest and multi-get through the batch API (DESIGN.md §3.6).
//
//   build/examples/bulk_load
//
// A feed handler ingests a large sorted snapshot (bulk load), then serves
// multi-get membership checks for client request batches.  Both shapes are
// what insert_batch/contains_batch exist for: the keys are sorted, so one
// DescentCursor walk is amortized across each batch — every key after the
// first enters the descent at the lowest level where the cursor's bracket
// still holds, skipping the x-fast lowest_ancestor query entirely.  The
// example prints the cursor reuse rate and the per-key step counts against
// a per-key-loop control — including the modeled cache-line traffic per
// key (schema v7 bytes_touched, DESIGN.md §7.4), where the leaf-chunk
// index shows up as fewer level-0 lines per descent — and fails (nonzero
// exit) if the batched results ever disagree with the single-key API.
#include <cstdio>
#include <cstdlib>
#include <inttypes.h>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/skiptrie.h"

using namespace skiptrie;

namespace {

double per_key(uint64_t v, size_t n) {
  return n ? static_cast<double>(v) / static_cast<double>(n) : 0.0;
}

}  // namespace

int main() {
  constexpr size_t kSnapshot = 100000;  // sorted snapshot rows
  constexpr size_t kBatch = 512;        // ingest / multi-get batch size
  constexpr uint64_t kSpace = 1 << 18;

  // A sorted snapshot with gaps (every ~2.6th slot occupied).
  std::vector<uint64_t> snapshot;
  snapshot.reserve(kSnapshot);
  Xoshiro256 rng(42);
  for (uint64_t key = 0; snapshot.size() < kSnapshot && key < kSpace;
       key += 1 + rng.next_below(4)) {
    snapshot.push_back(key);
  }

  Config cfg;
  cfg.universe_bits = 18;
  SkipTrie batched(cfg), control(cfg);

  // --- Bulk load: sorted batches through insert_batch ---------------------
  tls_counters() = StepCounters{};
  for (size_t i = 0; i < snapshot.size(); i += kBatch) {
    const size_t n = std::min(kBatch, snapshot.size() - i);
    batched.insert_batch(snapshot.data() + i, n);
  }
  const StepCounters load = tls_counters();

  tls_counters() = StepCounters{};
  for (const uint64_t k : snapshot) control.insert(k);
  const StepCounters load_ctl = tls_counters();
  tls_counters() = StepCounters{};

  if (batched.size() != control.size()) {
    std::fprintf(stderr, "FAIL: bulk load size %zu != control %zu\n",
                 batched.size(), control.size());
    return 1;
  }
  const uint64_t warm = load.cursor_reuses + load.cursor_redescends;
  std::printf("bulk load: %zu keys in batches of %zu\n", snapshot.size(),
              kBatch);
  std::printf("  cursor reuse rate      %.1f%% (%" PRIu64 "/%" PRIu64
              " warm seeks)\n",
              warm ? 100.0 * static_cast<double>(load.cursor_reuses) /
                         static_cast<double>(warm)
                   : 0.0,
              load.cursor_reuses, warm);
  std::printf("  hops+probes per key    %.1f batched vs %.1f per-key "
              "(%.1fx)\n",
              per_key(load.node_hops + load.hash_probes, snapshot.size()),
              per_key(load_ctl.node_hops + load_ctl.hash_probes,
                      snapshot.size()),
              static_cast<double>(load_ctl.node_hops + load_ctl.hash_probes) /
                  static_cast<double>(load.node_hops + load.hash_probes));
  std::printf("  bytes touched per key  %.0f batched vs %.0f per-key "
              "(list+leaf lines, DESIGN.md \u00a77.4)\n",
              per_key(load.bytes_touched, snapshot.size()),
              per_key(load_ctl.bytes_touched, snapshot.size()));

  // --- Multi-get: client request batches through contains_batch -----------
  // Each round serves one client's request batch: keys concentrated in
  // that client's slice of the id space (the shape that makes multi-get
  // batches dense — a batch of 512 uniform keys over the whole 2^18 space
  // would leave ~200 snapshot rows between consecutive sorted keys, and
  // one amortized walk can't beat per-key descents at that spread).
  constexpr uint64_t kClientSpan = 8192;
  std::vector<uint64_t> req(kBatch);
  std::vector<uint8_t> got(kBatch);
  size_t checked = 0, mismatches = 0;
  tls_counters() = StepCounters{};
  StepCounters serve, serve_ctl;
  for (int round = 0; round < 64; ++round) {
    const uint64_t base = rng.next_below(kSpace - kClientSpan);
    for (auto& k : req) k = base + rng.next_below(kClientSpan);
    std::sort(req.begin(), req.end());
    tls_counters() = StepCounters{};
    batched.contains_batch(req, got.data());
    serve += tls_counters();
    tls_counters() = StepCounters{};
    for (size_t i = 0; i < req.size(); ++i) {
      if (static_cast<bool>(got[i]) != control.contains(req[i])) ++mismatches;
      ++checked;
    }
    serve_ctl += tls_counters();
  }
  tls_counters() = StepCounters{};
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu/%zu multi-get mismatches\n", mismatches,
                 checked);
    return 1;
  }
  std::printf("multi-get: %zu lookups in batches of %zu, all match the "
              "per-key API\n",
              checked, kBatch);
  std::printf("  hops+probes per key    %.1f batched vs %.1f per-key "
              "(%.1fx)\n",
              per_key(serve.node_hops + serve.hash_probes, checked),
              per_key(serve_ctl.node_hops + serve_ctl.hash_probes, checked),
              static_cast<double>(serve_ctl.node_hops + serve_ctl.hash_probes) /
                  static_cast<double>(serve.node_hops + serve.hash_probes));
  std::printf("  bytes touched per key  %.0f batched vs %.0f per-key "
              "(list+leaf lines, DESIGN.md \u00a77.4)\n",
              per_key(serve.bytes_touched, checked),
              per_key(serve_ctl.bytes_touched, checked));
  std::printf("bulk_load: OK\n");
  return 0;
}
