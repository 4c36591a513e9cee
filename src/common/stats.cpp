#include "common/stats.h"

namespace skiptrie {

StepCounters& StepCounters::operator+=(const StepCounters& o) {
  node_hops += o.node_hops;
  hops_top += o.hops_top;
  hops_descent += o.hops_descent;
  finger_hits += o.finger_hits;
  finger_misses += o.finger_misses;
  hash_probes += o.hash_probes;
  probes_lookup += o.probes_lookup;
  probes_chain += o.probes_chain;
  probes_binsearch += o.probes_binsearch;
  hash_updates += o.hash_updates;
  cas_attempts += o.cas_attempts;
  cas_failures += o.cas_failures;
  dcss_attempts += o.dcss_attempts;
  dcss_guard_fails += o.dcss_guard_fails;
  dcss_helps += o.dcss_helps;
  back_steps += o.back_steps;
  prev_steps += o.prev_steps;
  restarts += o.restarts;
  walk_fallbacks += o.walk_fallbacks;
  trie_level_ops += o.trie_level_ops;
  retired_nodes += o.retired_nodes;
  bytes_touched += o.bytes_touched;
  chunk_scans += o.chunk_scans;
  chunk_splits += o.chunk_splits;
  chunk_merges += o.chunk_merges;
  cursor_reuses += o.cursor_reuses;
  cursor_redescends += o.cursor_redescends;
  batch_ops += o.batch_ops;
  batch_keys += o.batch_keys;
  shard_batches += o.shard_batches;
  service_requests += o.service_requests;
  service_subtasks += o.service_subtasks;
  queue_full_waits += o.queue_full_waits;
  queue_depth_sum += o.queue_depth_sum;
  queue_wait_ns += o.queue_wait_ns;
  adapt_checks += o.adapt_checks;
  promotions += o.promotions;
  return *this;
}

StepCounters StepCounters::operator-(const StepCounters& o) const {
  StepCounters r = *this;
  r.node_hops -= o.node_hops;
  r.hops_top -= o.hops_top;
  r.hops_descent -= o.hops_descent;
  r.finger_hits -= o.finger_hits;
  r.finger_misses -= o.finger_misses;
  r.hash_probes -= o.hash_probes;
  r.probes_lookup -= o.probes_lookup;
  r.probes_chain -= o.probes_chain;
  r.probes_binsearch -= o.probes_binsearch;
  r.hash_updates -= o.hash_updates;
  r.cas_attempts -= o.cas_attempts;
  r.cas_failures -= o.cas_failures;
  r.dcss_attempts -= o.dcss_attempts;
  r.dcss_guard_fails -= o.dcss_guard_fails;
  r.dcss_helps -= o.dcss_helps;
  r.back_steps -= o.back_steps;
  r.prev_steps -= o.prev_steps;
  r.restarts -= o.restarts;
  r.walk_fallbacks -= o.walk_fallbacks;
  r.trie_level_ops -= o.trie_level_ops;
  r.retired_nodes -= o.retired_nodes;
  r.bytes_touched -= o.bytes_touched;
  r.chunk_scans -= o.chunk_scans;
  r.chunk_splits -= o.chunk_splits;
  r.chunk_merges -= o.chunk_merges;
  r.cursor_reuses -= o.cursor_reuses;
  r.cursor_redescends -= o.cursor_redescends;
  r.batch_ops -= o.batch_ops;
  r.batch_keys -= o.batch_keys;
  r.shard_batches -= o.shard_batches;
  r.service_requests -= o.service_requests;
  r.service_subtasks -= o.service_subtasks;
  r.queue_full_waits -= o.queue_full_waits;
  r.queue_depth_sum -= o.queue_depth_sum;
  r.queue_wait_ns -= o.queue_wait_ns;
  r.adapt_checks -= o.adapt_checks;
  r.promotions -= o.promotions;
  return r;
}

StepCounters& tls_counters() {
  thread_local StepCounters counters;
  return counters;
}

}  // namespace skiptrie
