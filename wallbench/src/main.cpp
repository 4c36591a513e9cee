// Wall-clock benchmark of the SkipTrie library.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--scale-shift <k>]
//
// Runs one closed-loop workload (workloads.h) in this process and prints, as
// the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1 is
// the traced run: it reports the per-layer metrics, records spans around
// calls into each module's public functions, and writes them to
// <out-dir>/trace-<workload>-<seed>.csv when the run ends.
// --scale-shift k divides every input size by 2^k (self-test only).
//
// The benchmark drives only the library's public API and reads only its
// public counters: tls_counters() and EbrDomain::pending_retired().
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/locked_map.h"
#include "baseline/lockfree_skiplist.h"
#include "common/stats.h"
#include "core/skiptrie.h"
#include "core/validate.h"
#include "perf_group.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "trace.h"
#include "workloads.h"

namespace wallbench {
namespace {

using skiptrie::LockedMap;
using skiptrie::LockFreeSkipList;
using skiptrie::Service;
using skiptrie::ShardedEngine;
using skiptrie::SkipTrie;
using skiptrie::StepCounters;
using skiptrie::tls_counters;

constexpr uint32_t kShards = 2;  // batch_sharded's engine and the Service arm
constexpr uint32_t kServiceClients = 2;
constexpr uint32_t kServiceRequest = 64;  // ops per Service request
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;
constexpr uint32_t kProbeRequests = 4096;

skiptrie::Config trie_config() {
  skiptrie::Config cfg;
  cfg.universe_bits = kUniverseBits;
  return cfg;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<uint32_t> v, double p) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Resident set size of this process, in bytes.
uint64_t rss_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

// ---- Executors: one call against one structure ----------------------------

template <class S>
void exec(S& s, const Call& c, Reply& r) {
  if constexpr (requires { s.predecessor_batch(c.key, c.n, r.pred); }) {
    if (c.batch) {
      switch (c.op[0]) {
        case kPred: s.predecessor_batch(c.key, c.n, r.pred); return;
        case kContains: s.contains_batch(c.key, c.n, r.flag); return;
        case kInsert: s.insert_batch(c.key, c.n, r.flag); return;
        case kErase: s.erase_batch(c.key, c.n, r.flag); return;
      }
    }
  }
  for (uint32_t i = 0; i < c.n; ++i) {
    switch (c.op[i]) {
      case kPred: r.pred[i] = s.predecessor(c.key[i]); break;
      case kContains: r.flag[i] = s.contains(c.key[i]); break;
      case kInsert: r.flag[i] = s.insert(c.key[i]); break;
      case kErase: r.flag[i] = s.erase(c.key[i]); break;
    }
  }
}

// A Service call is one request, answered through its future.
void exec(Service& svc, const Call& c, Reply& r) {
  static constexpr skiptrie::ServiceOp kOps[4] = {
      skiptrie::ServiceOp::kPredecessor, skiptrie::ServiceOp::kContains,
      skiptrie::ServiceOp::kInsert, skiptrie::ServiceOp::kErase};
  std::vector<skiptrie::ServiceOpItem> ops(c.n);
  for (uint32_t i = 0; i < c.n; ++i) ops[i] = {kOps[c.op[i]], c.key[i]};
  const skiptrie::ServiceResult res = svc.submit(std::move(ops)).get();
  for (uint32_t i = 0; i < c.n; ++i) {
    r.flag[i] = res.results[i].ok;
    r.pred[i] = res.results[i].value;
  }
}

uint32_t span_of(const Call& c) {
  return static_cast<uint32_t>(c.batch ? kCorePredecessorBatch : kCorePredecessor) +
         c.op[0];
}

// ---- Set-up ----------------------------------------------------------------

// Builds a structure with `make` and inserts `keys` from `threads` threads.
// Returns the structure; adds the wall time to *secs and every insert that
// reported the key as already present to *bad.
template <class S, class Make>
std::unique_ptr<S> build(Make make, const std::vector<uint64_t>& keys,
                         uint32_t threads, double* secs, uint64_t* bad) {
  const int64_t t0 = now_ns();
  std::unique_ptr<S> s = make();
  auto& target = [&]() -> auto& {
    if constexpr (std::is_same_v<S, Service>) {
      return s->engine();
    } else {
      return *s;
    }
  }();
  std::vector<uint64_t> dup(threads, 0);
  std::vector<std::thread> ts;
  for (uint32_t t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      for (size_t i = t; i < keys.size(); i += threads) {
        dup[t] += !target.insert(keys[i]);
      }
    });
  }
  for (auto& th : ts) th.join();
  *secs = static_cast<double>(now_ns() - t0) * 1e-9;
  for (uint64_t d : dup) *bad += d;
  return s;
}

// ---- The closed loop -------------------------------------------------------

// The timed phase is cut into kIntervals equal intervals.  Throughput and
// latency percentiles are reported as the median over the intervals, so a
// burst of interference from outside the process moves them less.
constexpr uint32_t kIntervals = 20;              // a multiple of 4 (quarters)
constexpr size_t kIntervalSamples = 1u << 12;    // latency reservoir per
                                                 // thread and interval
constexpr uint32_t kMaxThreads = 4;
constexpr uint64_t kSpanEvery = 16;  // traced arm: a span for every 16th timed call

// Latency reservoirs, allocated and touched before the structure is built
// so that they do not count as the structure's resident memory.
std::vector<uint32_t>& latency_pool() {
  static std::vector<uint32_t> pool(size_t{kMaxThreads} * kIntervals * kIntervalSamples, 1);
  return pool;
}

struct ArmOptions {
  double seconds = 1;
  uint32_t per_call = 1;   // keys per call (batch size or Service request)
  bool trace = false;      // spans around timed calls
  bool hw = false;         // perf counter group per thread
  bool in_order = true;    // a call's ops take effect in input order
};

struct ArmResult {
  uint64_t ops = 0;
  uint64_t failures = 0;
  uint64_t latency_seen = 0;                  // calls timed
  double interval_rate[kIntervals] = {};      // ops/s, summed over threads
  std::vector<uint32_t> latency[kIntervals];  // reservoir samples, ns
  StepCounters counters;                      // summed over threads
  StepCounters interval_counters[kIntervals];
  uint64_t interval_ops[kIntervals] = {};
  PerfGroup::Values hw;                       // summed over threads
  std::vector<std::unique_ptr<SpanLog>> logs;

  double ops_per_s() const {
    return median(std::vector<double>(interval_rate, interval_rate + kIntervals));
  }
  // Median over the intervals of each interval's latency percentile.
  double latency_ns(double p) const {
    std::vector<double> v;
    for (const auto& l : latency) {
      if (!l.empty()) v.push_back(percentile(l, p));
    }
    return median(v);
  }
  // Percentile of all samples pooled (for arms with few calls per interval).
  double pooled_latency_ns(double p) const {
    std::vector<uint32_t> all;
    for (const auto& l : latency) all.insert(all.end(), l.begin(), l.end());
    return percentile(all, p);
  }
  // Counters and ops of quarter q (0..3) of the timed phase.
  StepCounters quarter(int q, uint64_t* ops) const {
    StepCounters c;
    *ops = 0;
    for (uint32_t i = q * kIntervals / 4; i < (q + 1) * kIntervals / 4; ++i) {
      c += interval_counters[i];
      *ops += interval_ops[i];
    }
    return c;
  }
};

// Runs clients.size() closed-loop callers against `s` for o.seconds.  Every
// thread times one call in `every` (every call when calls carry many keys)
// into a fixed-size reservoir per interval, and checks every reply with its
// client.
template <class S, class Client>
ArmResult run_arm(S& s, std::vector<Client>& clients, const ArmOptions& o,
                  uint64_t seed) {
  const uint32_t threads = static_cast<uint32_t>(clients.size());
  if (threads > kMaxThreads) std::abort();
  const uint32_t every = o.per_call == 1 ? 8 : 1;
  struct Out {
    uint64_t ops = 0, failures = 0, seen = 0;
    uint64_t iseen[kIntervals] = {};
    uint64_t iops[kIntervals + 1] = {};
    int64_t itime[kIntervals + 1] = {};
    StepCounters isnap[kIntervals + 1];
    PerfGroup::Values hw;
    std::unique_ptr<SpanLog> log;
  };
  std::vector<Out> outs(threads);
  std::barrier sync(threads);
  std::vector<std::thread> ts;
  for (uint32_t t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Out& out = outs[t];
      Client& cl = clients[t];
      Rng rng(derive(seed, 100, t));
      uint32_t* pool = latency_pool().data() + size_t{t} * kIntervals * kIntervalSamples;
      if (o.trace) out.log = std::make_unique<SpanLog>(1u << 20);
      std::optional<PerfGroup> pg;
      if (o.hw) pg.emplace();
      Call call;
      Reply reply;
      sync.arrive_and_wait();
      const int64_t t0 = now_ns();
      const int64_t dur = static_cast<int64_t>(o.seconds * 1e9);
      out.itime[0] = t0;
      out.isnap[0] = tls_counters();
      uint32_t cur = 0;  // current interval
      if (pg) pg->start();
      for (uint64_t k = 0;; ++k) {
        cl.next(call, o.per_call);
        const bool timed = k % every == 0;
        const int64_t a = timed ? now_ns() : 0;
        exec(s, call, reply);
        int64_t end = 0;
        if (timed) {
          end = now_ns();
          while (cur + 1 < kIntervals && end >= t0 + dur * (cur + 1) / kIntervals) {
            ++cur;
            out.itime[cur] = end;
            out.iops[cur] = out.ops;
            out.isnap[cur] = tls_counters();
          }
          const uint32_t ns = static_cast<uint32_t>(
              std::min<uint64_t>(static_cast<uint64_t>(end - a), ~0u));
          uint32_t* res = pool + size_t{cur} * kIntervalSamples;
          const uint64_t seen = out.iseen[cur]++;
          if (seen < kIntervalSamples) {
            res[seen] = ns;
          } else if (const uint64_t j = rng.below(seen + 1); j < kIntervalSamples) {
            res[j] = ns;
          }
          if (out.log && out.seen % kSpanEvery == 0) {
            out.log->add(span_of(call), -1, (uint64_t{t} << 48) | k, a, end);
          }
          ++out.seen;
        }
        out.failures += cl.check(call, reply, o.in_order);
        out.ops += call.n;
        if (timed && end >= t0 + dur) {
          out.itime[kIntervals] = end;
          break;
        }
      }
      if (pg) {
        pg->stop();
        out.hw = pg->read();
      }
      // Intervals a stalled thread skipped entirely get zero ops.
      for (uint32_t i = cur + 1; i < kIntervals; ++i) {
        out.itime[i] = out.itime[kIntervals];
        out.iops[i] = out.ops;
        out.isnap[i] = tls_counters();
      }
      out.iops[kIntervals] = out.ops;
      out.isnap[kIntervals] = tls_counters();
    });
  }
  for (auto& th : ts) th.join();

  ArmResult r;
  for (int i = 0; i < PerfGroup::kCount; ++i) {
    if (o.hw) r.hw[i] = 0;
  }
  for (uint32_t t = 0; t < threads; ++t) {
    Out& out = outs[t];
    r.ops += out.ops;
    r.failures += out.failures;
    r.latency_seen += out.seen;
    r.counters += out.isnap[kIntervals] - out.isnap[0];
    const uint32_t* pool = latency_pool().data() + size_t{t} * kIntervals * kIntervalSamples;
    for (uint32_t i = 0; i < kIntervals; ++i) {
      const uint64_t n = out.iops[i + 1] - out.iops[i];
      const int64_t span = out.itime[i + 1] - out.itime[i];
      r.interval_rate[i] += span > 0 ? static_cast<double>(n) / (static_cast<double>(span) * 1e-9) : 0;
      r.interval_ops[i] += n;
      r.interval_counters[i] += out.isnap[i + 1] - out.isnap[i];
      const uint32_t* res = pool + size_t{i} * kIntervalSamples;
      r.latency[i].insert(r.latency[i].end(), res,
                          res + std::min<uint64_t>(out.iseen[i], kIntervalSamples));
    }
    for (int i = 0; i < PerfGroup::kCount; ++i) {
      if (r.hw[i] && out.hw[i]) {
        *r.hw[i] += *out.hw[i];
      } else {
        r.hw[i].reset();
      }
    }
    if (out.log) r.logs.push_back(std::move(out.log));
  }
  return r;
}

// ---- Workload plumbing -----------------------------------------------------

// The inputs of one run and the clients that replay them.
struct Inputs {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  ReadInputs read;
  WriteSpace write;

  const std::vector<uint64_t>& prefill_keys() const { return prefill_; }
  void finish() {
    if (spec->read_only) {
      prefill_ = read.order;
    } else {
      for (uint32_t i : write.prefill) prefill_.push_back(write.cand[i]);
    }
  }

 private:
  std::vector<uint64_t> prefill_;
};

std::vector<StreamClient> stream_clients(const Inputs& in, uint32_t threads) {
  std::vector<StreamClient> v;
  for (uint32_t t = 0; t < threads; ++t) {
    v.emplace_back(in.read.stream, in.read.stream.size() * t / threads);
  }
  return v;
}

std::vector<WriteClient> write_clients(const Inputs& in, uint32_t threads,
                                       uint64_t arm) {
  std::vector<WriteClient> v;
  for (uint32_t t = 0; t < threads; ++t) {
    v.emplace_back(in.write, t, threads, derive(in.seed, arm, t));
  }
  return v;
}

// Expected final contents of a write workload: the union of the shadows.
std::vector<uint64_t> expected_contents(const Inputs& in,
                                        const std::vector<WriteClient>& cls) {
  std::vector<uint32_t> idx;
  for (const WriteClient& c : cls) c.collect(idx);
  std::vector<uint64_t> keys;
  keys.reserve(idx.size());
  for (uint32_t i : idx) keys.push_back(in.write.cand[i]);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Calls f(trie, low key, shard) on the SkipTrie that holds `key`.
template <class F>
void on_trie(SkipTrie& s, uint64_t key, F f) { f(s, key, 0u); }
template <class F>
void on_trie(ShardedEngine& s, uint64_t key, F f) {
  f(s.shard(s.shard_of(key)), s.low_of(key), s.shard_of(key));
}

std::vector<SkipTrie*> tries_of(SkipTrie& s) { return {&s}; }
std::vector<SkipTrie*> tries_of(ShardedEngine& s) {
  std::vector<SkipTrie*> v;
  for (uint32_t i = 0; i < s.shard_count(); ++i) v.push_back(&s.shard(i));
  return v;
}
uint64_t global_of(const SkipTrie&, uint32_t, uint64_t low) { return low; }
uint64_t global_of(const ShardedEngine& s, uint32_t shard, uint64_t low) {
  return s.global_key(shard, low);
}

// Quiescent end-of-run check: every trie passes validate_structure() and the
// contents equal `expected`.  Returns the number of violations found.
template <class S>
uint64_t final_check(S& s, const std::vector<uint64_t>& expected) {
  uint64_t bad = 0;
  std::vector<uint64_t> got;
  got.reserve(expected.size());
  const auto tries = tries_of(s);
  for (uint32_t i = 0; i < tries.size(); ++i) {
    const auto violations = skiptrie::validate_structure(*tries[i]);
    for (const auto& v : violations) std::fprintf(stderr, "validate: %s\n", v.c_str());
    bad += violations.size();
    tries[i]->for_each_in_range(0, tries[i]->max_key(), [&](uint64_t k) {
      got.push_back(global_of(s, i, k));
    });
  }
  if (got != expected) {
    std::fprintf(stderr, "contents: %zu keys, expected %zu\n", got.size(),
                 expected.size());
    ++bad;
  }
  return bad;
}

template <class S>
uint64_t pending_retired(S& s) {
  uint64_t n = 0;
  for (SkipTrie* t : tries_of(s)) n += t->ebr().pending_retired();
  return n;
}

// ---- Layer probes (traced run) ---------------------------------------------

struct ProbeResult {
  uint64_t attempted = 0;
  uint64_t failures = 0;
};

// Replays predecessor queries layer by layer through each module's public
// functions (EBR pin, x-fast pred_start, skiplist descend, unpin), times
// split-ordered hash lookups of live and absent prefix keys, and times the
// four public single-key calls.  The structure must be quiescent and hold
// exactly `live`; it holds exactly `live` again when this returns.
template <class S>
ProbeResult run_probes(S& s, const std::vector<uint64_t>& live,
                       const std::vector<uint64_t>& queries, uint64_t seed,
                       SpanLog& log) {
  ProbeResult pr;
  const Oracle oracle(live, kUniverseBits);
  Rng rng(seed);
  uint64_t req = 1ull << 63;
  for (uint64_t q : queries) {
    on_trie(s, q, [&](SkipTrie& t, uint64_t low, uint32_t shard) {
      using Node = SkipTrie::Node_t;
      const uint64_t x = low + 2;  // bracket left of ikey(low) + 1
      std::optional<skiptrie::EbrDomain::Guard> g;
      const int64_t t0 = now_ns();
      g.emplace(t.ebr());
      const int64_t t1 = now_ns();
      Node* start = t.trie().pred_start(low, x);
      const int64_t t2 = now_ns();
      const auto b = t.engine().descend(x, start);
      const int64_t t3 = now_ns();
      std::optional<uint64_t> got;
      if (b.left->kind() == skiptrie::NodeKind::kInterior) {
        got = global_of(s, shard, b.left->ikey() - 1);
      }
      g.reset();
      const int64_t t4 = now_ns();
      const int32_t root = log.add(kProbePredecessor, -1, req, t0, t4);
      log.add(kReclaimPin, root, req, t0, t1);
      log.add(kXfastPredStart, root, req, t1, t2);
      log.add(kSkiplistDescend, root, req, t2, t3);
      log.add(kReclaimUnpin, root, req, t3, t4);
      // Within one shard the answer is the oracle's only if it lies there.
      const auto o = oracle.pred(q);
      const bool here = o && *o >= global_of(s, shard, 0);
      pr.failures += here ? got != o : got.has_value();
      ++pr.attempted;

      const int64_t p0 = now_ns();
      for (int i = 0; i < 16; ++i) skiptrie::EbrDomain::Guard pin(t.ebr());
      log.add(kReclaimPin16, -1, req, p0, now_ns());
    });
    ++req;
  }

  // Hash lookups, under an outer pin as inside an operation.
  for (SkipTrie* t : tries_of(s)) {
    std::vector<uint64_t> prefixes;
    t->trie().map().for_each([&](uint64_t k, uint64_t) { prefixes.push_back(k); });
    std::sort(prefixes.begin(), prefixes.end());
    if (prefixes.empty()) continue;
    skiptrie::EbrDomain::Guard g(t->ebr());
    for (uint32_t i = 0; i < queries.size() / tries_of(s).size(); ++i) {
      const uint64_t hit = prefixes[rng.below(prefixes.size())];
      uint64_t miss = rng();
      while (std::binary_search(prefixes.begin(), prefixes.end(), miss)) miss = rng();
      const int64_t a = now_ns();
      const bool found = t->trie().map().lookup(hit).has_value();
      const int64_t b = now_ns();
      const bool false_hit = t->trie().map().lookup(miss).has_value();
      const int64_t c = now_ns();
      log.add(kHashLookupHit, -1, req, a, b);
      log.add(kHashLookupMiss, -1, req, b, c);
      pr.failures += !found + false_hit;
      pr.attempted += 2;
      ++req;
    }
  }

  // Public single-key calls; each erased key is inserted straight back.
  for (uint64_t q : queries) {
    const int64_t a = now_ns();
    const bool has = s.contains(q);
    const int64_t b = now_ns();
    log.add(kProbeContains, -1, req++, a, b);
    pr.failures += has != oracle.contains(q);
    ++pr.attempted;
    if (live.empty()) continue;
    const uint64_t k = live[rng.below(live.size())];
    const int64_t c = now_ns();
    const bool erased = s.erase(k);
    const int64_t d = now_ns();
    const bool inserted = s.insert(k);
    const int64_t e = now_ns();
    log.add(kProbeErase, -1, req, c, d);
    log.add(kProbeInsert, -1, req++, d, e);
    pr.failures += !erased + !inserted;
    pr.attempted += 2;
  }
  return pr;
}

// Probe query keys drawn like the workload's own queries.
std::vector<uint64_t> probe_queries(const Inputs& in, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> q(kProbeRequests);
  for (uint64_t& k : q) {
    if (in.spec->read_only) {
      k = in.read.stream[rng.below(in.read.stream.size())].key;
    } else {
      const uint32_t i = static_cast<uint32_t>(rng.below(in.write.cand.size()));
      k = in.write.cand[i] + rng.below(in.write.gap(i));
    }
  }
  return q;
}

// ---- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": ";
    out += ms[i].value ? num(*ms[i].value) : "null";
    out += ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_human(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.value) {
      std::printf("# %-36s %14.6g %s\n", m.name.c_str(), *m.value, m.unit.c_str());
    } else {
      std::printf("# %-36s %14s %s\n", m.name.c_str(), "null", m.unit.c_str());
    }
  }
}

// ---- The two kinds of run --------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  uint32_t shift = 0;
  std::string out_dir;
};

// Structure-generic parts of a run.  S is SkipTrie or ShardedEngine.
template <class S>
struct Runner {
  const Inputs& in;
  const Args& a;

  std::unique_ptr<S> make() const {
    if constexpr (std::is_same_v<S, ShardedEngine>) {
      return std::make_unique<ShardedEngine>(kShards, trie_config());
    } else {
      return std::make_unique<SkipTrie>(trie_config());
    }
  }

  std::unique_ptr<S> setup(double* secs, uint64_t* bad) const {
    return build<S>([this] { return make(); }, in.prefill_keys(),
                    in.spec->threads, secs, bad);
  }

  // Runs `threads` of the workload's clients against `t`; returns the result
  // and fills `expected` with the contents `t` must now hold.
  template <class T>
  ArmResult arm(T& t, uint32_t threads, const ArmOptions& o, uint64_t tag,
                std::vector<uint64_t>& expected) const {
    if (in.spec->read_only) {
      auto cls = stream_clients(in, threads);
      expected = in.read.keys;
      return run_arm(t, cls, o, derive(in.seed, tag));
    }
    auto cls = write_clients(in, threads, tag);
    ArmResult r = run_arm(t, cls, o, derive(in.seed, tag));
    expected = expected_contents(in, cls);
    return r;
  }

  // --trace 0: the end-to-end metrics.
  int plain() const {
    const uint64_t rss0 = rss_bytes();
    uint64_t bad = 0;
    std::vector<double> setups(1);
    std::unique_ptr<S> s = setup(&setups[0], &bad);
    ArmOptions o;
    o.seconds = a.seconds;
    o.per_call = in.spec->per_call;
    std::vector<uint64_t> expected;
    const ArmResult r = arm(*s, in.spec->threads, o, 10, expected);
    const uint64_t rss1 = rss_bytes();
    const uint64_t live = s->size();
    bad += final_check(*s, expected);
    s.reset();
    // More set-ups for a steady median: at least kMinSetups, and more while
    // they have taken under a second in all (small structures).
    double spent = setups[0];
    while (setups.size() < kMinSetups || (spent < 1.0 && setups.size() < kMaxSetups)) {
      double secs = 0;
      setup(&secs, &bad).reset();
      setups.push_back(secs);
      spent += secs;
    }
    const uint64_t failed = r.failures + bad;
    const uint64_t attempted = std::max<uint64_t>(r.ops, 1);
    std::vector<Metric> ms = {
        {"ops_per_s", r.ops_per_s(), "ops/s"},
        {"p50_ns", r.latency_ns(0.50), "ns"},
        {"p99_ns", r.latency_ns(0.99), "ns"},
        {"setup_s", median(setups), "s"},
        {"rss_bytes_per_key",
         ratio(static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0),
               static_cast<double>(live)),
         "bytes/key"},
        {"ok_ratio", 1.0 - ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)),
         "ratio"},
    };
    size_t kept = 0;
    for (const auto& l : r.latency) kept += l.size();
    std::printf("# workload %s seed %llu: %llu ops in %.3g s, %llu calls timed, "
                "%zu latency samples kept over %u intervals, %llu live keys\n",
                in.spec->name, static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(r.ops), a.seconds,
                static_cast<unsigned long long>(r.latency_seen), kept, kIntervals,
                static_cast<unsigned long long>(live));
    std::printf("# interval ops/s:");
    for (double v : r.interval_rate) std::printf(" %.4g", v);
    std::printf("\n");
    print_human(ms);
    print_result(failed == 0, attempted, failed, ms);
    return 0;
  }

  // A reference arm: the same clients against another structure, for a
  // quarter of the run time.
  template <class T, class Make>
  double reference(Make make, uint32_t threads, uint32_t per_call, uint64_t tag,
                   uint64_t* attempted, uint64_t* failed, ArmResult* out = nullptr) const {
    double secs = 0;
    auto t = build<T>(make, in.prefill_keys(), threads, &secs, failed);
    ArmOptions o;
    o.seconds = a.seconds / 4;
    o.per_call = per_call;
    o.in_order = !std::is_same_v<T, Service>;
    std::vector<uint64_t> expected;
    ArmResult r = arm(*t, threads, o, tag, expected);
    const double rate = r.ops_per_s();
    size_t size = 0;
    if constexpr (std::is_same_v<T, Service>) {
      size = t->engine().size();
    } else {
      size = t->size();
    }
    *failed += r.failures + (size != expected.size());
    *attempted += r.ops;
    if (out != nullptr) {
      if constexpr (std::is_same_v<T, Service>) {
        t->stop();
        r.counters += t->worker_counters();
      }
      *out = std::move(r);
    }
    return rate;
  }

  // --trace 1: the per-layer metrics.
  int traced() const {
    uint64_t attempted = 0, failed = 0;
    ArmOptions o;
    o.seconds = a.seconds;
    o.per_call = in.spec->per_call;
    std::vector<uint64_t> expected;
    double secs = 0;

    // Untraced arm with the hardware counter group.
    ArmResult plain_r;
    {
      auto s = setup(&secs, &failed);
      o.hw = true;
      plain_r = arm(*s, in.spec->threads, o, 10, expected);
      failed += plain_r.failures + final_check(*s, expected);
      attempted += plain_r.ops;
      o.hw = false;
    }

    // Traced arm, then the layer probes on the same structure.
    o.trace = true;
    auto s = setup(&secs, &failed);
    ArmResult tr = arm(*s, in.spec->threads, o, 10, expected);
    const uint64_t pending = pending_retired(*s);
    failed += tr.failures;
    attempted += tr.ops;
    SpanLog probe_log(1u << 20);
    const ProbeResult pr = run_probes(*s, expected, probe_queries(in, derive(in.seed, 20)),
                                      derive(in.seed, 21), probe_log);
    failed += pr.failures + final_check(*s, expected);
    attempted += pr.attempted;
    const StepCounters c = tr.counters;
    s.reset();

    // Reference arms on the same inputs.
    const uint32_t T = in.spec->threads;
    const double skiplist_ops = reference<LockFreeSkipList>(
        [] { return std::make_unique<LockFreeSkipList>(); }, T, in.spec->per_call,
        30, &attempted, &failed);
    const double map_ops = reference<LockedMap>(
        [] { return std::make_unique<LockedMap>(); }, T, in.spec->per_call, 31,
        &attempted, &failed);
    ArmResult svc;
    reference<Service>(
        [] {
          skiptrie::ServiceConfig sc;
          sc.shards = kShards;
          sc.trie = trie_config();
          return std::make_unique<Service>(sc);
        },
        kServiceClients, kServiceRequest, 32, &attempted, &failed, &svc);

    // Per-layer medians from the spans.
    std::vector<const SpanLog*> logs;
    for (const auto& l : tr.logs) logs.push_back(l.get());
    logs.push_back(&probe_log);
    auto span_p50 = [&](uint32_t name, double scale = 1) {
      std::vector<double> d;
      for (const SpanLog* l : logs) l->durations(name, d);
      return median(d) / scale;
    };
    // A public call's p50: from the timed arm when the workload issues it,
    // otherwise from the quiescent probe calls.
    auto call_p50 = [&](uint32_t single, uint32_t batch, uint32_t probe) {
      std::vector<double> d;
      for (const auto& l : tr.logs) {
        l->durations(single, d);
        l->durations(batch, d);
      }
      if (d.size() >= 100) return median(d);
      return span_p50(probe);
    };
    const double ops = static_cast<double>(tr.ops);
    auto per_op = [&](uint64_t v) { return ratio(static_cast<double>(v), ops); };
    auto per_q = [&](int q) {
      uint64_t n = 0;
      const StepCounters qc = tr.quarter(q, &n);
      return ratio(static_cast<double>(qc.hops_descent), static_cast<double>(n));
    };
    auto hw = [&](int i) -> std::optional<double> {
      if (!plain_r.hw[i]) return std::nullopt;
      return ratio(static_cast<double>(*plain_r.hw[i]), static_cast<double>(plain_r.ops));
    };
    // The batch and shard layers: the traced arm when it issues batch calls,
    // otherwise the Service arm, whose workers call the ShardedEngine's
    // batch API for each same-op run of a request.
    const StepCounters& bc = c.batch_ops > 0 ? c : svc.counters;
    std::vector<Metric> ms = {
        {"reclaim.pin_ns", span_p50(kReclaimPin16, 16), "ns"},
        {"reclaim.pending_retired", static_cast<double>(pending), "count"},
        {"hash.lookup_hit_ns", span_p50(kHashLookupHit), "ns"},
        {"hash.lookup_miss_ns", span_p50(kHashLookupMiss), "ns"},
        {"hash.probes_per_op", per_op(c.hash_probes), "count/op"},
        {"hash.chain_per_lookup",
         ratio(static_cast<double>(c.probes_chain), static_cast<double>(c.probes_lookup)),
         "count/lookup"},
        {"xfast.pred_start_ns", span_p50(kXfastPredStart), "ns"},
        {"xfast.binsearch_probes_per_op", per_op(c.probes_binsearch), "count/op"},
        {"xfast.prev_steps_per_op", per_op(c.prev_steps), "count/op"},
        {"skiplist.descend_ns", span_p50(kSkiplistDescend), "ns"},
        {"skiplist.hops_top_per_op", per_op(c.hops_top), "count/op"},
        {"skiplist.hops_descent_per_op", per_op(c.hops_descent), "count/op"},
        {"skiplist.hops_descent_per_op.q1", per_q(0), "count/op"},
        {"skiplist.hops_descent_per_op.q2", per_q(1), "count/op"},
        {"skiplist.hops_descent_per_op.q3", per_q(2), "count/op"},
        {"skiplist.hops_descent_per_op.q4", per_q(3), "count/op"},
        {"skiplist.walk_fallbacks_per_kop", 1000 * per_op(c.walk_fallbacks), "count/kop"},
        {"skiplist.restarts_per_kop", 1000 * per_op(c.restarts), "count/kop"},
        {"skiplist.finger_hit_ratio",
         ratio(static_cast<double>(c.finger_hits),
               static_cast<double>(c.finger_hits + c.finger_misses)),
         "ratio"},
        {"skiplist.adapt_checks_per_op", per_op(c.adapt_checks), "count/op"},
        {"skiplist.promotions", static_cast<double>(c.promotions), "count"},
        {"skiplist.chunk_scans_per_op", per_op(c.chunk_scans), "count/op"},
        {"skiplist.bytes_touched_per_op", per_op(c.bytes_touched), "bytes/op"},
        {"skiplist.cursor_reuse_ratio",
         ratio(static_cast<double>(bc.cursor_reuses),
               static_cast<double>(bc.cursor_reuses + bc.cursor_redescends)),
         "ratio"},
        {"dcss.attempts_per_op", per_op(c.dcss_attempts), "count/op"},
        {"dcss.guard_fail_ratio",
         ratio(static_cast<double>(c.dcss_guard_fails), static_cast<double>(c.dcss_attempts)),
         "ratio"},
        {"dcss.helps_per_op", per_op(c.dcss_helps), "count/op"},
        {"dcss.cas_fail_ratio",
         ratio(static_cast<double>(c.cas_failures), static_cast<double>(c.cas_attempts)),
         "ratio"},
        {"core.insert_p50_ns", call_p50(kCoreInsert, kCoreInsertBatch, kProbeInsert), "ns"},
        {"core.erase_p50_ns", call_p50(kCoreErase, kCoreEraseBatch, kProbeErase), "ns"},
        {"core.predecessor_p50_ns",
         call_p50(kCorePredecessor, kCorePredecessorBatch, kProbePredecessor), "ns"},
        {"core.contains_p50_ns",
         call_p50(kCoreContains, kCoreContainsBatch, kProbeContains), "ns"},
        {"shard.sub_batches_per_call",
         ratio(static_cast<double>(bc.shard_batches), static_cast<double>(bc.batch_ops)),
         "count/call"},
        {"hw.cycles_per_op", hw(0), "count/op"},
        {"hw.instr_per_op", hw(1), "count/op"},
        {"hw.l1d_miss_per_op", hw(2), "count/op"},
        {"hw.llc_miss_per_op", hw(3), "count/op"},
        {"hw.branch_miss_per_op", hw(4), "count/op"},
        {"trace.overhead", ratio(plain_r.ops_per_s(), tr.ops_per_s()), "ratio"},
        {"baseline.skiplist.ops_per_s", skiplist_ops, "ops/s"},
        {"baseline.map.ops_per_s", map_ops, "ops/s"},
        {"baseline.skiptrie_over_skiplist", ratio(plain_r.ops_per_s(), skiplist_ops), "ratio"},
        {"service.request_p50_ns", svc.pooled_latency_ns(0.50), "ns"},
        {"service.request_p99_ns", svc.pooled_latency_ns(0.99), "ns"},
        {"service.queue_wait_ns_per_subtask",
         ratio(static_cast<double>(svc.counters.queue_wait_ns),
               static_cast<double>(svc.counters.service_subtasks)),
         "ns"},
        {"service.queue_full_waits", static_cast<double>(svc.counters.queue_full_waits),
         "count"},
    };

    if (!a.out_dir.empty()) {
      const std::string path = a.out_dir + "/trace-" + in.spec->name + "-" +
                               std::to_string(a.seed) + ".csv";
      if (write_spans(path, logs)) {
        std::printf("# spans written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
    std::printf("# workload %s seed %llu traced: %llu ops, skiptrie %.4g ops/s "
                "untraced, %.4g traced\n",
                in.spec->name, static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(tr.ops), plain_r.ops_per_s(),
                tr.ops_per_s());
    print_human(ms);
    print_result(failed == 0, std::max<uint64_t>(attempted, 1), failed, ms);
    return 0;
  }
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: wallbench --workload <read_large_uniform|read_small_zipf|"
               "churn_uniform|batch_sharded> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--scale-shift <k>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--scale-shift") {
      a.shift = static_cast<uint32_t>(std::strtoul(v.c_str(), &end, 10));
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
    if (end != nullptr && (*end != '\0' || v.empty())) usage(("bad value for " + k).c_str());
  }
  if (find_spec(a.workload) == nullptr) usage("unknown or missing --workload");
  if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds must be in (0, 120]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.shift > 10) usage("--scale-shift must be at most 10");
  return a;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  const Args a = parse(argc, argv);
  latency_pool();
  Inputs in;
  in.spec = find_spec(a.workload);
  in.seed = a.seed;
  if (in.spec->read_only) {
    in.read = make_read_inputs(*in.spec, a.seed, a.shift);
  } else {
    in.write = make_write_space(*in.spec, a.seed, a.shift);
  }
  in.finish();
  if (in.spec->sharded) {
    const Runner<ShardedEngine> r{in, a};
    return a.trace ? r.traced() : r.plain();
  }
  const Runner<SkipTrie> r{in, a};
  return a.trace ? r.traced() : r.plain();
}
