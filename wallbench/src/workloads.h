// The four closed-loop workloads: their inputs, made from the seed alone, and
// the per-thread clients that issue calls and check every reply.
//
// A client is the generator and the oracle of one closed-loop caller.
// next() fills the next call; check() returns how many of its results
// contradict the oracle.  Read workloads replay a precomputed stream whose
// expected answers come from a sorted-vector oracle built before the timed
// phase, so checking a reply is one comparison.  Write workloads give each
// thread its own residue class of keys and check that class against a
// per-thread shadow set; reads span all keys and are checked for what a
// concurrent history still guarantees.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wallbench {

constexpr uint32_t kUniverseBits = 32;
constexpr uint64_t kUniverse = 1ull << kUniverseBits;
constexpr uint32_t kMaxCall = 64;
// "No predecessor" in an expected answer.  Read workloads never draw the key
// 2^32 - 1, so the value is free.
constexpr uint32_t kNoKey = 0xFFFFFFFFu;

enum Op : uint8_t { kPred = 0, kContains, kInsert, kErase };

struct Call {
  uint32_t n = 0;
  bool batch = false;  // one batch API call over all n keys (all one op)
  Op op[kMaxCall];
  uint64_t key[kMaxCall];
  // Read streams: the expected answer.  Write spaces: the candidate index.
  uint32_t aux[kMaxCall];
};

struct Reply {
  uint8_t flag[kMaxCall];
  std::optional<uint64_t> pred[kMaxCall];
};

// splitmix64: small, fast and good enough for input generation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t operator()() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return (*this)() % n; }
  double unit() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// A seed for one purpose (arm, thread, ...) derived from the run's seed.
inline uint64_t derive(uint64_t seed, uint64_t a, uint64_t b = 0) {
  Rng r(seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full));
  r();
  return r();
}

struct Spec {
  const char* name;
  uint32_t threads;
  bool read_only;  // replays a precomputed stream
  bool sharded;    // drives a ShardedEngine through its batch API
  uint32_t per_call;
};

inline const Spec* find_spec(const std::string& name) {
  static const Spec kSpecs[] = {
      {"read_large_uniform", 4, true, false, 1},
      {"read_small_zipf", 1, true, false, 1},
      {"churn_uniform", 2, false, false, 1},
      {"batch_sharded", 2, false, true, 64},
  };
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// Sorted-vector oracle with a bucket index on the high key bits.
class Oracle {
 public:
  Oracle(const std::vector<uint64_t>& sorted, uint32_t space_bits)
      : keys_(sorted), shift_(space_bits > 16 ? space_bits - 16 : 0) {
    // Bucket b holds the keys whose high bits are b; one extra bucket at the
    // end catches queries beyond the space.
    start_.assign(kBuckets + 2, 0);
    size_t i = 0;
    for (size_t b = 0; b < start_.size(); ++b) {
      while (i < keys_.size() && (keys_[i] >> shift_) < b) ++i;
      start_[b] = i;
    }
  }
  std::optional<uint64_t> pred(uint64_t q) const {
    const uint64_t b = std::min<uint64_t>(q >> shift_, kBuckets);
    const auto first = keys_.begin() + static_cast<ptrdiff_t>(start_[b]);
    const auto last = keys_.begin() + static_cast<ptrdiff_t>(start_[b + 1]);
    const auto it = std::upper_bound(first, last, q);
    if (it == keys_.begin()) return std::nullopt;
    return *(it - 1);
  }
  bool contains(uint64_t q) const {
    const auto p = pred(q);
    return p.has_value() && *p == q;
  }

 private:
  static constexpr uint64_t kBuckets = 1u << 16;
  const std::vector<uint64_t>& keys_;
  uint32_t shift_;
  std::vector<size_t> start_;
};

// ---- Read workloads -------------------------------------------------------

struct Entry {
  uint32_t key;
  uint32_t expect;  // predecessor (kNoKey = none) or contains (0/1)
  Op op;
};

struct ReadInputs {
  std::vector<uint64_t> keys;    // sorted
  std::vector<uint64_t> order;   // the same keys in prefill order
  std::vector<Entry> stream;     // the queries every read client replays
  uint32_t space_bits = kUniverseBits;
};

// read_large_uniform: 2^20 uniform keys, uniform predecessor queries.
// read_small_zipf: 2^13 keys from [0, 2^16), zipf(0.99) queries over
// [0, 2^16), half predecessor and half contains.
inline ReadInputs make_read_inputs(const Spec& spec, uint64_t seed,
                                   uint32_t shift) {
  ReadInputs in;
  Rng rng(derive(seed, 1));
  const bool large = std::string(spec.name) == "read_large_uniform";
  in.space_bits = large ? kUniverseBits : 16;
  const size_t n = std::max<size_t>((large ? 1u << 20 : 1u << 13) >> shift, 64);
  const size_t len = std::max<size_t>((1u << 22) >> shift, 1u << 12);
  if (large) {
    while (in.keys.size() < n) {
      while (in.keys.size() < n) in.keys.push_back(rng.below(kUniverse - 1));
      std::sort(in.keys.begin(), in.keys.end());
      in.keys.erase(std::unique(in.keys.begin(), in.keys.end()), in.keys.end());
    }
    in.order = in.keys;
    for (size_t i = in.order.size(); i > 1; --i) {
      std::swap(in.order[i - 1], in.order[rng.below(i)]);
    }
  } else {
    std::vector<uint64_t> all(1u << 16);
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    for (size_t i = all.size(); i > 1; --i) std::swap(all[i - 1], all[rng.below(i)]);
    in.order.assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(n));
    in.keys = in.order;
    std::sort(in.keys.begin(), in.keys.end());
  }
  const Oracle oracle(in.keys, in.space_bits);
  // Zipf ranks map to values through a seeded permutation, so hot queries
  // are scattered over the key space rather than packed at its low end.
  std::vector<double> cdf;
  std::vector<uint32_t> value_of_rank;
  if (!large) {
    const double s = 0.99;
    cdf.resize(1u << 16);
    double sum = 0;
    for (size_t r = 0; r < cdf.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf[r] = sum;
    }
    for (double& c : cdf) c /= sum;
    value_of_rank.resize(cdf.size());
    for (size_t i = 0; i < value_of_rank.size(); ++i) {
      value_of_rank[i] = static_cast<uint32_t>(i);
    }
    for (size_t i = value_of_rank.size(); i > 1; --i) {
      std::swap(value_of_rank[i - 1], value_of_rank[rng.below(i)]);
    }
  }
  in.stream.resize(len);
  for (Entry& e : in.stream) {
    if (large) {
      e.key = static_cast<uint32_t>(rng.below(kUniverse));
      e.op = kPred;
    } else {
      const size_t r = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.unit()) - cdf.begin());
      e.key = value_of_rank[std::min(r, cdf.size() - 1)];
      e.op = rng.below(2) == 0 ? kPred : kContains;
    }
    if (e.op == kPred) {
      const auto p = oracle.pred(e.key);
      e.expect = p ? static_cast<uint32_t>(*p) : kNoKey;
    } else {
      e.expect = oracle.contains(e.key) ? 1 : 0;
    }
  }
  return in;
}

class StreamClient {
 public:
  StreamClient(const std::vector<Entry>& stream, size_t start)
      : s_(&stream), pos_(start % stream.size()) {}

  void next(Call& c, uint32_t n) {
    c.n = n;
    c.batch = false;
    for (uint32_t i = 0; i < n; ++i) {
      const Entry& e = (*s_)[pos_];
      if (++pos_ == s_->size()) pos_ = 0;
      c.op[i] = e.op;
      c.key[i] = e.key;
      c.aux[i] = e.expect;
    }
  }

  uint64_t check(const Call& c, const Reply& r, bool /*in_order*/) const {
    uint64_t bad = 0;
    for (uint32_t i = 0; i < c.n; ++i) {
      if (c.op[i] == kPred) {
        const uint64_t got = r.pred[i] ? *r.pred[i] : kNoKey;
        bad += got != c.aux[i];
      } else {
        bad += (r.flag[i] != 0) != (c.aux[i] != 0);
      }
    }
    return bad;
  }

 private:
  const std::vector<Entry>* s_;
  size_t pos_;
};

// ---- Write workloads ------------------------------------------------------

// The keys a write workload may touch, as a sorted candidate list.  Calls
// address candidates by index; a thread owns the indices congruent to its
// id modulo the thread count.
struct WriteSpace {
  std::vector<uint64_t> cand;     // sorted candidate keys
  uint32_t cluster_len = 0;       // candidates per cluster (0: no clusters)
  std::vector<uint32_t> prefill;  // candidate indices set up, in prefill order
  uint32_t mix[4] = {};           // cumulative percent: pred, contains, insert
  bool batch = false;             // calls are 64-key batches over 2 clusters

  uint32_t clusters() const {
    return cluster_len == 0 ? 1 : static_cast<uint32_t>(cand.size() / cluster_len);
  }
  // Distance to the next candidate; queries land in [cand[i], cand[i] + gap).
  uint64_t gap(uint32_t i) const {
    return (i + 1 < cand.size() ? cand[i + 1] : kUniverse) - cand[i];
  }
};

// churn_uniform: every key of [0, 2^16) is a candidate, half prefilled;
// 10% predecessor / 10% contains / 40% insert / 40% erase.
// batch_sharded: 2^11 clusters of 256 candidates, one cluster per equal slice
// of the universe, candidates ~16 apart; half prefilled (2^18 keys); 60%
// predecessor / 30% contains / 5% insert / 5% erase batch calls.
inline WriteSpace make_write_space(const Spec& spec, uint64_t seed,
                                   uint32_t shift) {
  WriteSpace ws;
  Rng rng(derive(seed, 2));
  if (std::string(spec.name) == "churn_uniform") {
    const size_t n = std::max<size_t>((1u << 16) >> shift, 256);
    ws.cand.resize(n);
    for (size_t i = 0; i < n; ++i) ws.cand[i] = i;
    const uint32_t mix[4] = {10, 20, 60, 100};
    std::copy(mix, mix + 4, ws.mix);
  } else {
    ws.cluster_len = 256;
    ws.batch = true;
    const uint64_t clusters = std::max<uint64_t>((1u << 11) >> shift, 8);
    const uint64_t region = kUniverse / clusters;
    const uint64_t span = uint64_t{ws.cluster_len} * 16;
    for (uint64_t c = 0; c < clusters; ++c) {
      const uint64_t base = c * region + rng.below(region - span);
      for (uint64_t j = 0; j < ws.cluster_len; ++j) {
        ws.cand.push_back(base + j * 16 + rng.below(16));
      }
    }
    const uint32_t mix[4] = {60, 90, 95, 100};
    std::copy(mix, mix + 4, ws.mix);
  }
  std::vector<uint32_t> idx(ws.cand.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<uint32_t>(i);
  for (size_t i = idx.size(); i > 1; --i) std::swap(idx[i - 1], idx[rng.below(i)]);
  ws.prefill.assign(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(idx.size() / 2));
  return ws;
}

class WriteClient {
 public:
  WriteClient(const WriteSpace& ws, uint32_t tid, uint32_t threads,
              uint64_t seed)
      : ws_(&ws), tid_(tid), threads_(threads), rng_(seed),
        own_((ws.cand.size() + 63) / 64, 0) {
    for (uint32_t i : ws.prefill) {
      if (i % threads_ == tid_) set(i, true);
    }
  }

  void next(Call& c, uint32_t n) {
    c.n = n;
    c.batch = ws_->batch;
    if (ws_->batch) {
      const Op op = pick_op();
      const uint32_t c1 = static_cast<uint32_t>(rng_.below(ws_->clusters()));
      const uint32_t c2 = static_cast<uint32_t>(rng_.below(ws_->clusters()));
      for (uint32_t i = 0; i < n; ++i) fill(c, i, op, i < n / 2 ? c1 : c2);
    } else {
      for (uint32_t i = 0; i < n; ++i) fill(c, i, pick_op(), 0);
    }
  }

  // `in_order`: the call's ops took effect in input order.  A Service
  // request orders only the ops that share a shard, so for it each
  // predecessor is checked against this thread's keys that were present
  // when the call began and that the call does not write.
  uint64_t check(const Call& c, const Reply& r, bool in_order) {
    uint64_t bad = 0;
    if (!in_order) {
      for (uint32_t i = 0; i < c.n; ++i) {
        if (c.op[i] != kPred) continue;
        int64_t own = highest_own_at_or_below(c.aux[i]);
        while (own >= 0 && written(c, static_cast<uint32_t>(own))) {
          own = own == 0 ? -1 : highest_own_at_or_below(static_cast<uint32_t>(own - 1));
        }
        bad += pred_wrong(c, r, i, own);
      }
    }
    for (uint32_t i = 0; i < c.n; ++i) {
      const uint32_t idx = c.aux[i];
      switch (c.op[i]) {
        case kInsert:
          bad += (r.flag[i] != 0) == test(idx);
          set(idx, true);
          break;
        case kErase:
          bad += (r.flag[i] != 0) != test(idx);
          set(idx, false);
          break;
        case kContains:
          if (idx % threads_ == tid_) bad += (r.flag[i] != 0) != test(idx);
          break;
        case kPred:
          if (in_order) bad += pred_wrong(c, r, i, highest_own_at_or_below(idx));
          break;
      }
    }
    return bad;
  }

  // Adds this thread's present keys (candidate indices) to `out`.
  void collect(std::vector<uint32_t>& out) const {
    for (size_t i = 0; i < ws_->cand.size(); ++i) {
      if (test(static_cast<uint32_t>(i))) out.push_back(static_cast<uint32_t>(i));
    }
  }

 private:
  // A predecessor answer must be at most the query, and no smaller than
  // `own`, a key of this thread present throughout the call (only this
  // thread writes its own keys); -1 for none.
  bool pred_wrong(const Call& c, const Reply& r, uint32_t i, int64_t own) const {
    const auto& p = r.pred[i];
    return (p && *p > c.key[i]) ||
           (own >= 0 && (!p || *p < ws_->cand[static_cast<size_t>(own)]));
  }
  static bool written(const Call& c, uint32_t idx) {
    for (uint32_t i = 0; i < c.n; ++i) {
      if ((c.op[i] == kInsert || c.op[i] == kErase) && c.aux[i] == idx) return true;
    }
    return false;
  }

  Op pick_op() {
    const uint64_t r = rng_.below(100);
    if (r < ws_->mix[0]) return kPred;
    if (r < ws_->mix[1]) return kContains;
    if (r < ws_->mix[2]) return kInsert;
    return kErase;
  }

  // Candidate range of cluster `cl` (the whole space without clusters).
  void range(uint32_t cl, uint32_t& lo, uint32_t& len) const {
    if (ws_->cluster_len == 0) {
      lo = 0;
      len = static_cast<uint32_t>(ws_->cand.size());
    } else {
      lo = cl * ws_->cluster_len;
      len = ws_->cluster_len;
    }
  }

  void fill(Call& c, uint32_t i, Op op, uint32_t cl) {
    uint32_t lo = 0, len = 0;
    range(cl, lo, len);
    uint32_t idx;
    if (op == kInsert || op == kErase) {
      idx = lo + static_cast<uint32_t>(rng_.below(len / threads_)) * threads_ + tid_;
    } else {
      idx = lo + static_cast<uint32_t>(rng_.below(len));
    }
    c.op[i] = op;
    c.aux[i] = idx;
    c.key[i] = ws_->cand[idx];
    if (op == kPred) c.key[i] += rng_.below(ws_->gap(idx));
  }

  bool test(uint32_t i) const { return (own_[i >> 6] >> (i & 63)) & 1; }
  void set(uint32_t i, bool on) {
    const uint64_t bit = 1ull << (i & 63);
    own_[i >> 6] = on ? (own_[i >> 6] | bit) : (own_[i >> 6] & ~bit);
  }
  int64_t highest_own_at_or_below(uint32_t i) const {
    int64_t w = i >> 6;
    uint64_t word = own_[static_cast<size_t>(w)] &
                    ((i & 63) == 63 ? ~0ull : ((2ull << (i & 63)) - 1));
    while (word == 0) {
      if (--w < 0) return -1;
      word = own_[static_cast<size_t>(w)];
    }
    return w * 64 + 63 - __builtin_clzll(word);
  }

  const WriteSpace* ws_;
  uint32_t tid_;
  uint32_t threads_;
  Rng rng_;
  std::vector<uint64_t> own_;  // bitset over candidate indices
};

}  // namespace wallbench
