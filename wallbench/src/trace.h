// In-memory span log for the traced run.
//
// A span is one timed call across a layer boundary: its name, start and end
// (steady_clock ns), the span that caused it and the request it belongs to.
// Each thread appends to its own log, so recording takes no lock; the logs
// are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wallbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span names.  The order is the numbering used in the written trace.
enum SpanName : uint32_t {
  kCorePredecessor,
  kCoreContains,
  kCoreInsert,
  kCoreErase,
  kCorePredecessorBatch,
  kCoreContainsBatch,
  kCoreInsertBatch,
  kCoreEraseBatch,
  kProbePredecessor,  // one predecessor query replayed layer by layer
  kReclaimPin,        // EbrDomain::Guard construction
  kReclaimUnpin,      // EbrDomain::Guard destruction
  kReclaimPin16,      // 16 Guard enter/exit pairs back to back
  kXfastPredStart,    // trie().pred_start()
  kSkiplistDescend,   // engine().descend() from the pred_start result
  kHashLookupHit,     // trie().map().lookup() of a live prefix key
  kHashLookupMiss,    // trie().map().lookup() of an absent key
  kProbeContains,     // quiescent public calls made by the layer probes
  kProbeInsert,
  kProbeErase,
  kSpanNameCount
};

inline const char* span_name(uint32_t n) {
  static const char* const kNames[kSpanNameCount] = {
      "core.predecessor",       "core.contains",       "core.insert",
      "core.erase",             "core.predecessor_batch",
      "core.contains_batch",    "core.insert_batch",   "core.erase_batch",
      "probe.predecessor",      "reclaim.pin",         "reclaim.unpin",
      "reclaim.pin16",          "xfast.pred_start",    "skiplist.descend",
      "hash.lookup_hit",        "hash.lookup_miss",    "probe.contains",
      "probe.insert",           "probe.erase"};
  return n < kSpanNameCount ? kNames[n] : "?";
}

struct Span {
  uint32_t name;
  int32_t parent;  // index of the causing span in the same log, -1 for a root
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : cap_(capacity) { spans_.reserve(capacity); }

  // Returns the span's index, or -1 (dropping the span) once the log is full.
  int32_t add(uint32_t name, int32_t parent, uint64_t request, int64_t start,
              int64_t end) {
    if (spans_.size() >= cap_) return -1;
    spans_.push_back(Span{name, parent, request, start, end});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ns) of every span with this name.
  void durations(uint32_t name, std::vector<double>& out) const {
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }

 private:
  size_t cap_;
  std::vector<Span> spans_;
};

// Writes every log as CSV: thread,id,name,parent,request,start_ns,end_ns.
// Returns false if the file could not be written.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,id,name,parent,request,start_ns,end_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%s,%d,%llu,%lld,%lld\n", t, i, span_name(s.name),
                   s.parent, static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace wallbench
