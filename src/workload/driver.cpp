#include "workload/driver.h"

#include <algorithm>
#include <sstream>

namespace skiptrie {

const char* op_type_name(OpType t) {
  switch (t) {
    case OpType::kInsert: return "insert";
    case OpType::kErase: return "erase";
    case OpType::kPredecessor: return "predecessor";
    case OpType::kLookup: return "lookup";
  }
  return "?";
}

namespace detail {

double percentile_ns(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return static_cast<double>(samples[idx]);
}

}  // namespace detail

double WorkloadResult::latency_percentile_ns(double q) const {
  std::vector<uint64_t> all;
  all.reserve(latency_samples());
  for (const OpTypeStats& ts : by_type) {
    all.insert(all.end(), ts.latency_ns.begin(), ts.latency_ns.end());
  }
  return detail::percentile_ns(std::move(all), q);
}

double WorkloadResult::latency_percentile_ns(OpType t, double q) const {
  return detail::percentile_ns(of(t).latency_ns, q);
}

uint64_t WorkloadResult::latency_samples() const {
  uint64_t n = 0;
  for (const OpTypeStats& ts : by_type) n += ts.latency_ns.size();
  return n;
}

std::string WorkloadResult::summary() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << total_ops << " ops in " << seconds << "s = " << mops() << " Mops/s"
     << "; search steps/op " << search_steps_per_op()
     << "; total steps/op " << total_steps_per_op();
  if (latency_samples() > 0) {
    os.precision(0);
    os << "; p50 " << latency_percentile_ns(0.50) << "ns p99 "
       << latency_percentile_ns(0.99) << "ns";
    os.precision(2);
  }
  os << "; hops " << steps.node_hops << " (top " << steps.hops_top
     << " descent " << steps.hops_descent << ")"
     << " probes " << steps.hash_probes
     << " (lookups " << steps.probes_lookup << " chain " << steps.probes_chain
     << " binsearch " << steps.probes_binsearch << ")"
     << " back " << steps.back_steps << " prev " << steps.prev_steps
     << " restarts " << steps.restarts << " walk_fb " << steps.walk_fallbacks;
  if (steps.batch_ops > 0) {
    const uint64_t warm = steps.cursor_reuses + steps.cursor_redescends;
    os << "; batch " << steps.batch_keys << " keys/" << steps.batch_ops
       << " calls, cursor " << steps.cursor_reuses << "/" << warm
       << " reuses";
    if (warm > 0) {
      os << " (" << 100.0 * static_cast<double>(steps.cursor_reuses) /
                       static_cast<double>(warm)
         << "%)";
    }
  }
  return os.str();
}

}  // namespace skiptrie
