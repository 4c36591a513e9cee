// A perf_event_open counter group for the calling thread, user mode only.
//
// Counts cycles, instructions, L1d read misses, LLC misses and branch misses
// while enabled.  A counter the kernel refuses to open, or never schedules,
// reads as nullopt rather than 0, so a report can tell "not measured" from
// "measured zero".
#pragma once

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>

namespace wallbench {

class PerfGroup {
 public:
  // Counter order: cycles, instructions, L1d misses, LLC misses, branch
  // misses.
  static constexpr int kCount = 5;
  using Values = std::array<std::optional<uint64_t>, kCount>;

  PerfGroup() {
    const std::array<std::pair<uint32_t, uint64_t>, kCount> events = {{
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
        {PERF_TYPE_HW_CACHE, PERF_COUNT_HW_CACHE_L1D |
                                 (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                                 (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    }};
    for (int i = 0; i < kCount; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.size = sizeof(attr);
      attr.type = events[i].first;
      attr.config = events[i].second;
      attr.disabled = leader_ < 0 ? 1 : 0;
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format =
          PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
      fds_[i] = static_cast<int>(
          syscall(SYS_perf_event_open, &attr, 0, -1, leader_, 0));
      if (fds_[i] >= 0 && leader_ < 0) leader_ = fds_[i];
    }
  }
  ~PerfGroup() {
    for (int fd : fds_) {
      if (fd >= 0) close(fd);
    }
  }
  PerfGroup(const PerfGroup&) = delete;
  PerfGroup& operator=(const PerfGroup&) = delete;

  void start() {
    if (leader_ < 0) return;
    ioctl(leader_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(leader_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  }
  void stop() {
    if (leader_ >= 0) ioctl(leader_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  }

  // Counts since start(), scaled up if the kernel multiplexed the group;
  // nullopt where it refused or never ran the counter.
  Values read() const {
    Values v;
    for (int i = 0; i < kCount; ++i) {
      uint64_t buf[3] = {0, 0, 0};  // value, time enabled, time running
      if (fds_[i] < 0 || ::read(fds_[i], buf, sizeof(buf)) != sizeof(buf) ||
          buf[2] == 0) {
        continue;
      }
      v[i] = static_cast<uint64_t>(static_cast<double>(buf[0]) *
                                   static_cast<double>(buf[1]) /
                                   static_cast<double>(buf[2]));
    }
    return v;
  }

 private:
  int fds_[kCount];
  int leader_ = -1;
};

}  // namespace wallbench
