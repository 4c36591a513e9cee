#include "reclaim/ebr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace skiptrie {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& c) : counter(c) { counter.fetch_add(1); }
  ~Tracked() { counter.fetch_sub(1); }
  std::atomic<int>& counter;
};

TEST(Ebr, RetireIsDeferredUntilDrain) {
  std::atomic<int> live{0};
  EbrDomain dom;
  {
    EbrDomain::Guard g(dom);
    dom.retire_delete(new Tracked(live));
    EXPECT_EQ(live.load(), 1);  // not reclaimed while pinned
  }
  dom.drain();
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, DomainDestructorReclaimsEverything) {
  std::atomic<int> live{0};
  {
    EbrDomain dom;
    {
      EbrDomain::Guard g(dom);
      for (int i = 0; i < 100; ++i) dom.retire_delete(new Tracked(live));
    }
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, NestedGuardsShareOnePin) {
  EbrDomain dom;
  std::atomic<int> live{0};
  {
    EbrDomain::Guard g1(dom);
    {
      EbrDomain::Guard g2(dom);
      dom.retire_delete(new Tracked(live));
    }
    // Still pinned by g1: the object must not be reclaimed even if epochs
    // advance.
    dom.drain();
    EXPECT_EQ(live.load(), 1);
  }
  dom.drain();
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, PinnedReaderBlocksReclamation) {
  EbrDomain dom;
  std::atomic<int> live{0};
  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> release_reader{false};

  std::thread reader([&] {
    EbrDomain::Guard g(dom);
    reader_pinned.store(true);
    while (!release_reader.load()) std::this_thread::yield();
  });
  while (!reader_pinned.load()) std::this_thread::yield();

  {
    EbrDomain::Guard g(dom);
    dom.retire_delete(new Tracked(live));
  }
  // The reader pinned an epoch <= the retire epoch; drain must not reclaim.
  dom.drain();
  EXPECT_EQ(live.load(), 1);

  release_reader.store(true);
  reader.join();
  dom.drain();
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, EpochAdvancesWhenQuiescent) {
  EbrDomain dom;
  const uint64_t e0 = dom.global_epoch();
  {
    EbrDomain::Guard g(dom);
    for (int i = 0; i < 200; ++i) {
      dom.retire(
          nullptr, [](void*, void*) {}, nullptr);
    }
  }
  dom.drain();
  EXPECT_GT(dom.global_epoch(), e0);
}

TEST(Ebr, ManyThreadsRetireConcurrently) {
  std::atomic<int> live{0};
  {
    EbrDomain dom;
    std::vector<std::thread> ts;
    for (int t = 0; t < 8; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 2000; ++i) {
          EbrDomain::Guard g(dom);
          dom.retire_delete(new Tracked(live));
        }
      });
    }
    for (auto& th : ts) th.join();
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, ExitedThreadsOrphansAreAdopted) {
  std::atomic<int> live{0};
  EbrDomain dom;
  std::thread t([&] {
    EbrDomain::Guard g(dom);
    for (int i = 0; i < 10; ++i) dom.retire_delete(new Tracked(live));
  });
  t.join();  // thread exits with retirements possibly pending
  dom.drain();
  EXPECT_EQ(live.load(), 0);
}

TEST(Ebr, GuardAllowsConcurrentReadersProgress) {
  // Smoke test that pin/unpin from many threads doesn't deadlock or crash.
  EbrDomain dom;
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&] {
      uint64_t local = 0;
      for (int i = 0; i < 5000; ++i) {
        EbrDomain::Guard g(dom);
        local++;
      }
      total.fetch_add(local);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(total.load(), 8u * 5000u);
}

// Slot exhaustion must fail loudly in Release builds too: the thread past
// kMaxThreads gets std::length_error, and the domain keeps working for the
// threads that already hold slots.
TEST(Ebr, SlotExhaustionThrowsAndDomainStaysUsable) {
  constexpr uint32_t kThreads = EbrDomain::kMaxThreads;
  std::atomic<int> live{0};
  EbrDomain dom;
  std::latch registered(kThreads);
  std::latch overflow_checked(1);
  std::latch retired(kThreads);
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (uint32_t i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      { EbrDomain::Guard g(dom); }  // registers; the slot stays held
      registered.count_down();
      overflow_checked.wait();
      {
        EbrDomain::Guard g(dom);
        dom.retire_delete(new Tracked(live));
      }
      retired.count_down();
    });
  }
  registered.wait();
  EXPECT_THROW({ EbrDomain::Guard g(dom); }, std::length_error);
  overflow_checked.count_down();
  retired.wait();
  for (auto& t : ts) t.join();
  // Every slot was released on thread exit: this thread now registers.
  {
    EbrDomain::Guard g(dom);
    dom.retire_delete(new Tracked(live));
  }
  dom.drain();
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace skiptrie
