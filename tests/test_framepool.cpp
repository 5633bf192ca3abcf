// Per-thread coroutine frame cache. A block released on a thread joins
// that thread's free lists, whichever thread allocated it, and a thread's
// lists go back to the heap when it exits. These tests drive the cache
// contract and the cross-thread hand-off on real threads, so the TSan job
// sees every hand-off and LeakSanitizer sees every thread's teardown.
//
// Style: each scenario runs its thread bodies through parallelExecute,
// which starts them behind a common barrier and reports whether they all
// finished within a time bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/framepool.hpp"

namespace colibri::sim {
namespace {

using namespace std::chrono_literals;

/// Run every body on its own thread, released together by a barrier.
/// Returns true iff all bodies finished within `limit`. Always joins, so
/// a hang shows up as the suite's CTest timeout rather than a detached
/// thread outliving its captures.
bool parallelExecute(std::chrono::milliseconds limit,
                     std::vector<std::function<void()>> bodies) {
  std::barrier start(static_cast<std::ptrdiff_t>(bodies.size()));
  std::mutex mu;
  std::condition_variable cv;
  std::size_t finished = 0;
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  for (auto& body : bodies) {
    threads.emplace_back([&start, &mu, &cv, &finished, &body] {
      start.arrive_and_wait();
      body();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++finished;
      }
      cv.notify_all();
    });
  }
  bool inTime;
  {
    std::unique_lock<std::mutex> lock(mu);
    inTime = cv.wait_for(lock, limit,
                         [&] { return finished == bodies.size(); });
  }
  for (auto& t : threads) {
    t.join();
  }
  return inTime;
}

// On a fresh thread the first allocation of a class misses the cache and
// takes the heap; once that block is released, the next allocation of the
// class is a cache hit and hands the same block back.
TEST(FramePool, FreshThreadMissesThenReusesTheReleasedBlock) {
  constexpr std::size_t kFrameBytes = 200;  // the 256-byte class
  void* first = nullptr;
  void* second = nullptr;
  std::uint64_t heapOnMiss = 0;
  std::uint64_t pooledOnMiss = 0;
  std::uint64_t heapOnHit = 0;
  std::uint64_t pooledOnHit = 0;
  std::thread fresh([&] {
    const auto heap0 = framepool::heapFrameCount();
    const auto pooled0 = framepool::pooledFrameCount();
    first = framepool::allocate(kFrameBytes);
    std::memset(first, 0xA5, kFrameBytes);
    heapOnMiss = framepool::heapFrameCount() - heap0;
    pooledOnMiss = framepool::pooledFrameCount() - pooled0;
    framepool::release(first);
    second = framepool::allocate(kFrameBytes + 40);  // same class
    heapOnHit = framepool::heapFrameCount() - heap0;
    pooledOnHit = framepool::pooledFrameCount() - pooled0;
    framepool::release(second);
  });
  fresh.join();
  EXPECT_EQ(heapOnMiss, 1u);
  EXPECT_EQ(pooledOnMiss, 0u);
  EXPECT_EQ(heapOnHit, 1u) << "the cached block was not reused";
  EXPECT_EQ(pooledOnHit, 1u);
  EXPECT_EQ(second, first);
}

// A frame released during the thread's teardown, after its cache has
// been drained, goes straight to the heap instead of onto a dead list
// (LeakSanitizer in the ASan job reports it otherwise).
TEST(FramePool, ReleaseAfterThreadCacheTeardownGoesToTheHeap) {
  struct LateRelease {
    void* p = nullptr;
    ~LateRelease() { framepool::release(p); }
  };
  std::thread t([] {
    // Constructed before the thread first touches the cache, so it is
    // destroyed after the cache is.
    thread_local LateRelease late;
    late.p = framepool::allocate(100);
    framepool::release(framepool::allocate(100));  // cache one block
  });
  t.join();
}

// Producer/consumer churn over mixed size classes: one thread allocates
// and stamps frames, the other verifies the stamp and frees them, both at
// full speed. A block handed out twice, or recycled while still live,
// breaks a stamp (and is a race TSan reports).
TEST(FramePool, CrossThreadChurnKeepsBlocksExclusive) {
  constexpr std::size_t kFrames = 20'000;
  constexpr std::size_t kSizes[] = {48, 120, 200, 400, 900, 1800};
  std::mutex mu;
  std::condition_variable cv;
  std::deque<void*> handoff;
  bool done = false;
  std::size_t corrupt = 0;
  // Each thread's frame counts, sampled on that thread around its body.
  struct Counts {
    std::uint64_t pooled = 0;
    std::uint64_t heap = 0;
  };
  auto countsNow = [] {
    return Counts{framepool::pooledFrameCount(), framepool::heapFrameCount()};
  };
  auto since = [&countsNow](const Counts& before) {
    const Counts now = countsNow();
    return Counts{now.pooled - before.pooled, now.heap - before.heap};
  };
  Counts producer;
  Counts consumer;
  const Counts mainBefore = countsNow();

  auto stamp = [](void* p, std::size_t n, std::uint8_t v) {
    std::memset(p, v, n);
  };
  auto sizeOf = [&](std::size_t i) { return kSizes[i % std::size(kSizes)]; };

  const bool inTime = parallelExecute(
      30s,
      {[&] {
         const Counts before = countsNow();
         for (std::size_t i = 0; i < kFrames; ++i) {
           void* p = framepool::allocate(sizeOf(i));
           stamp(p, sizeOf(i), static_cast<std::uint8_t>(i));
           {
             std::lock_guard<std::mutex> lock(mu);
             handoff.push_back(p);
           }
           cv.notify_one();
         }
         {
           std::lock_guard<std::mutex> lock(mu);
           done = true;
         }
         cv.notify_one();
         producer = since(before);
       },
       [&] {
         const Counts before = countsNow();
         for (std::size_t i = 0;; ++i) {
           void* p;
           {
             std::unique_lock<std::mutex> lock(mu);
             cv.wait(lock, [&] { return !handoff.empty() || done; });
             if (handoff.empty()) {
               break;
             }
             p = handoff.front();
             handoff.pop_front();
           }
           const auto* bytes = static_cast<const std::uint8_t*>(p);
           const auto want = static_cast<std::uint8_t>(i);
           if (!std::all_of(bytes, bytes + sizeOf(i),
                            [want](std::uint8_t b) { return b == want; })) {
             ++corrupt;
           }
           stamp(p, sizeOf(i), 0xDD);
           framepool::release(p);
         }
         consumer = since(before);
       }});

  EXPECT_TRUE(inTime) << "cross-thread churn exceeded its time bound";
  EXPECT_EQ(corrupt, 0u);
  EXPECT_TRUE(handoff.empty());
  // The counters are per thread: every allocation was counted exactly
  // once, on the producer, as a heap frame. The consumer's releases fill
  // its own lists, never the producer's, so the producer keeps missing.
  // The consumer allocated nothing, and neither did this thread.
  EXPECT_EQ(producer.heap, kFrames);
  EXPECT_EQ(producer.pooled, 0u);
  EXPECT_EQ(consumer.heap, 0u);
  EXPECT_EQ(consumer.pooled, 0u);
  const Counts mainThread = since(mainBefore);
  EXPECT_EQ(mainThread.heap, 0u);
  EXPECT_EQ(mainThread.pooled, 0u);
}

}  // namespace
}  // namespace colibri::sim
