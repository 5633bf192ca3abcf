// Coroutine frame pool across threads. exp::SweepRunner workers each bind
// a subpool on first use; a frame may be freed by a different thread than
// the one that allocated it (the block joins the freeing thread's lists),
// and a thread's subpool is parked at exit for a later thread to adopt.
// These tests drive exactly those paths on real threads, so the TSan job
// sees every cross-thread hand-off.
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

// A whole number of refill chunks (64 blocks) of one size class, so the
// allocating thread's lists end up empty once it has handed them all off.
constexpr std::size_t kFrameBytes = 200;  // the 256-byte class
constexpr std::size_t kBlocks = 4 * 64;

// Runs first in this binary on purpose: a new thread adopts the first
// parked subpool in registration order, so no earlier test may have
// parked one ahead of the freeing thread's.
TEST(FramePool, LaterThreadAdoptsAnExitedFreersLists) {
  std::vector<void*> frames;
  std::mutex mu;
  std::condition_variable cv;
  bool freed = false;
  std::vector<void*> adopted;
  std::uint64_t arenaBeforeAdopt = 0;
  std::uint64_t arenaAfterAdopt = 0;

  // The owner allocates, then stays alive (its subpool stays in use)
  // until the adopter is done, so the only parked subpool is the
  // freer's.
  std::thread owner([&] {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      void* p = framepool::allocate(kFrameBytes);
      std::memset(p, 0xA5, kFrameBytes);
      frames.push_back(p);
    }
    std::thread freer([&] {
      for (void* p : frames) {
        framepool::release(p);  // cross-thread free: joins freer's lists
      }
    });
    freer.join();  // the freer exits; its subpool is parked
    {
      std::lock_guard<std::mutex> lock(mu);
      freed = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !adopted.empty(); });
  });

  std::thread adopter([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return freed; });
    }
    arenaBeforeAdopt = framepool::arenaBytes();
    std::vector<void*> got;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      got.push_back(framepool::allocate(kFrameBytes));
    }
    arenaAfterAdopt = framepool::arenaBytes();
    for (void* p : got) {
      framepool::release(p);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      adopted = std::move(got);
    }
    cv.notify_all();
  });

  adopter.join();
  owner.join();
  // The adopter was served entirely from the freer's lists: no new chunk
  // memory, and exactly the blocks the owner had allocated.
  EXPECT_EQ(arenaAfterAdopt, arenaBeforeAdopt);
  std::sort(frames.begin(), frames.end());
  std::sort(adopted.begin(), adopted.end());
  EXPECT_EQ(adopted, frames);
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
  const auto heapBefore = framepool::heapFrameCount();

  auto stamp = [](void* p, std::size_t n, std::uint8_t v) {
    std::memset(p, v, n);
  };
  auto sizeOf = [&](std::size_t i) { return kSizes[i % std::size(kSizes)]; };

  const bool inTime = parallelExecute(
      30s,
      {[&] {
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
       },
       [&] {
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
       }});

  EXPECT_TRUE(inTime) << "cross-thread churn exceeded its time bound";
  EXPECT_EQ(corrupt, 0u);
  EXPECT_TRUE(handoff.empty());
  // Every size above is a pooled class: nothing fell back to the heap.
  EXPECT_EQ(framepool::heapFrameCount(), heapBefore);

  // Both threads have exited; later threads adopt their parked lists and
  // keep allocating and freeing on their own.
  const bool adoptInTime = parallelExecute(
      30s, {[] {
              for (std::size_t i = 0; i < 1000; ++i) {
                framepool::release(framepool::allocate(64 + i % 1000));
              }
            },
            [] {
              for (std::size_t i = 0; i < 1000; ++i) {
                framepool::release(framepool::allocate(2000 + i));
              }
            }});
  EXPECT_TRUE(adoptInTime);
}

}  // namespace
}  // namespace colibri::sim
