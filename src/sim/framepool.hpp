// Per-thread cache of coroutine frames (sim::Task and sim::Co promises).
//
// Every simulated core lives in a coroutine frame, and every awaited
// synchronization primitive (sim::Co) allocates another one, so frame
// allocation runs on every lock acquire of every core. Each thread keeps
// one free list per size class over the system heap: a miss (or an
// oversized frame) is one `::operator new`, and a released block goes onto
// the releasing thread's list, ready for the next frame of its class. A
// thread's lists go back to the heap when the thread exits. Nothing is
// shared between threads; the counters below are per thread too.
//
// Blocks carry a 16-byte header recording their size class (or that they
// are oversized), so release() needs no external lookup and can reject a
// double free or a foreign pointer.
#pragma once

#include <cstddef>
#include <cstdint>

namespace colibri::sim {

namespace framepool {

/// Allocate `size` bytes of frame storage (never returns nullptr; throws
/// std::bad_alloc on exhaustion like operator new).
[[nodiscard]] void* allocate(std::size_t size);

/// Return a block obtained from allocate().
void release(void* p) noexcept;

/// Number of frame allocations the calling thread served from its cache
/// since the thread started.
[[nodiscard]] std::uint64_t pooledFrameCount() noexcept;

/// Number of frame allocations the calling thread took from the system
/// heap since it started: cache misses plus oversized frames. Test hook:
/// re-running a simulation on the same thread must not move this counter.
[[nodiscard]] std::uint64_t heapFrameCount() noexcept;

}  // namespace framepool

}  // namespace colibri::sim
