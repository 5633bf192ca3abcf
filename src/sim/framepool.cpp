#include "sim/framepool.hpp"

#include <new>

#include "sim/check.hpp"

namespace colibri::sim::framepool {

namespace {

// Size classes cover the frames the simulator actually creates: Co<T>
// frames are small (~100-300 B), workload Task frames run larger (locals
// plus captured parameters). Anything beyond the largest class is rare
// enough to take the system heap on every allocation.
constexpr std::size_t kClassSizes[] = {64,  128,  192,  256,
                                       512, 1024, 2048, 4096};
constexpr std::size_t kNumClasses = sizeof(kClassSizes) / sizeof(std::size_t);
constexpr std::size_t kHeaderSize = 16;

// The 16-byte block header: (cls, magic) in the first 8 bytes, the
// free-list link in the second 8 — so the magic survives a block's trip
// through the free list and release() can tell a double free
// (magic == kFreedMagic) from a foreign pointer (anything else).
struct Header {
  std::uint32_t cls;    // size class index, or kHeapClass
  std::uint32_t magic;  // kMagic while live, kFreedMagic while cached
  Header* next;         // free-list link (meaningful only while cached)
};
static_assert(sizeof(Header) == 16);
constexpr std::uint32_t kHeapClass = 0xFFFFFFFFu;
constexpr std::uint32_t kMagic = 0xF4A3E001u;
constexpr std::uint32_t kFreedMagic = 0xF4A3DEADu;

std::uint32_t classFor(std::size_t size) {
  for (std::uint32_t i = 0; i < kNumClasses; ++i) {
    if (size <= kClassSizes[i]) {
      return i;
    }
  }
  return kHeapClass;
}

// This thread's cache hits and heap frames. Per thread, so a run's frame
// count is not mixed with that of runs on other threads.
thread_local std::uint64_t pooledCount = 0;
thread_local std::uint64_t heapCount = 0;

/// One thread's free lists, one per size class. Every block is a plain
/// `::operator new` allocation, so a block may be released on any thread
/// and the destructor can hand whatever its lists hold back to the heap.
struct Cache {
  Header* freeLists[kNumClasses] = {};
  ~Cache();
};

// Trivially destructible, so it stays readable after the Cache below is
// gone: frames released later in this thread's teardown skip the cache.
thread_local bool cacheDrained = false;
thread_local Cache cache;

Cache::~Cache() {
  for (Header*& list : freeLists) {
    while (list != nullptr) {
      Header* h = list;
      list = h->next;
      ::operator delete(h);
    }
  }
  cacheDrained = true;
}

}  // namespace

void* allocate(std::size_t size) {
  const std::uint32_t cls = classFor(size);
  if (cls != kHeapClass && !cacheDrained && cache.freeLists[cls] != nullptr) {
    Header* h = cache.freeLists[cls];
    cache.freeLists[cls] = h->next;
    h->magic = kMagic;
    ++pooledCount;
    return reinterpret_cast<std::byte*>(h) + kHeaderSize;
  }
  const std::size_t bytes = cls == kHeapClass ? size : kClassSizes[cls];
  auto* raw = static_cast<std::byte*>(::operator new(kHeaderSize + bytes));
  auto* h = reinterpret_cast<Header*>(raw);
  h->cls = cls;
  h->magic = kMagic;
  ++heapCount;
  return raw + kHeaderSize;
}

void release(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  auto* raw = static_cast<std::byte*>(p) - kHeaderSize;
  auto* h = reinterpret_cast<Header*>(raw);
  COLIBRI_CHECK_MSG(h->magic == kMagic,
                    "framepool::release of "
                        << (h->magic == kFreedMagic ? "an already-freed block"
                                                    : "a foreign pointer")
                        << " (p=" << p << ")");
  if (h->cls == kHeapClass || cacheDrained) {
    ::operator delete(raw);
    return;
  }
  // The block joins the *releasing* thread's list: the common case (frame
  // created and destroyed on one SweepRunner worker) stays thread-local.
  h->magic = kFreedMagic;
  h->next = cache.freeLists[h->cls];
  cache.freeLists[h->cls] = h;
}

std::uint64_t pooledFrameCount() noexcept { return pooledCount; }

std::uint64_t heapFrameCount() noexcept { return heapCount; }

}  // namespace colibri::sim::framepool
