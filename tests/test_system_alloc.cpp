// Heap-allocation bound on arch::System construction.
//
// This TU replaces the global allocation functions with counting ones and
// counts the allocations one System build makes at 256 and 1024 cores for
// every adapter. The SPM, banks, cores and per-core hot state are stored
// flat, so the only allocations that may scale with core or bank count are
// the per-bank adapter objects (makeAdapter), plus whatever one adapter
// allocates for itself (Colibri's slot array, the LR/SC table's per-core
// entries). Everything else must be a fixed number of allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>

#include "arch/system.hpp"
#include "atomics/adapter.hpp"
#include "mock_bank.hpp"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

void* countedAlloc(std::size_t n) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* countedAlignedAlloc(std::size_t n, std::align_val_t al) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + align - 1) / align * align;
  return std::aligned_alloc(align, size);
}

void* orThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return orThrow(countedAlloc(n)); }
void* operator new[](std::size_t n) { return orThrow(countedAlloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return orThrow(countedAlignedAlloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return orThrow(countedAlignedAlloc(n, al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace colibri::arch {
namespace {

/// Allocations a fixed System needs whatever its size: config-independent
/// bookkeeping plus one array per flat table (SPM, banks, cores, network
/// stages, clamps, ...). Generous, but far below one per bank or core.
constexpr std::uint64_t kFixedBudget = 100;

template <typename F>
std::uint64_t allocationsDuring(F&& f) {
  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  f();
  return gAllocations.load(std::memory_order_relaxed) - before;
}

SystemConfig withCores(AdapterKind k, std::uint32_t cores) {
  SystemConfig c = SystemConfig::memPool();
  c.numCores = cores;
  c.adapter = k;
  return c;
}

std::uint64_t systemBuildAllocations(const SystemConfig& cfg) {
  std::optional<System> sys;
  return allocationsDuring([&] { sys.emplace(cfg); });
}

/// Allocations makeAdapter makes for one bank of `cfg`.
std::uint64_t adapterAllocations(const SystemConfig& cfg) {
  test::MockBank ctx;
  ctx.setNumCores(cfg.numCores);
  std::unique_ptr<atomics::AtomicAdapter> adapter;
  return allocationsDuring([&] { adapter = atomics::makeAdapter(cfg, ctx); });
}

class SystemAllocations : public ::testing::TestWithParam<AdapterKind> {};

TEST_P(SystemAllocations, OnlyAdaptersScaleWithMachineSize) {
  std::uint64_t fixedAt[2] = {};
  const std::uint32_t sizes[2] = {256, 1024};
  for (int i = 0; i < 2; ++i) {
    const SystemConfig cfg = withCores(GetParam(), sizes[i]);
    const std::uint64_t total = systemBuildAllocations(cfg);
    const std::uint64_t adapters = cfg.numBanks() * adapterAllocations(cfg);
    ASSERT_GE(total, adapters) << sizes[i] << " cores";
    fixedAt[i] = total - adapters;
    EXPECT_LE(fixedAt[i], kFixedBudget)
        << sizes[i] << " cores: " << total << " allocations, " << adapters
        << " of them in adapters";
  }
  EXPECT_EQ(fixedAt[0], fixedAt[1])
      << "something besides the adapters scales with core/bank count";
}

INSTANTIATE_TEST_SUITE_P(
    AllAdapters, SystemAllocations,
    ::testing::Values(AdapterKind::kAmoOnly, AdapterKind::kLrscSingle,
                      AdapterKind::kLrscTable, AdapterKind::kLrscWait,
                      AdapterKind::kColibri),
    [](const auto& info) {
      std::string name = toString(info.param);
      std::erase(name, '-');
      return name;
    });

// Absolute bounds for the 1024-core, 4096-bank geometry: one adapter (and,
// for Colibri, one slot array) per bank, plus the fixed part.
TEST(SystemAllocations, ColibriAt1024CoresStaysUnderBound) {
  EXPECT_LE(systemBuildAllocations(withCores(AdapterKind::kColibri, 1024)),
            8300u);
}

TEST(SystemAllocations, LrscSingleAt1024CoresStaysUnderBound) {
  EXPECT_LE(systemBuildAllocations(withCores(AdapterKind::kLrscSingle, 1024)),
            4200u);
}

}  // namespace
}  // namespace colibri::arch
