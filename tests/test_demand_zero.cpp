// Demand-zero storage (the System's SPM): a fresh array reads zero, a
// write makes only its own page resident, and the mapping is released
// when the array dies.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/demand_zero.hpp"

namespace colibri::sim {
namespace {

constexpr std::size_t kBytes = std::size_t{16} << 20;  // 16 MiB
constexpr std::size_t kWords = kBytes / sizeof(std::uint32_t);

/// Pages of [p, p + bytes) that mincore reports resident.
std::size_t residentPages(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  EXPECT_EQ(::mincore(const_cast<void*>(p), bytes, vec.data()), 0);
  std::size_t n = 0;
  for (const unsigned char v : vec) {
    n += v & 1u;
  }
  return n;
}

TEST(DemandZero, FreshArrayReadsZero) {
  DemandZeroArray<std::uint32_t> a(kWords);
  ASSERT_EQ(a.size(), kWords);
  std::uint32_t any = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any |= a.data()[i];
  }
  EXPECT_EQ(any, 0u);
}

TEST(DemandZero, OneWriteMakesAtMostOnePageResident) {
  DemandZeroArray<std::uint32_t> a(kWords);
  EXPECT_EQ(residentPages(a.data(), kBytes), 0u);
  std::uint32_t* words = a.data();
  words[kWords / 2 + 3] = 0xC0FFEEu;
  EXPECT_LE(residentPages(words, kBytes), 1u);
  EXPECT_EQ(words[kWords / 2 + 3], 0xC0FFEEu);
  EXPECT_EQ(words[kWords / 2 + 2], 0u);
}

TEST(DemandZero, DestructionUnmapsTheRange) {
  void* base = nullptr;
  {
    DemandZeroArray<std::uint32_t> a(kWords);
    base = a.data();
    a.data()[0] = 1;
  }
  // mincore fails with ENOMEM on a range that is no longer mapped.
  std::vector<unsigned char> vec(kBytes / 4096 + 1);
  errno = 0;
  EXPECT_EQ(::mincore(base, kBytes, vec.data()), -1);
  EXPECT_EQ(errno, ENOMEM);
}

}  // namespace
}  // namespace colibri::sim
