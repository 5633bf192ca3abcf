#include "arch/address.hpp"

#include <algorithm>

namespace colibri::arch {

Addr Allocator::allocGlobal(std::uint64_t n) {
  const std::uint64_t numBanks = map_.numBanks();
  // Start past every per-bank cursor so interleaved rows never collide with
  // earlier tile-local allocations.
  for (const auto cursor : nextOffsetPerBank_) {
    nextGlobalOffset_ = std::max(nextGlobalOffset_, cursor);
  }
  const Addr base = nextGlobalOffset_ * numBanks;
  COLIBRI_CHECK_MSG(base + n <= map_.numWords(), "SPM exhausted (global)");
  // Advance whole interleaving rows and keep per-bank cursors consistent so
  // local allocations never collide with global ones.
  const std::uint64_t rows = (n + numBanks - 1) / numBanks;
  nextGlobalOffset_ += rows;
  for (auto& cursor : nextOffsetPerBank_) {
    cursor = std::max(cursor, nextGlobalOffset_);
  }
  return base;
}

std::vector<Addr> Allocator::allocLocal(TileId t, std::uint64_t n) {
  std::vector<Addr> out;
  out.reserve(n);
  const std::uint32_t banksPerTile = map_.banksPerTile();
  const BankId first = t * banksPerTile;
  for (std::uint64_t i = 0; i < n; ++i) {
    // Round-robin across the tile's banks to spread local traffic.
    const BankId b = first + static_cast<BankId>(i % banksPerTile);
    out.push_back(allocInBank(b));
  }
  return out;
}

Addr Allocator::allocInBank(BankId b) {
  COLIBRI_CHECK(b < map_.numBanks());
  std::uint64_t& cursor = nextOffsetPerBank_[b];
  COLIBRI_CHECK_MSG(cursor < map_.wordsPerBank(), "SPM exhausted (bank)");
  return map_.compose(b, cursor++);
}

}  // namespace colibri::arch
