// Fixed-capacity contiguous storage for objects whose address must never
// change.
//
// Banks and cores are referenced by raw pointer from queued events, from
// their adapters (BankContext&) and from coroutine awaiters, so they may
// not move after construction. std::vector cannot hold such non-movable
// types, and a vector of unique_ptrs costs one heap allocation per
// element. A PinnedArray allocates its capacity once, builds each element
// in place, and destroys them in index order when it dies.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "sim/check.hpp"

namespace colibri::sim {

template <typename T>
class PinnedArray {
 public:
  explicit PinnedArray(std::size_t capacity)
      : data_(std::allocator<T>().allocate(capacity)), capacity_(capacity) {}

  ~PinnedArray() {
    for (std::size_t i = 0; i < size_; ++i) {
      std::destroy_at(data_ + i);
    }
    std::allocator<T>().deallocate(data_, capacity_);
  }

  PinnedArray(const PinnedArray&) = delete;
  PinnedArray& operator=(const PinnedArray&) = delete;

  /// Build the next element in place; the capacity is never exceeded.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    COLIBRI_CHECK(size_ < capacity_);
    T* p = std::construct_at(data_ + size_, std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  T* data_;
  std::size_t capacity_;
  std::size_t size_ = 0;
};

}  // namespace colibri::sim
