// Fixed-size zero-initialized storage that costs nothing until written.
//
// A System's SPM is 4 MiB at 1024 cores, of which a workload touches a few
// pages. A std::vector would zero-fill (and so make resident) all of it on
// every build. A DemandZeroArray instead reserves an anonymous private
// mapping: the kernel supplies zero pages on first access, so building one
// does no O(size) fill and only the pages actually written become
// resident. The mapping is released with munmap when the array dies.
#pragma once

#include <cstddef>
#include <type_traits>

namespace colibri::sim {

namespace demand_zero {

/// Map `bytes` (> 0) of zero-filled, not-yet-resident memory. Throws
/// std::bad_alloc if the mapping fails.
[[nodiscard]] void* map(std::size_t bytes);

/// Release a mapping obtained from map(bytes).
void unmap(void* p, std::size_t bytes) noexcept;

}  // namespace demand_zero

template <typename T>
class DemandZeroArray {
  // All-zero bytes must be a valid T, and no constructor or destructor may
  // need to run: the kernel, not this class, initializes the elements.
  static_assert(std::is_trivial_v<T>);

 public:
  explicit DemandZeroArray(std::size_t size)
      : data_(static_cast<T*>(demand_zero::map(size * sizeof(T)))),
        size_(size) {}

  ~DemandZeroArray() { demand_zero::unmap(data_, size_ * sizeof(T)); }

  DemandZeroArray(const DemandZeroArray&) = delete;
  DemandZeroArray& operator=(const DemandZeroArray&) = delete;

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  T* data_;
  std::size_t size_;
};

}  // namespace colibri::sim
