#include "sim/demand_zero.hpp"

#include <sys/mman.h>

#include <new>

namespace colibri::sim::demand_zero {

void* map(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
#ifdef MADV_NOHUGEPAGE
  // With transparent huge pages always on, one written word would make a
  // whole 2 MiB page resident. Advisory only: a failure changes nothing
  // but the residency.
  (void)::madvise(p, bytes, MADV_NOHUGEPAGE);
#endif
  return p;
}

void unmap(void* p, std::size_t bytes) noexcept { ::munmap(p, bytes); }

}  // namespace colibri::sim::demand_zero
