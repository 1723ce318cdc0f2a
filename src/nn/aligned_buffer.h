#ifndef DEEPAQP_NN_ALIGNED_BUFFER_H_
#define DEEPAQP_NN_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace deepaqp::nn {

/// Cache-line / SIMD-friendly allocation boundary. 64 bytes covers a full
/// AVX-512 register and the cache-line size of every CPU we target, so any
/// buffer allocated on this boundary is safe for aligned vector loads of
/// every width the kernel layer uses.
inline constexpr std::size_t kBufferAlign = 64;

/// Allocations at least this large get a transparent-huge-page hint. 2 MiB
/// is the x86-64 huge-page size; pool-sized sample buffers and packed GEMM
/// panels clear it, per-row scratch does not.
inline constexpr std::size_t kHugePageAdviseBytes = std::size_t{2} << 20;

/// Best-effort `madvise(MADV_HUGEPAGE)` over the page-aligned interior of
/// [p, p + bytes) for allocations above kHugePageAdviseBytes. Fewer TLB
/// misses on the multi-megabyte buffers the hot paths stream over (sample
/// pools, packed panels, columnar tables). Graceful everywhere it cannot
/// help: non-Linux builds, kernels without THP, and madvise failures are
/// all silent no-ops — the hint never affects correctness, only paging.
inline void MaybeAdviseHugePages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (p == nullptr || bytes < kHugePageAdviseBytes) return;
  static const std::uintptr_t page_size = [] {
    const long sz = ::sysconf(_SC_PAGESIZE);
    return static_cast<std::uintptr_t>(sz > 0 ? sz : 4096);
  }();
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (addr + page_size - 1) & ~(page_size - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(page_size - 1);
  if (hi <= lo) return;
  (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Minimal std::allocator replacement that hands out kBufferAlign-aligned
/// storage via C++17 aligned operator new (with a huge-page hint on blocks
/// above kHugePageAdviseBytes). Stateless, so vectors with this allocator
/// swap/move exactly like plain ones.
template <typename T, std::size_t Alignment = kBufferAlign>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two no smaller than alignof(T)");

  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(size_type n) {
    T* p = static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
    MaybeAdviseHugePages(p, n * sizeof(T));
    return p;
  }

  void deallocate(T* p, size_type n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// The buffer type used by Matrix storage and the kernel pack scratch:
/// a std::vector whose data() is always kBufferAlign-aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose value-less construct() default-initializes
/// instead of value-initializing: for trivially-constructible element types
/// resize() then allocates *without writing* the new elements, so a buffer
/// sized on one thread and then filled in parallel (Table::AssignRows under
/// ParallelFor) is written once, by the lanes that fill it, instead of
/// being zeroed first; under Linux's first-touch placement each page also
/// lands where its writer runs. The cost is a contract: new elements are
/// indeterminate until the caller overwrites them, so this allocator is
/// only for containers whose growth paths fully assign what they expose
/// (columnar Table storage; NOT Matrix, whose users rely on zeroed growth).
template <typename T, std::size_t Alignment = kBufferAlign>
class FirstTouchAllocator : public AlignedAllocator<T, Alignment> {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "FirstTouchAllocator requires trivial element types");

  using value_type = T;

  template <typename U>
  struct rebind {
    using other = FirstTouchAllocator<U, Alignment>;
  };

  FirstTouchAllocator() noexcept = default;
  template <typename U>
  FirstTouchAllocator(const FirstTouchAllocator<U, Alignment>&) noexcept {}

  /// Default-initialization: a no-op for trivial T (no page touch).
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Column storage for big streamed-over buffers: aligned, huge-page-hinted,
/// first-touch-deferred growth.
template <typename T>
using FirstTouchVector = std::vector<T, FirstTouchAllocator<T>>;

/// True when `p` sits on a kBufferAlign boundary (nullptr counts: an empty
/// buffer has nothing to misalign). Used by the debug-build asserts.
inline bool IsBufferAligned(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % kBufferAlign) == 0;
}

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_ALIGNED_BUFFER_H_
