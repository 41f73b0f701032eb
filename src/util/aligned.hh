/**
 * @file
 * Over-aligned storage for SIMD kernels.
 *
 * The vector paths in util/simd load 32 bytes at a time; giving the
 * backing stores 32-byte alignment lets those loops use aligned
 * loads on freshly built vectors (mmap-ed v3 arenas stay on
 * unaligned loads — the file format only guarantees element
 * alignment). The allocator changes where the buffer starts, never
 * the element layout, so serialized bytes are identical.
 */

#ifndef PCAUSE_UTIL_ALIGNED_HH
#define PCAUSE_UTIL_ALIGNED_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace pcause
{

/** Alignment (bytes) of SIMD-scanned buffers: one AVX2 vector. */
inline constexpr std::size_t simdAlignment = 32;

/**
 * Minimal allocator handing out @p Alignment-aligned buffers. With
 * @p ZeroFill false, a sized construction or resize() leaves the new
 * elements unwritten, so the code that fills them also touches their
 * pages first, on whichever thread fills each part.
 */
template <typename T, std::size_t Alignment, bool ZeroFill = true>
struct AlignedAlloc
{
    static_assert((Alignment & (Alignment - 1)) == 0,
                  "alignment must be a power of two");
    static_assert(Alignment >= alignof(T),
                  "alignment below the type's natural alignment");

    using value_type = T;

    AlignedAlloc() = default;

    template <typename U>
    AlignedAlloc(const AlignedAlloc<U, Alignment, ZeroFill> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAlloc<U, Alignment, ZeroFill>;
    };

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{Alignment}));
    }

    void deallocate(T *p, std::size_t n) noexcept
    {
        ::operator delete(p, n * sizeof(T),
                          std::align_val_t{Alignment});
    }

    /** Default-initialize (leave unwritten) where a zero-filling
     *  allocator would value-initialize. */
    template <typename U>
        requires(!ZeroFill)
    void construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }

    friend bool operator==(const AlignedAlloc &,
                           const AlignedAlloc &) noexcept
    {
        return true;
    }
};

/** BitVec backing words, 32-byte aligned. */
using WordVec =
    std::vector<std::uint64_t, AlignedAlloc<std::uint64_t, simdAlignment>>;

/** Sparse position arenas, 32-byte aligned; sized ones start
 *  unwritten (the loader and the batch build fill them in shards). */
using PosVec = std::vector<std::uint32_t,
                           AlignedAlloc<std::uint32_t, simdAlignment, false>>;

// The PCDB v5 on-disk layout stores these vectors verbatim; the
// allocator must not change what a serialized element looks like.
static_assert(sizeof(WordVec::value_type) == 8 &&
                  sizeof(PosVec::value_type) == 4,
              "PCDB element sizes changed");

} // namespace pcause

#endif // PCAUSE_UTIL_ALIGNED_HH
