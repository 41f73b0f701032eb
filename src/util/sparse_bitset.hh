/**
 * @file
 * Sparse set of bit positions.
 *
 * Page-level fingerprints at realistic accuracies are sparse (~1% of
 * a 32768-bit page), so GB-scale experiments store them as sorted
 * position vectors instead of dense BitVecs. SparseBitset provides
 * the same set algebra (intersection, union, difference counts) over
 * that representation.
 */

#ifndef PCAUSE_UTIL_SPARSE_BITSET_HH
#define PCAUSE_UTIL_SPARSE_BITSET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcause
{

class BitVec;

/**
 * Non-owning view of a sorted, deduplicated position list — the
 * zero-copy form sparse fingerprints take inside the store's
 * position arena and in mmap-ed v5 and v4 database files. The
 * pointed-to storage must outlive the view.
 */
struct SparseView
{
    /** Positions, ascending and unique, each < universe. */
    const std::uint32_t *positions = nullptr;

    /** Number of positions. */
    std::size_t count = 0;

    /** Universe size in bits. */
    std::uint64_t universe = 0;
};

/** Sorted, deduplicated set of bit positions within a fixed universe. */
class SparseBitset
{
  public:
    /** Empty set over a universe of @p universe_bits positions. */
    explicit SparseBitset(std::size_t universe_bits = 0);

    /**
     * Build from arbitrary positions (sorted and deduplicated on
     * construction). Positions must be < @p universe_bits.
     */
    SparseBitset(std::size_t universe_bits,
                 std::vector<std::uint32_t> positions);

    /** Convert from a dense bit vector. */
    static SparseBitset fromBitVec(const BitVec &bv);

    /** Convert to a dense bit vector of universe size. */
    BitVec toBitVec() const;

    /** Universe size in bits. */
    std::size_t universe() const { return universeBits; }

    /** Number of set positions. */
    std::size_t count() const { return pos.size(); }

    /** True when no position is set. */
    bool empty() const { return pos.empty(); }

    /** Membership test (binary search). */
    bool contains(std::uint32_t p) const;

    /** Insert one position (no-op when present). */
    void insert(std::uint32_t p);

    /** Sorted positions (ascending). */
    const std::vector<std::uint32_t> &positions() const { return pos; }

    /** Set intersection. Universes must match. */
    SparseBitset intersect(const SparseBitset &other) const;

    /** Set union. Universes must match. */
    SparseBitset unite(const SparseBitset &other) const;

    /** |this ∩ other|. Universes must match. */
    std::size_t intersectCount(const SparseBitset &other) const;

    /** |this \ other|. Universes must match. */
    std::size_t differenceCount(const SparseBitset &other) const;

    /** True when every position here is also in @p other. */
    bool isSubsetOf(const SparseBitset &other) const;

    bool operator==(const SparseBitset &other) const
    {
        return universeBits == other.universeBits && pos == other.pos;
    }

  private:
    std::size_t universeBits = 0;
    std::vector<std::uint32_t> pos;
};

} // namespace pcause

#endif // PCAUSE_UTIL_SPARSE_BITSET_HH
