/**
 * @file
 * Dense dynamic bit vector.
 *
 * BitVec is the central data type of the library: memory contents,
 * error strings, and fingerprints are all bit vectors. It provides
 * the bulk boolean operations the Probable Cause algorithms are built
 * from (XOR for error extraction, AND for fingerprint intersection)
 * plus fast population counts, set-bit iteration, and a word-span
 * API so callers (the DRAM decay engine in particular) can build and
 * apply 64-bit masks without going through per-bit accessors.
 */

#ifndef PCAUSE_UTIL_BITVEC_HH
#define PCAUSE_UTIL_BITVEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/aligned.hh"

namespace pcause
{

/** Dense, heap-allocated vector of bits with bulk boolean ops. */
class BitVec
{
  public:
    /** Bits per backing word. */
    static constexpr std::size_t wordBits = 64;

    /** Construct an empty (zero-length) vector. */
    BitVec() = default;

    /** Construct @p nbits bits, all initialized to @p value. */
    explicit BitVec(std::size_t nbits, bool value = false);

    /** Number of bits. */
    std::size_t size() const { return nbits; }

    /** True when the vector has zero length. */
    bool empty() const { return nbits == 0; }

    /** Read bit @p idx. */
    bool get(std::size_t idx) const;

    /** Write bit @p idx. */
    void set(std::size_t idx, bool value = true);

    /** Clear bit @p idx. */
    void clear(std::size_t idx) { set(idx, false); }

    /** Set every bit to @p value. */
    void fill(bool value);

    /** Number of backing 64-bit words. */
    std::size_t wordCount() const { return wordStore.size(); }

    /**
     * Backing words: bit i lives at word i/64, bit i%64. Bits of the
     * final word beyond size() are always zero. The store is
     * 32-byte aligned (see util/aligned.hh) for the SIMD kernels;
     * element layout is unchanged.
     */
    const WordVec &words() const { return wordStore; }

    /** Word @p wi of the backing store. */
    std::uint64_t wordAt(std::size_t wi) const
    {
        return wordStore[wi];
    }

    /**
     * Overwrite word @p wi. Bits beyond size() in the final word are
     * silently trimmed back to zero.
     */
    void setWord(std::size_t wi, std::uint64_t w);

    /**
     * Set (value = true) or clear (value = false) exactly the bits of
     * @p mask within word @p wi — the bulk primitive behind the DRAM
     * decay engine's per-row masks. Mask bits beyond size() must be
     * zero.
     */
    void applyMasked(std::size_t wi, std::uint64_t mask, bool value);

    /** Number of set bits. */
    std::size_t popcount() const;

    /** True when no bit is set. */
    bool none() const { return popcount() == 0; }

    /** Indices of all set bits, in increasing order. */
    std::vector<std::size_t> setBits() const;

    /**
     * Count set bits in common with @p other (popcount of AND).
     * Sizes must match.
     */
    std::size_t overlapCount(const BitVec &other) const;

    /**
     * Count bits set here but clear in @p other (popcount of
     * this AND NOT other): the inner loop of modifiedJaccard(), the
     * dense Algorithm 3 reference (the exact scans run the bounded
     * sparse kernel instead). Sizes must match.
     */
    std::size_t andNotCount(const BitVec &other) const;

    /** In-place bitwise AND. Sizes must match. */
    BitVec &operator&=(const BitVec &other);

    /** In-place bitwise OR. Sizes must match. */
    BitVec &operator|=(const BitVec &other);

    /** In-place bitwise XOR. Sizes must match. */
    BitVec &operator^=(const BitVec &other);

    friend BitVec operator&(BitVec a, const BitVec &b) { return a &= b; }
    friend BitVec operator|(BitVec a, const BitVec &b) { return a |= b; }
    friend BitVec operator^(BitVec a, const BitVec &b) { return a ^= b; }

    bool operator==(const BitVec &other) const;
    bool operator!=(const BitVec &other) const { return !(*this == other); }

    /** True when every set bit here is also set in @p other. */
    bool isSubsetOf(const BitVec &other) const;

    /** Copy bits [start, start+len) into a new vector. */
    BitVec slice(std::size_t start, std::size_t len) const;

    /** Overwrite bits [start, start+src.size()) with @p src. */
    void blit(std::size_t start, const BitVec &src);

    /** Hamming distance to @p other (popcount of XOR). */
    std::size_t hammingDistance(const BitVec &other) const;

    /** Render as a '0'/'1' string, bit 0 first (for small vectors). */
    std::string toString() const;

    /** Stable 64-bit content hash (order- and size-sensitive). */
    std::uint64_t hash() const;

  private:
    /** Zero any bits in the final partial word beyond size(). */
    void trimTail();

    std::size_t nbits = 0;
    WordVec wordStore;
};

} // namespace pcause

#endif // PCAUSE_UTIL_BITVEC_HH
