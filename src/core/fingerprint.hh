/**
 * @file
 * Memory fingerprints.
 *
 * A fingerprint is the set of a chip's most volatile cells, learned
 * as the intersection of error strings from several approximate
 * outputs (paper Algorithm 1). Intersection suppresses trial noise,
 * keeps the fingerprint small enough to match lightly approximated
 * outputs, and is cheap to update online — the properties Section
 * 5.1 calls out.
 */

#ifndef PCAUSE_CORE_FINGERPRINT_HH
#define PCAUSE_CORE_FINGERPRINT_HH

#include <cstdint>
#include <vector>

#include "util/aligned.hh"
#include "util/bitvec.hh"
#include "util/sparse_bitset.hh"

namespace pcause
{

/** A whole-memory fingerprint plus its provenance. */
class Fingerprint
{
  public:
    /** Empty fingerprint (matches nothing). */
    Fingerprint() = default;

    /** Seed a fingerprint from a first error string. */
    explicit Fingerprint(BitVec first_error_string);

    /**
     * Adopt an already-intersected pattern together with the number
     * of error strings it came from. Used by the parallel
     * characterize(), which reduces the intersection tree-wise and
     * only materializes the final pattern.
     */
    Fingerprint(BitVec intersected_pattern, unsigned num_sources);

    /** The volatile-cell positions (set bits). */
    const BitVec &bits() const { return pattern; }

    /** Number of error strings folded in. */
    unsigned sources() const { return numSources; }

    /** Number of volatile cells in the fingerprint. */
    std::size_t weight() const { return pattern.popcount(); }

    /** True before any error string has been folded in. */
    bool empty() const { return numSources == 0; }

    /**
     * Fold another error string in by intersection (Algorithm 1,
     * line 3; Algorithm 4, line 7). Only cells that failed in every
     * observation survive, "keeping only the most volatile bits."
     */
    void augment(const BitVec &error_string);

  private:
    BitVec pattern;
    unsigned numSources = 0;
};

/**
 * Read-only view of a collection of sparse fingerprints, indexed by
 * record id. Abstracts over where the position lists live — the
 * FingerprintStore's in-memory arena or an mmap-ed v4 database file
 * — so the exact scans in core/scan run unchanged against both.
 */
class SparseFingerprintSource
{
  public:
    virtual ~SparseFingerprintSource() = default;

    /** Number of fingerprints. */
    virtual std::size_t count() const = 0;

    /** Sorted position list of fingerprint @p i. */
    virtual SparseView view(std::size_t i) const = 0;
};

/** The dense bit vector holding exactly @p v's positions. */
BitVec denseBits(const SparseView &v);

/** Write @p pattern's set bits, ascending, to @p out, which has room
 *  for pattern.popcount() of them. */
void writePositions(const BitVec &pattern, std::uint32_t *out);

/**
 * Contiguous sparse-fingerprint storage: all position lists live in
 * one arena with per-record offsets, so a million fingerprints cost
 * two flat allocations (~4 bytes per volatile cell) instead of a
 * dense BitVec apiece — the in-memory mirror of the PCDB on-disk
 * position arena.
 */
class SparseFingerprintArena : public SparseFingerprintSource
{
  public:
    SparseFingerprintArena() = default;

    /**
     * Adopt @p positions as the arena: record i holds positions
     * [record_offsets[i], record_offsets[i + 1]) over
     * @p record_universes[i] bits. Each list must already be
     * ascending, unique and inside its universe (the loader checks
     * them as it reads a file).
     */
    SparseFingerprintArena(PosVec positions,
                           std::vector<std::uint64_t> record_offsets,
                           std::vector<std::uint64_t> record_universes);

    std::size_t count() const override { return universes.size(); }

    SparseView view(std::size_t i) const override;

    /** view(i).count, unchecked (@p i < count()): for loops over
     *  every record that read nothing else of it. */
    std::size_t weight(std::size_t i) const
    {
        return static_cast<std::size_t>(offsets[i + 1] - offsets[i]);
    }

    /** view(i).universe, unchecked (@p i < count()). */
    std::uint64_t universe(std::size_t i) const { return universes[i]; }

    /** Where record @p i's positions start in positions(), unchecked
     *  (@p i <= count(); offset(count()) is the total). */
    std::uint64_t offset(std::size_t i) const { return offsets[i]; }

    /** Append @p pattern's set bits as the next record. */
    void add(const BitVec &pattern);

    /** Append @p more's records, in order, after this arena's. */
    void append(const SparseFingerprintArena &more);

    /** Total positions stored across all records. */
    std::size_t totalPositions() const { return arena.size(); }

    /** Flat position arena (record @p i occupies
     *  [offsets[i], offsets[i+1])) — written verbatim to PCDB files.
     *  32-byte aligned for the SIMD scan kernels; element layout is
     *  the PCDB on-disk layout. */
    const PosVec &positions() const { return arena; }

    /** Drop all records. */
    void clear();

  private:
    PosVec arena;
    std::vector<std::uint64_t> offsets{0};
    std::vector<std::uint64_t> universes;
};

} // namespace pcause

#endif // PCAUSE_CORE_FINGERPRINT_HH
