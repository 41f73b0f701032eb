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
 * FingerprintStore's in-memory arena or an mmap-ed v3 database file
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

/**
 * Contiguous sparse-fingerprint storage: all position lists live in
 * one arena with per-record offsets, so a million fingerprints cost
 * two flat allocations (~4 bytes per volatile cell) instead of a
 * dense BitVec apiece — the in-memory mirror of the v3 on-disk
 * position arena.
 */
class SparseFingerprintArena : public SparseFingerprintSource
{
  public:
    std::size_t count() const override { return universes.size(); }

    SparseView view(std::size_t i) const override;

    /** Append @p pattern's set bits as the next record. */
    void add(const BitVec &pattern);

    /**
     * Append an already-sorted position list (ascending, unique,
     * each < @p universe_bits) as the next record.
     */
    void addPositions(const std::uint32_t *positions,
                      std::size_t position_count,
                      std::uint64_t universe_bits);

    /** Total positions stored across all records. */
    std::size_t totalPositions() const { return arena.size(); }

    /** Flat position arena (record @p i occupies
     *  [offsets[i], offsets[i+1])) — written verbatim to v3 files.
     *  32-byte aligned for the SIMD scan kernels; element layout is
     *  the v3 on-disk layout. */
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
