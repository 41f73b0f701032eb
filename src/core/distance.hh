/**
 * @file
 * Distance metrics between error patterns (paper Algorithm 3).
 *
 * The paper's metric is a modified Jaccard index: count the
 * fingerprint's error bits that are absent from the observed error
 * string, normalized to a [0,1] range. Crucially it ignores *extra*
 * errors in the observation, so a chip characterized at 99%
 * accuracy still matches its own outputs produced at 95% — the
 * failure mode that sinks plain Hamming distance (Section 5.2).
 *
 * Plain Jaccard and normalized Hamming are provided for the
 * ablation bench that justifies the design choice.
 */

#ifndef PCAUSE_CORE_DISTANCE_HH
#define PCAUSE_CORE_DISTANCE_HH

#include <cstdint>

#include "util/bitvec.hh"
#include "util/sparse_bitset.hh"

namespace pcause
{

/**
 * The paper's Algorithm 3 on dense bit vectors.
 *
 * Computes |fingerprint \ errorString| / |fingerprint| after the
 * footnote-2 swap rule: whichever operand has fewer set bits plays
 * the fingerprint role, so the metric is symmetric in practice and
 * robust to approximation-level mismatch. Returns a value in
 * [0,1]; two empty operands are defined as distance 0. (The paper's
 * prose normalizes by the fingerprint weight; its pseudocode by the
 * error-string weight — the prose version is the one that matches
 * the published figures, and is what this function implements.)
 */
double modifiedJaccard(const BitVec &error_string,
                       const BitVec &fingerprint);

/**
 * Largest integer miss count still within @p bound for a
 * fingerprint of @p fp_weight bits, computed so that
 * (d <= limit) <=> (double(d) / fp_weight <= bound) under the exact
 * floating-point division the unbounded metric performs. The nudge
 * loops correct any rounding in the double-precision product (each
 * runs at most a step or two). Every bounded Algorithm 3 scan — the
 * sparse kernel and the store's overlap-count scan — prunes a record
 * exactly when its miss count exceeds this limit, so their early-exit
 * decisions cannot diverge. @p bound must not be NaN.
 */
std::size_t boundedCountLimit(double bound, std::size_t fp_weight);

/**
 * A bound in 16-bit fixed point, for pruning many records without a
 * division or a boundedCountLimit() call each: the store's overlap
 * scan tests every record against one screen until its bound moves.
 */
struct PruneScreen
{
    /** floor(min(bound, 1) * 2^16) + 2: the +2 margin puts every
     *  screened-out ratio more than 2^-16 above the bound. */
    std::uint64_t scaled = 0;

    /**
     * True when @p misses of a @p fp_weight bit fingerprint give
     * misses * 2^16 > scaled * fp_weight. Then misses / fp_weight >
     * bound + 2^-16, so misses > boundedCountLimit(bound, fp_weight):
     * the screen never drops a record the exact rule keeps. It drops
     * nothing at a bound of 1 or more, and nothing of weight 0.
     * Records it keeps may still exceed the exact limit. Weights
     * must stay below 2^47 (positions are 32-bit).
     */
    bool prunes(std::uint64_t misses, std::uint64_t fp_weight) const
    {
        return (misses << 16) > scaled * fp_weight;
    }
};

/** The screen for @p bound (not NaN; below 0 screens as 0). */
PruneScreen pruneScreen(double bound);

/** Algorithm 3 on sparse page-level patterns. */
double modifiedJaccard(const SparseBitset &error_string,
                       const SparseBitset &fingerprint);

/**
 * Bounded Algorithm 3 with a sparse fingerprint against a dense
 * error string: modifiedJaccard() with an early exit once the
 * distance provably exceeds @p bound. The one bounded Algorithm 3
 * kernel, behind both stores' scans and the indexed clusterer, where
 * fingerprints are ~256 positions out of 8192 bits and a dense
 * BitVec per record would waste ~30x the memory traffic.
 *
 * It applies the same footnote-2 swap rule (the lower-weight operand
 * plays the fingerprint role) and the same final double division as
 * modifiedJaccard() on (error_string, dense(fingerprint)), so the
 * result is bit-identical to it whenever the distance is <= @p bound.
 * Above the bound it returns a lower bound on the distance that is
 * itself > @p bound: callers comparing it against thresholds
 * <= @p bound get the unbounded metric's verdicts. @p pruned, when
 * non-null, is set exactly when the miss count exceeds
 * boundedCountLimit(@p bound, fingerprint weight), which implies the
 * distance is > @p bound.
 *
 * @p es_weight must equal error_string.popcount() (passed in so
 * batch scans hash it once per query, not once per record), and
 * @p fingerprint.universe must equal error_string.size().
 */
double modifiedJaccardSparseBounded(const BitVec &error_string,
                                    std::size_t es_weight,
                                    const SparseView &fingerprint,
                                    double bound,
                                    bool *pruned = nullptr);

/** Classic Jaccard distance 1 - |A∩B| / |A∪B| (ablation baseline). */
double jaccardDistance(const BitVec &a, const BitVec &b);

/**
 * Hamming distance normalized by vector length (the naive metric
 * the paper argues against in Section 5.2).
 */
double normalizedHamming(const BitVec &a, const BitVec &b);

/** Ablation-selectable metric kinds. */
enum class DistanceMetric
{
    ModifiedJaccard, //!< the paper's Algorithm 3
    Jaccard,         //!< classic Jaccard distance
    Hamming,         //!< normalized Hamming distance
};

/**
 * @p metric between two sets known only by their sizes: @p a_weight
 * and @p b_weight set bits, @p overlap of them shared, in a universe
 * of @p universe bits. Each metric is an integer identity of those
 * counts (misses = min weight - overlap; union = a + b - overlap;
 * Hamming = a + b - 2 overlap) followed by the very division
 * modifiedJaccard(), jaccardDistance() and normalizedHamming()
 * perform, so the result is bit-identical to them on any operands
 * with these counts.
 */
double overlapDistance(DistanceMetric metric, std::size_t a_weight,
                       std::size_t b_weight, std::size_t overlap,
                       std::size_t universe);

/** Dispatch on @p metric. */
double distance(DistanceMetric metric, const BitVec &a, const BitVec &b);

} // namespace pcause

#endif // PCAUSE_CORE_DISTANCE_HH
