#include "core/distance.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/simd.hh"

namespace pcause
{

std::size_t
boundedCountLimit(double bound, std::size_t fp_weight)
{
    PC_ASSERT(!std::isnan(bound), "boundedCountLimit: NaN bound");
    const double scaled = bound * static_cast<double>(fp_weight);
    std::size_t limit =
        scaled >= static_cast<double>(fp_weight)
            ? fp_weight
            : (scaled <= 0.0 ? 0
                             : static_cast<std::size_t>(scaled));
    while (limit < fp_weight &&
           static_cast<double>(limit + 1) / fp_weight <= bound)
        ++limit;
    while (limit > 0 &&
           static_cast<double>(limit) / fp_weight > bound)
        --limit;
    return limit;
}

PruneScreen
pruneScreen(double bound)
{
    PC_ASSERT(!std::isnan(bound), "pruneScreen: NaN bound");
    // Scaling by a power of two is exact, so the floor is the exact
    // floor of bound * 2^16, and bound < (floor + 1) / 2^16.
    return {static_cast<std::uint64_t>(
                std::floor(std::clamp(bound, 0.0, 1.0) * 65536.0)) +
            2};
}

double
modifiedJaccard(const BitVec &error_string, const BitVec &fingerprint)
{
    PC_ASSERT(error_string.size() == fingerprint.size(),
              "distance: size mismatch");

    const std::size_t we = error_string.popcount();
    const std::size_t wf = fingerprint.popcount();
    if (we == 0 && wf == 0)
        return 0.0;
    if (we == 0 || wf == 0)
        return 1.0;

    // Footnote 2: treat the lower-weight pattern as the fingerprint.
    const BitVec &fp = (wf <= we) ? fingerprint : error_string;
    const BitVec &es = (wf <= we) ? error_string : fingerprint;
    const std::size_t fp_weight = (wf <= we) ? wf : we;

    // d = |fp \ es|, "normalized to the number of errors in the
    // fingerprint" (Section 5.2). Note the paper's pseudocode
    // divides by HAMMINGWEIGHT(errorString) instead; only the
    // prose's fingerprint normalization reproduces the figures'
    // between-class range of [0.75, 1] under accuracy mismatch, so
    // the prose version is implemented.
    const std::size_t d = fp.andNotCount(es);
    return static_cast<double>(d) / fp_weight;
}

double
modifiedJaccardSparseBounded(const BitVec &error_string,
                             std::size_t es_weight,
                             const SparseView &fingerprint,
                             double bound, bool *pruned)
{
    PC_ASSERT(error_string.size() == fingerprint.universe,
              "distance: size mismatch");
    if (pruned)
        *pruned = false;

    const std::size_t we = es_weight;
    const std::size_t wf = fingerprint.count;
    if (we == 0 && wf == 0)
        return 0.0;
    if (we == 0 || wf == 0)
        return 1.0;

    const std::uint32_t *pos = fingerprint.positions;
    const std::uint64_t *words = error_string.words().data();

    if (wf <= we) {
        // Footnote-2 roles unchanged: the sparse operand is the
        // fingerprint, d = |fp \ es| counted over the position list
        // with an early exit past boundedCountLimit() (checked every
        // simd::boundedBlock positions on every dispatch level).
        const std::size_t limit = boundedCountLimit(bound, wf);
        const std::size_t d =
            simd::sparseMissCountBounded(words, pos, wf, limit);
        if (d > limit && pruned)
            *pruned = true;
        return static_cast<double>(d) / wf;
    }

    // Swapped roles: the error string plays the fingerprint,
    // d = |es \ fp| = we - |es ∩ fp|. The intersection only ever
    // grows, so we - seen_intersection - remaining_positions is a
    // monotone lower bound on d; the kernel exits at the first
    // block boundary where it clears the limit.
    const std::size_t limit = boundedCountLimit(bound, we);
    const simd::SparseInterScan scan =
        simd::sparseInterCountBounded(words, pos, wf, we, limit);
    if (scan.scanned < wf) {
        if (pruned)
            *pruned = true;
        return static_cast<double>(we - scan.inter -
                                   (wf - scan.scanned)) /
               we;
    }
    // Full scan: the value is exact; it still certifies > bound
    // exactly when the final miss count clears the limit.
    if (we - scan.inter > limit && pruned)
        *pruned = true;
    return static_cast<double>(we - scan.inter) / we;
}

double
modifiedJaccard(const SparseBitset &error_string,
                const SparseBitset &fingerprint)
{
    PC_ASSERT(error_string.universe() == fingerprint.universe(),
              "distance: universe mismatch");

    const std::size_t we = error_string.count();
    const std::size_t wf = fingerprint.count();
    if (we == 0 && wf == 0)
        return 0.0;
    if (we == 0 || wf == 0)
        return 1.0;

    const SparseBitset &fp = (wf <= we) ? fingerprint : error_string;
    const SparseBitset &es = (wf <= we) ? error_string : fingerprint;
    const std::size_t fp_weight = (wf <= we) ? wf : we;

    return static_cast<double>(fp.differenceCount(es)) / fp_weight;
}

double
jaccardDistance(const BitVec &a, const BitVec &b)
{
    PC_ASSERT(a.size() == b.size(), "distance: size mismatch");
    const std::size_t inter = a.overlapCount(b);
    const std::size_t uni = a.popcount() + b.popcount() - inter;
    if (uni == 0)
        return 0.0;
    return 1.0 - static_cast<double>(inter) / uni;
}

double
normalizedHamming(const BitVec &a, const BitVec &b)
{
    PC_ASSERT(a.size() == b.size() && !a.empty(),
              "distance: size mismatch");
    return static_cast<double>(a.hammingDistance(b)) / a.size();
}

double
overlapDistance(DistanceMetric metric, std::size_t a_weight,
                std::size_t b_weight, std::size_t overlap,
                std::size_t universe)
{
    switch (metric) {
      case DistanceMetric::ModifiedJaccard: {
        // modifiedJaccard(): the lower-weight operand plays the
        // fingerprint, and everything of it outside the overlap is
        // a miss.
        const std::size_t fp_weight = std::min(a_weight, b_weight);
        if (fp_weight == 0)
            return a_weight == b_weight ? 0.0 : 1.0;
        return static_cast<double>(fp_weight - overlap) / fp_weight;
      }
      case DistanceMetric::Jaccard: {
        const std::size_t uni = a_weight + b_weight - overlap;
        if (uni == 0)
            return 0.0;
        return 1.0 - static_cast<double>(overlap) / uni;
      }
      case DistanceMetric::Hamming:
        PC_ASSERT(universe > 0, "distance: size mismatch");
        return static_cast<double>(a_weight + b_weight - 2 * overlap) /
               universe;
      default:
        panic("unhandled distance metric");
    }
}

double
distance(DistanceMetric metric, const BitVec &a, const BitVec &b)
{
    switch (metric) {
      case DistanceMetric::ModifiedJaccard:
        return modifiedJaccard(a, b);
      case DistanceMetric::Jaccard:
        return jaccardDistance(a, b);
      case DistanceMetric::Hamming:
        return normalizedHamming(a, b);
      default:
        panic("unhandled distance metric");
    }
}

} // namespace pcause
