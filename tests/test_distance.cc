/**
 * @file
 * Unit tests for core/distance — the paper's Algorithm 3 plus the
 * ablation baselines, including property sweeps over synthetic
 * error patterns.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/distance.hh"
#include "util/rng.hh"

namespace pcause
{
namespace
{

BitVec
randomPattern(std::size_t size, std::size_t weight, Rng &rng)
{
    BitVec v(size);
    while (v.popcount() < weight)
        v.set(rng.nextBelow(size));
    return v;
}

/** The bounded sparse kernel with @p fp's positions as its sparse
 *  operand. */
double
sparseBounded(const BitVec &es, const BitVec &fp, double bound,
              bool *pruned = nullptr)
{
    const SparseBitset sp = SparseBitset::fromBitVec(fp);
    const SparseView view{sp.positions().data(), sp.count(),
                          sp.universe()};
    return modifiedJaccardSparseBounded(es, es.popcount(), view, bound,
                                        pruned);
}

TEST(ModifiedJaccard, IdenticalPatternsHaveZeroDistance)
{
    Rng rng(1);
    const BitVec v = randomPattern(1024, 50, rng);
    EXPECT_DOUBLE_EQ(modifiedJaccard(v, v), 0.0);
}

TEST(ModifiedJaccard, BothEmptyIsZero)
{
    BitVec a(64), b(64);
    EXPECT_DOUBLE_EQ(modifiedJaccard(a, b), 0.0);
}

TEST(ModifiedJaccard, OneEmptyIsOne)
{
    BitVec a(64), b(64);
    b.set(3);
    EXPECT_DOUBLE_EQ(modifiedJaccard(a, b), 1.0);
    EXPECT_DOUBLE_EQ(modifiedJaccard(b, a), 1.0);
}

TEST(ModifiedJaccard, DisjointPatternsHaveDistanceOne)
{
    BitVec a(64), b(64);
    a.set(1);
    a.set(2);
    b.set(10);
    b.set(11);
    EXPECT_DOUBLE_EQ(modifiedJaccard(a, b), 1.0);
}

TEST(ModifiedJaccard, SupersetOutputHasZeroDistance)
{
    // The metric's reason for existing: an output with MORE errors
    // (lower accuracy) than the fingerprint must still match when
    // it contains the fingerprint (Section 5.2).
    BitVec fp(1024), es(1024);
    for (std::size_t i = 0; i < 10; ++i) {
        fp.set(i * 7);
        es.set(i * 7);
    }
    for (std::size_t i = 0; i < 90; ++i)
        es.set(100 + i); // 9x extra errors
    EXPECT_DOUBLE_EQ(modifiedJaccard(es, fp), 0.0);
}

TEST(ModifiedJaccard, SwapRuleMakesMetricSymmetric)
{
    Rng rng(2);
    const BitVec a = randomPattern(2048, 30, rng);
    const BitVec b = randomPattern(2048, 300, rng);
    EXPECT_DOUBLE_EQ(modifiedJaccard(a, b), modifiedJaccard(b, a));
}

TEST(ModifiedJaccard, CountsMissingFingerprintBits)
{
    BitVec fp(64), es(64);
    fp.set(1);
    fp.set(2);
    fp.set(3);
    fp.set(4);
    es.set(1);
    es.set(2);
    es.set(3);
    es.set(50);
    // 1 of 4 fingerprint bits missing -> 0.25.
    EXPECT_DOUBLE_EQ(modifiedJaccard(es, fp), 0.25);
}

TEST(ModifiedJaccard, SparseAgreesWithDense)
{
    Rng rng(3);
    const BitVec a = randomPattern(4096, 40, rng);
    const BitVec b = randomPattern(4096, 400, rng);
    const double dense = modifiedJaccard(a, b);
    const double sparse = modifiedJaccard(
        SparseBitset::fromBitVec(a), SparseBitset::fromBitVec(b));
    EXPECT_DOUBLE_EQ(dense, sparse);
}

TEST(JaccardDistance, BasicValues)
{
    BitVec a(64), b(64);
    a.set(1);
    a.set(2);
    b.set(2);
    b.set(3);
    // |inter| = 1, |union| = 3.
    EXPECT_NEAR(jaccardDistance(a, b), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(jaccardDistance(a, a), 0.0);
}

TEST(JaccardDistance, EmptySetsAreIdentical)
{
    BitVec a(64), b(64);
    EXPECT_DOUBLE_EQ(jaccardDistance(a, b), 0.0);
}

TEST(NormalizedHamming, CountsAllDifferences)
{
    BitVec a(100), b(100);
    a.set(1);
    b.set(2);
    EXPECT_DOUBLE_EQ(normalizedHamming(a, b), 0.02);
}

TEST(DistanceDispatch, SelectsRequestedMetric)
{
    BitVec a(64), b(64);
    a.set(1);
    b.set(2);
    EXPECT_DOUBLE_EQ(distance(DistanceMetric::ModifiedJaccard, a, b),
                     modifiedJaccard(a, b));
    EXPECT_DOUBLE_EQ(distance(DistanceMetric::Jaccard, a, b),
                     jaccardDistance(a, b));
    EXPECT_DOUBLE_EQ(distance(DistanceMetric::Hamming, a, b),
                     normalizedHamming(a, b));
}

/**
 * Property sweep over (fingerprint weight, output weight): the
 * metric always lands in [0,1], and the mismatch-robustness
 * property holds — a noisy superset of the fingerprint stays close
 * while a random pattern of any weight stays far.
 */
class DistanceProperty
    : public ::testing::TestWithParam<std::pair<std::size_t,
                                                std::size_t>>
{
};

TEST_P(DistanceProperty, RangeAndSeparation)
{
    const auto [fp_weight, es_weight] = GetParam();
    Rng rng(fp_weight * 1000 + es_weight);
    const std::size_t size = 32768;

    const BitVec fp = randomPattern(size, fp_weight, rng);

    // Within-class: the fingerprint plus extra errors (superset).
    BitVec within = fp;
    while (within.popcount() < es_weight)
        within.set(rng.nextBelow(size));

    // Between-class: an unrelated pattern of the same weight.
    const BitVec between = randomPattern(size, es_weight, rng);

    const double d_within = modifiedJaccard(within, fp);
    const double d_between = modifiedJaccard(between, fp);
    EXPECT_GE(d_within, 0.0);
    EXPECT_LE(d_within, 1.0);
    EXPECT_GE(d_between, 0.0);
    EXPECT_LE(d_between, 1.0);
    EXPECT_LT(d_within, 0.01);
    EXPECT_GT(d_between, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    WeightGrid, DistanceProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{328, 328},
                      std::pair<std::size_t, std::size_t>{328, 1638},
                      std::pair<std::size_t, std::size_t>{328, 3277},
                      std::pair<std::size_t, std::size_t>{100, 3277},
                      std::pair<std::size_t, std::size_t>{1638, 3277}));

TEST(ModifiedJaccardBounded, ExactWhenAtOrUnderBound)
{
    // Whenever the true distance is <= bound, the bounded kernel
    // must return it exactly (same division, same value).
    Rng rng(11);
    for (unsigned round = 0; round < 20; ++round) {
        const std::size_t size = 4096;
        const BitVec fp = randomPattern(size, 16 + rng.nextBelow(200),
                                        rng);
        BitVec es = fp;
        for (unsigned k = 0; k < rng.nextBelow(64); ++k)
            es.set(rng.nextBelow(size));
        for (unsigned k = 0; k < rng.nextBelow(8); ++k)
            es.clear(es.setBits()[rng.nextBelow(es.popcount())]);
        const double exact = modifiedJaccard(es, fp);
        for (double bound : {exact, exact + 0.01, 0.5, 1.0}) {
            if (exact > bound)
                continue;
            bool pruned = true;
            const double got = sparseBounded(es, fp, bound, &pruned);
            EXPECT_FALSE(pruned);
            EXPECT_EQ(got, exact) << "bound " << bound;
        }
    }
}

TEST(ModifiedJaccardBounded, PrunedResultsStayAboveBound)
{
    // When the kernel bails early it reports pruned=true and a
    // lower bound on the true distance that still exceeds the
    // bound — enough for any strict-< comparison against the bound
    // to give the serial verdict.
    Rng rng(12);
    for (unsigned round = 0; round < 20; ++round) {
        const std::size_t size = 4096;
        const BitVec fp = randomPattern(size, 200, rng);
        const BitVec es = randomPattern(size, 200, rng);
        const double exact = modifiedJaccard(es, fp);
        for (double bound : {0.05, 0.25, 0.5}) {
            bool pruned = false;
            const double got = sparseBounded(es, fp, bound, &pruned);
            if (pruned) {
                EXPECT_GT(got, bound);
                EXPECT_LE(got, exact);
            } else {
                EXPECT_EQ(got, exact);
            }
            // Either way the verdict agrees with serial.
            EXPECT_EQ(got < bound, exact < bound);
            EXPECT_EQ(got <= bound, exact <= bound);
        }
    }
}

TEST(ModifiedJaccardBounded, DegenerateCasesMatchUnbounded)
{
    BitVec empty(64), one(64);
    one.set(3);
    for (double bound : {0.0, 0.5, 1.0}) {
        EXPECT_EQ(sparseBounded(empty, empty, bound),
                  modifiedJaccard(empty, empty));
        EXPECT_EQ(sparseBounded(empty, one, bound),
                  modifiedJaccard(empty, one));
        EXPECT_EQ(sparseBounded(one, empty, bound),
                  modifiedJaccard(one, empty));
    }
}

TEST(PruneScreen, NeverDropsWhatTheExactLimitKeeps)
{
    // Every fingerprint weight w <= 600 and every miss count m <= w,
    // against bounds at and around each swept k / 2^16 (where the
    // fixed point rounds), the edges and random draws: the screen
    // may drop (m, w) only past boundedCountLimit(bound, w), and at
    // these weights its margin keeps at most one count past it.
    std::vector<double> bounds = {0.0, 0.1, 0.5,
                                  std::nextafter(1.0, 0.0), 1.0, 1.5};
    for (std::uint32_t k = 0; k <= 65536; k += 211) {
        const double at = k / 65536.0;
        bounds.push_back(std::nextafter(at, 0.0));
        bounds.push_back(at);
        bounds.push_back(std::nextafter(at, 2.0));
    }
    Rng rng(0x5c12);
    for (int r = 0; r < 150; ++r)
        bounds.push_back(rng.nextDouble());

    std::size_t violations = 0;
    std::size_t loose = 0;
    std::size_t unmargined = 0;
    for (const double bound : bounds) {
        const PruneScreen screen = pruneScreen(bound);
        // The same screen without its +2: what the margin is for.
        const PruneScreen bare{screen.scaled - 2};
        for (std::uint64_t w = 0; w <= 600; ++w) {
            const std::uint64_t limit = boundedCountLimit(bound, w);
            for (std::uint64_t m = 0; m <= w; ++m) {
                violations += screen.prunes(m, w) && m <= limit;
                loose += !screen.prunes(m, w) && m >= limit + 2;
                unmargined += bare.prunes(m, w) && m <= limit;
            }
        }
    }
    EXPECT_EQ(violations, 0u);
    EXPECT_EQ(loose, 0u);
    EXPECT_GT(unmargined, 0u);
}

TEST(PruneScreen, AdmitsEverythingAtBoundsOfOneAndMore)
{
    for (const double bound :
         {1.0, 1.5, std::numeric_limits<double>::infinity()}) {
        const PruneScreen screen = pruneScreen(bound);
        for (std::uint64_t w : {0ull, 1ull, 256ull, 65535ull, 1ull << 32})
            EXPECT_FALSE(screen.prunes(w, w)) << bound << " " << w;
    }
    // A negative bound screens as 0: any miss of a light record.
    EXPECT_EQ(pruneScreen(-1.0).scaled, pruneScreen(0.0).scaled);
}

TEST(BoundedCountLimitDeathTest, NanBoundPanics)
{
    // NaN has no integer limit (the conversion is undefined): the
    // entry points refuse NaN thresholds, and the core asserts it.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(boundedCountLimit(nan, 10), "NaN bound");
    EXPECT_DEATH(pruneScreen(nan), "NaN bound");
}

TEST(DistanceAblation, HammingFailsUnderAccuracyMismatch)
{
    // Reproduce the Section 5.2 argument synthetically: an output
    // from the SAME chip at much lower accuracy is farther by
    // Hamming distance than a DIFFERENT chip's output at the
    // fingerprint's accuracy.
    Rng rng(7);
    const std::size_t size = 32768;
    const BitVec fp = randomPattern(size, 328, rng);

    BitVec same_chip_more_err = fp;
    while (same_chip_more_err.popcount() < 3277)
        same_chip_more_err.set(rng.nextBelow(size));
    const BitVec other_chip = randomPattern(size, 328, rng);

    EXPECT_GT(normalizedHamming(same_chip_more_err, fp),
              normalizedHamming(other_chip, fp));
    // The paper's metric gets it right.
    EXPECT_LT(modifiedJaccard(same_chip_more_err, fp),
              modifiedJaccard(other_chip, fp));
}

} // anonymous namespace
} // namespace pcause
