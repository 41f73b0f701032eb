/**
 * @file
 * Unit tests for core/identify (Algorithm 2) and threshold
 * calibration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/characterize.hh"
#include "core/error_string.hh"
#include "core/identify.hh"
#include "platform/platform.hh"

namespace pcause
{
namespace
{

Fingerprint
patternFingerprint(std::initializer_list<std::size_t> bits,
                   std::size_t size = 1024)
{
    BitVec v(size);
    for (auto b : bits)
        v.set(b);
    return Fingerprint(v);
}

TEST(FingerprintDb, AddAndLookup)
{
    FingerprintDb db;
    EXPECT_EQ(db.size(), 0u);
    const std::size_t i = db.add("chip-a", patternFingerprint({1, 2}));
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.record(i).label, "chip-a");
    EXPECT_EQ(db.record(i).fingerprint.weight(), 2u);
}

TEST(FingerprintDb, OutOfRangeDies)
{
    FingerprintDb db;
    EXPECT_DEATH(db.record(0), "");
}

TEST(Identify, MatchesOwnFingerprint)
{
    FingerprintDb db;
    db.add("a", patternFingerprint({1, 2, 3}));
    db.add("b", patternFingerprint({100, 200, 300}));

    BitVec es(1024);
    es.set(1);
    es.set(2);
    es.set(3);
    es.set(77); // one extra error
    const IdentifyResult r = identifyErrorString(es, db);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(*r.match, 0u);
    EXPECT_LT(r.bestDistance, 0.1);
}

TEST(Identify, FailsWhenNothingIsClose)
{
    FingerprintDb db;
    db.add("a", patternFingerprint({1, 2, 3}));
    BitVec es(1024);
    es.set(500);
    es.set(501);
    const IdentifyResult r = identifyErrorString(es, db);
    EXPECT_FALSE(r.match.has_value());
    ASSERT_TRUE(r.nearest.has_value());
    EXPECT_EQ(*r.nearest, 0u);
    EXPECT_GT(r.bestDistance, 0.9);
}

TEST(Identify, EmptyDatabaseFails)
{
    FingerprintDb db;
    BitVec es(64);
    es.set(1);
    const IdentifyResult r = identifyErrorString(es, db);
    EXPECT_FALSE(r.match.has_value());
    EXPECT_FALSE(r.nearest.has_value());
}

TEST(Identify, FirstMatchSemanticsReturnEarly)
{
    // Two identical fingerprints: Algorithm 2 returns the first.
    FingerprintDb db;
    db.add("first", patternFingerprint({1, 2}));
    db.add("second", patternFingerprint({1, 2}));
    BitVec es(1024);
    es.set(1);
    es.set(2);
    IdentifyParams p;
    p.firstMatch = true;
    const IdentifyResult r = identifyErrorString(es, db, p);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(*r.match, 0u);
}

TEST(Identify, BestMatchSemanticsPickTheClosest)
{
    FingerprintDb db;
    // "coarse" misses one of the output's bits (distance 0.25 after
    // the swap rule); "exact" matches perfectly.
    db.add("coarse", patternFingerprint({1, 2, 3, 40, 50}));
    db.add("exact", patternFingerprint({1, 2, 3, 4}));
    BitVec es(1024);
    for (auto b : {1, 2, 3, 4})
        es.set(b);
    IdentifyParams p;
    p.firstMatch = false;
    p.threshold = 0.5;
    const IdentifyResult r = identifyErrorString(es, db, p);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(*r.match, 1u);
    EXPECT_DOUBLE_EQ(r.bestDistance, 0.0);
}

TEST(Identify, FullPipelineFromApproxAndExact)
{
    FingerprintDb db;
    db.add("a", patternFingerprint({10, 20}, 64));
    BitVec exact(64);
    BitVec approx = exact;
    approx.set(10);
    approx.set(20);
    const IdentifyResult r = identify(approx, exact, db);
    ASSERT_TRUE(r.match.has_value());
}

TEST(IdentifyWithData, UninformativeDataCannotMatch)
{
    // A buffer that charges no cells (all-default contents) masks
    // every fingerprint to empty: identification must fail rather
    // than match everything at distance zero.
    const DramConfig cfg = DramConfig::tiny();
    BitVec default_data(cfg.totalBits());
    for (std::size_t row = 0; row < cfg.rows; ++row) {
        if (cfg.defaultBit(row)) {
            for (std::size_t i = 0; i < cfg.rowBits(); ++i)
                default_data.set(row * cfg.rowBits() + i);
        }
    }
    FingerprintDb db;
    BitVec fp(cfg.totalBits());
    fp.set(1);
    fp.set(2);
    db.add("chip", Fingerprint(fp));
    const IdentifyResult r = identifyWithData(
        default_data, default_data, cfg, db);
    EXPECT_FALSE(r.match.has_value());
}

TEST(IdentifyWithData, MasksFingerprintToChargedCells)
{
    // Data charging only the anti-default half of the chip must
    // still identify when the visible fingerprint half matches.
    const DramConfig cfg = DramConfig::tiny();
    Platform platform(cfg, 2, 0x77);
    TestHarness h = platform.harness(0);

    BitVec zeros(cfg.totalBits());
    TrialSpec spec;
    spec.accuracy = 0.90;
    spec.trialKey = 1;
    const BitVec approx = h.runTrial(zeros, spec).approx;

    // Worst-case fingerprints for both chips.
    FingerprintDb db;
    for (unsigned c = 0; c < 2; ++c) {
        TestHarness hc = platform.harness(c);
        const BitVec exact = hc.chip().worstCasePattern();
        std::vector<BitVec> outs;
        for (unsigned k = 0; k < 3; ++k) {
            TrialSpec s;
            s.accuracy = 0.90;
            s.trialKey = 10 + 3 * c + k;
            outs.push_back(hc.runWorstCaseTrial(s).approx);
        }
        db.add("chip-" + std::to_string(c),
               characterize(outs, exact));
    }

    const IdentifyResult r =
        identifyWithData(approx, zeros, cfg, db);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(db.record(*r.match).label, "chip-0");
}

TEST(CalibrateThreshold, SitsBetweenClasses)
{
    const double t = calibrateThreshold({0.001, 0.002}, {0.8, 0.9});
    EXPECT_GT(t, 0.002);
    EXPECT_LT(t, 0.8);
}

TEST(CalibrateThreshold, GeometricMidpoint)
{
    const double t = calibrateThreshold({0.01}, {1.0});
    EXPECT_NEAR(t, 0.1, 1e-12);
}

TEST(CalibrateThreshold, OverlappingClassesMinimizeError)
{
    // within {0.1, 0.5}, between {0.3, 0.9}: no clean split exists.
    // A threshold in (0.3, 0.5] misclassifies exactly one pooled
    // sample (within 0.5 missed OR between 0.3 matched — the sweep
    // picks the interval with one error); anything outside that
    // band misclassifies at least two.
    const double t = calibrateThreshold({0.1, 0.5}, {0.3, 0.9});
    std::size_t errors = 0;
    for (double d : {0.1, 0.5})
        errors += d >= t;
    for (double d : {0.3, 0.9})
        errors += d < t;
    EXPECT_EQ(errors, 1u);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 0.9);
}

TEST(CalibrateThreshold, OverlapDoesNotDie)
{
    // The old behaviour was fatal(); now it must return a usable
    // threshold even for fully inverted classes.
    const double t = calibrateThreshold({0.5}, {0.4});
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
}

TEST(CalibrateThreshold, HandlesZeroWithinClass)
{
    const double t = calibrateThreshold({0.0}, {0.9});
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 0.9);
}

TEST(Identify, DistanceEqualToThresholdDoesNotMatch)
{
    // Algorithm 2 matches strictly below the threshold: a distance
    // of exactly 0.5 against threshold 0.5 must fail. es {1,2,3,4}
    // vs fp {1,2,5,6}: |fp \ es| / wf = 2/4 = 0.5 exactly.
    FingerprintDb db;
    db.add("edge", patternFingerprint({1, 2, 5, 6}));
    BitVec es(1024);
    for (auto b : {1, 2, 3, 4})
        es.set(b);
    IdentifyParams p;
    p.threshold = 0.5;
    const IdentifyResult r = identifyErrorString(es, db, p);
    EXPECT_FALSE(r.match.has_value());
    ASSERT_TRUE(r.nearest.has_value());
    EXPECT_DOUBLE_EQ(r.bestDistance, 0.5);
}

TEST(Identify, MatchAtRecordZeroIsTruthy)
{
    // std::optional<size_t> holding 0 must read as "matched":
    // guards must use has_value(), never the index's truthiness.
    FingerprintDb db;
    db.add("only", patternFingerprint({1, 2, 3}));
    BitVec es(1024);
    es.set(1);
    es.set(2);
    es.set(3);
    const IdentifyResult r = identifyErrorString(es, db);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(*r.match, 0u);
    EXPECT_TRUE(static_cast<bool>(r.match));
    ASSERT_TRUE(r.nearest.has_value());
    EXPECT_EQ(*r.nearest, 0u);
}

TEST(Identify, EndToEndOnSimulatedChips)
{
    // Fingerprint three chips, then attribute fresh outputs: every
    // output must identify its own chip (the paper reports 100%).
    Platform platform = Platform::legacy(3);
    FingerprintDb db;
    const BitVec exact = platform.chip(0).worstCasePattern();
    std::uint64_t trial = 0;
    for (unsigned c = 0; c < 3; ++c) {
        TestHarness h = platform.harness(c);
        std::vector<BitVec> outs;
        for (unsigned k = 0; k < 3; ++k) {
            TrialSpec spec;
            spec.accuracy = 0.99;
            spec.trialKey = ++trial;
            outs.push_back(h.runWorstCaseTrial(spec).approx);
        }
        db.add("chip-" + std::to_string(c),
               characterize(outs, exact));
    }
    for (unsigned c = 0; c < 3; ++c) {
        TestHarness h = platform.harness(c);
        TrialSpec spec;
        spec.accuracy = 0.95; // different accuracy than the DB
        spec.trialKey = ++trial;
        const IdentifyResult r =
            identify(h.runWorstCaseTrial(spec).approx, exact, db);
        ASSERT_TRUE(r.match.has_value()) << "chip " << c;
        EXPECT_EQ(db.record(*r.match).label,
                  "chip-" + std::to_string(c));
    }
}

} // anonymous namespace
} // namespace pcause
