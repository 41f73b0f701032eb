/**
 * @file
 * Unit tests for core/cluster (Algorithm 4).
 */

#include <gtest/gtest.h>

#include "core/cluster.hh"
#include "core/error_string.hh"
#include "platform/platform.hh"

namespace pcause
{
namespace
{

BitVec
pattern(std::initializer_list<std::size_t> bits,
        std::size_t size = 1024)
{
    BitVec v(size);
    for (auto b : bits)
        v.set(b);
    return v;
}

TEST(OnlineClusterer, FirstSampleOpensCluster)
{
    OnlineClusterer c;
    EXPECT_EQ(c.addErrorString(pattern({1, 2, 3})), 0u);
    EXPECT_EQ(c.numClusters(), 1u);
}

TEST(OnlineClusterer, SimilarSamplesShareCluster)
{
    OnlineClusterer c;
    c.addErrorString(pattern({1, 2, 3, 4}));
    const std::size_t id = c.addErrorString(pattern({1, 2, 3, 4, 99}));
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(c.numClusters(), 1u);
}

TEST(OnlineClusterer, DistinctSamplesOpenNewClusters)
{
    OnlineClusterer c;
    c.addErrorString(pattern({1, 2, 3}));
    const std::size_t id = c.addErrorString(pattern({500, 600, 700}));
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(c.numClusters(), 2u);
}

TEST(OnlineClusterer, MatchAugmentsFingerprintByIntersection)
{
    OnlineClusterer c;
    // 20-bit patterns differing in one bit: distance 0.05 is under
    // the 0.1 threshold, so the second joins and intersects.
    BitVec first(1024), second(1024);
    for (std::size_t b = 0; b < 20; ++b) {
        first.set(b * 3);
        second.set(b * 3);
    }
    second.clear(0);
    second.set(999);
    c.addErrorString(first);
    c.addErrorString(second);
    EXPECT_EQ(c.numClusters(), 1u);
    // Bits 0 and 999 did not repeat; the intersection drops both.
    EXPECT_EQ(c.fingerprint(0).weight(), 19u);
    EXPECT_TRUE(c.fingerprint(0).bits().get(3));
    EXPECT_FALSE(c.fingerprint(0).bits().get(0));
    EXPECT_FALSE(c.fingerprint(0).bits().get(999));
}

TEST(OnlineClusterer, AssignmentsRecordHistory)
{
    OnlineClusterer c;
    c.addErrorString(pattern({1, 2, 3}));
    c.addErrorString(pattern({500, 600, 700}));
    c.addErrorString(pattern({1, 2, 3}));
    const auto &h = c.assignments();
    ASSERT_EQ(h.size(), 3u);
    EXPECT_EQ(h[0], 0u);
    EXPECT_EQ(h[1], 1u);
    EXPECT_EQ(h[2], 0u);
}

TEST(OnlineClusterer, ToDatabaseExportsAllClusters)
{
    OnlineClusterer c;
    c.addErrorString(pattern({1, 2, 3}));
    c.addErrorString(pattern({500, 600, 700}));
    const FingerprintDb db = c.toDatabase("sys-");
    ASSERT_EQ(db.size(), 2u);
    EXPECT_EQ(db.record(0).label, "sys-0");
    EXPECT_EQ(db.record(1).label, "sys-1");
}

TEST(OnlineClusterer, FingerprintIndexOutOfRangeDies)
{
    OnlineClusterer c;
    EXPECT_DEATH(c.fingerprint(0), "");
}

TEST(Cluster, BatchMatchesOnline)
{
    const BitVec exact(1024);
    std::vector<BitVec> results{pattern({1, 2, 3}),
                                pattern({500, 600, 700}),
                                pattern({1, 2, 3, 50})};
    std::vector<std::size_t> assign;
    const FingerprintDb db = cluster(results, exact, {}, &assign);
    EXPECT_EQ(db.size(), 2u);
    ASSERT_EQ(assign.size(), 3u);
    EXPECT_EQ(assign[0], assign[2]);
    EXPECT_NE(assign[0], assign[1]);
}

TEST(IndexedClusterer, MirrorsPairwiseOnUnitPatterns)
{
    // The exact sequences the OnlineClusterer unit tests pin,
    // replayed through the index: identical ids, clusters, and
    // intersected fingerprints.
    OnlineClusterer ref;
    IndexedClusterer idx;
    const std::vector<BitVec> stream{
        pattern({1, 2, 3, 4}),     pattern({1, 2, 3, 4, 99}),
        pattern({500, 600, 700}),  pattern({1, 2, 3}),
        pattern({500, 600, 700, 701}),
    };
    for (const BitVec &es : stream)
        EXPECT_EQ(idx.addErrorString(es), ref.addErrorString(es));
    ASSERT_EQ(idx.numClusters(), ref.numClusters());
    for (std::size_t c = 0; c < idx.numClusters(); ++c) {
        EXPECT_EQ(idx.fingerprint(c).bits(),
                  ref.fingerprint(c).bits());
    }
    EXPECT_EQ(idx.assignments(), ref.assignments());
}

TEST(IndexedClusterer, BatchMatchesSerial)
{
    const std::vector<BitVec> stream{
        pattern({1, 2, 3, 4}), pattern({500, 600, 700}),
        pattern({1, 2, 3, 4, 99}), pattern({900, 901, 902}),
        pattern({500, 600, 700, 44}),
    };
    IndexedClusterer serial;
    for (const BitVec &es : stream)
        serial.addErrorString(es);
    IndexedClusterer batch;
    const std::vector<std::size_t> ids = batch.addBatch(stream);
    EXPECT_EQ(ids, serial.assignments());
    EXPECT_EQ(batch.assignments(), serial.assignments());
    EXPECT_EQ(batch.numClusters(), serial.numClusters());
}

TEST(IndexedClusterer, StatsCountTheSession)
{
    IndexedClusterer c;
    c.addErrorString(pattern({1, 2, 3, 4}));
    c.addErrorString(pattern({1, 2, 3, 4, 99}));
    c.addErrorString(pattern({500, 600, 700}));
    const ClusterStats &s = c.stats();
    EXPECT_EQ(s.outputs, 3u);
    EXPECT_EQ(s.clustersOpened, 2u);
    EXPECT_EQ(s.augments, 1u);
    // A cluster keeps the keys it opened with: nothing re-signs.
    EXPECT_EQ(s.resigns, 0u);
    EXPECT_EQ(s.outputs, s.augments + s.clustersOpened);
}

TEST(IndexedClusterer, OpeningOutputStaysOnTheShortlist)
{
    // Augmenting with ever smaller subsets shrinks the fingerprint to
    // a quarter of its opening weight; the cluster's index entry
    // stays under the opening output's keys, so re-sending that
    // output finds the cluster on the shortlist, with no fallback.
    BitVec opening(8192), half(8192), quarter(8192);
    for (std::size_t b = 0; b < 256; ++b) {
        opening.set(b * 31);
        if (b % 2 == 0)
            half.set(b * 31);
        if (b % 4 == 0)
            quarter.set(b * 31);
    }
    IndexedClusterer c;
    EXPECT_EQ(c.addErrorString(opening), 0u);
    EXPECT_EQ(c.addErrorString(half), 0u);
    EXPECT_EQ(c.addErrorString(quarter), 0u);
    ASSERT_EQ(c.fingerprint(0).weight(), 64u);

    const ClusterStats before = c.stats();
    EXPECT_EQ(c.addErrorString(opening), 0u);
    EXPECT_EQ(c.stats().candidatesScanned, before.candidatesScanned + 1);
    EXPECT_EQ(c.stats().fallbackScans, before.fallbackScans);
    EXPECT_EQ(c.numClusters(), 1u);
}

TEST(IndexedClusterer, FingerprintIndexOutOfRangeDies)
{
    IndexedClusterer c;
    EXPECT_DEATH(c.fingerprint(0), "");
    c.addErrorString(pattern({1, 2, 3}));
    EXPECT_DEATH(c.fingerprint(1), "");
}

TEST(Cluster, AssignmentsOutLengthContract)
{
    // A pre-filled assignments vector is replaced wholesale: its
    // length afterwards equals the number of inputs, for both the
    // pairwise and indexed batch entry points.
    const BitVec exact(1024);
    const std::vector<BitVec> results{pattern({1, 2, 3}),
                                      pattern({500, 600, 700})};
    std::vector<std::size_t> assign(17, 12345);
    cluster(results, exact, {}, &assign);
    EXPECT_EQ(assign.size(), results.size());

    assign.assign(17, 12345);
    clusterIndexed(results, exact, {}, {}, &assign);
    EXPECT_EQ(assign.size(), results.size());

    // Empty input: the vector comes back empty, not stale.
    assign.assign(17, 12345);
    cluster({}, exact, {}, &assign);
    EXPECT_EQ(assign.size(), 0u);
    assign.assign(17, 12345);
    clusterIndexed({}, exact, {}, {}, &assign);
    EXPECT_EQ(assign.size(), 0u);
}

TEST(Cluster, IndexedBatchMatchesPairwiseBatch)
{
    const BitVec exact(1024);
    const std::vector<BitVec> results{
        pattern({1, 2, 3}), pattern({500, 600, 700}),
        pattern({1, 2, 3, 50}), pattern({800, 801, 802, 803}),
    };
    std::vector<std::size_t> pairwiseAssign, indexedAssign;
    const FingerprintDb a = cluster(results, exact, {},
                                    &pairwiseAssign);
    const FingerprintDb b = clusterIndexed(results, exact, {}, {},
                                           &indexedAssign);
    EXPECT_EQ(pairwiseAssign, indexedAssign);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.record(i).fingerprint.bits(),
                  b.record(i).fingerprint.bits());
}

TEST(Cluster, SimulatedChipsClusterPerfectly)
{
    // The paper's clustering claim: outputs of unknown chips group
    // by physical chip with 100% success.
    Platform platform = Platform::legacy(4);
    const BitVec exact = platform.chip(0).worstCasePattern();
    std::vector<BitVec> outputs;
    std::vector<unsigned> truth;
    std::uint64_t trial = 0;
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned c = 0; c < 4; ++c) {
            TestHarness h = platform.harness(c);
            TrialSpec spec;
            spec.accuracy = 0.99;
            spec.temp = 40.0 + 10.0 * round;
            spec.trialKey = ++trial;
            outputs.push_back(h.runWorstCaseTrial(spec).approx);
            truth.push_back(c);
        }
    }
    std::vector<std::size_t> assign;
    const FingerprintDb db = cluster(outputs, exact, {}, &assign);
    EXPECT_EQ(db.size(), 4u);
    // Same truth chip -> same cluster; different -> different.
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        for (std::size_t j = i + 1; j < outputs.size(); ++j) {
            EXPECT_EQ(truth[i] == truth[j], assign[i] == assign[j])
                << "samples " << i << "," << j;
        }
    }
}

} // anonymous namespace
} // namespace pcause
