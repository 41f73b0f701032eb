/**
 * @file
 * Integration tests for core/attacker: both Section 3 threat
 * models end to end.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/attacker.hh"
#include "core/error_string.hh"
#include "platform/platform.hh"
#include "util/thread_pool.hh"

namespace pcause
{
namespace
{

TEST(SupplyChainAttacker, InterceptsAndAttributes)
{
    Platform platform = Platform::legacy(3);
    SupplyChainAttacker attacker;
    for (unsigned c = 0; c < 3; ++c) {
        TestHarness h = platform.harness(c);
        attacker.interceptChip(h, "victim-" + std::to_string(c));
    }
    EXPECT_EQ(attacker.store().size(), 3u);

    // A public output from chip 1 deanonymizes its machine.
    TestHarness h = platform.harness(1);
    const BitVec exact = h.chip().worstCasePattern();
    TrialSpec spec;
    spec.accuracy = 0.95;
    spec.temp = 55.0;
    spec.trialKey = 777;
    const IdentifyResult r =
        attacker.attribute(h.runWorstCaseTrial(spec).approx, exact);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(attacker.label(*r.match), "victim-1");
}

TEST(SupplyChainAttacker, UnknownChipFailsToAttribute)
{
    Platform platform = Platform::legacy(3);
    SupplyChainAttacker attacker;
    for (unsigned c = 0; c < 2; ++c) {
        TestHarness h = platform.harness(c);
        attacker.interceptChip(h, "known-" + std::to_string(c));
    }
    // Chip 2 was never intercepted.
    TestHarness h = platform.harness(2);
    const BitVec exact = h.chip().worstCasePattern();
    TrialSpec spec;
    spec.accuracy = 0.99;
    spec.trialKey = 1234;
    const IdentifyResult r =
        attacker.attribute(h.runWorstCaseTrial(spec).approx, exact);
    EXPECT_FALSE(r.match.has_value());
}

TEST(SupplyChainAttacker, DataAwareAttributionEqualsDenseReference)
{
    // attributeWithData() masks the store's sparse records; the
    // dense identifyWithData() over the same records held as a
    // FingerprintDb is the reference. The published data charges
    // only chip 0's cells outside chip 1's fingerprint, so chip 1's
    // record masks to empty and must be skipped by both.
    const DramConfig cfg = DramConfig::tiny();
    Platform platform(cfg, 3, 0x5EED);
    const DistanceMetric metrics[] = {DistanceMetric::ModifiedJaccard,
                                      DistanceMetric::Jaccard,
                                      DistanceMetric::Hamming};
    for (const DistanceMetric metric : metrics) {
        for (const bool first_match : {true, false}) {
            IdentifyParams prm;
            prm.metric = metric;
            prm.firstMatch = first_match;
            prm.threshold = 0.9;
            SupplyChainAttacker attacker(prm);
            for (unsigned c = 0; c < 3; ++c) {
                TestHarness h = platform.harness(c);
                attacker.interceptChip(h, "chip-" + std::to_string(c),
                                       3, 0.95);
            }
            FingerprintDb db;
            for (std::size_t i = 0; i < attacker.store().size(); ++i) {
                const FingerprintRecord rec = attacker.store().record(i);
                db.add(rec.label, rec.fingerprint);
            }
            const BitVec chip0 = db.record(0).fingerprint.bits();
            const BitVec chip1 = db.record(1).fingerprint.bits();

            // Default contents everywhere, anti-default exactly on
            // chip 0's cells outside chip 1's fingerprint.
            BitVec exact(cfg.totalBits());
            for (std::size_t cell = 0; cell < cfg.totalBits(); ++cell) {
                const bool def = cfg.defaultBit(cell / cfg.rowBits());
                const bool charged = chip0.get(cell) && !chip1.get(cell);
                if (def != charged)
                    exact.set(cell);
            }
            ASSERT_TRUE((maskableCells(exact, cfg) & chip1).none());
            ASSERT_FALSE((maskableCells(exact, cfg) & chip0).none());

            // Chip 0's output: most of its charged cells decayed.
            BitVec approx = exact;
            std::size_t k = 0;
            for (const std::size_t cell :
                 maskableCells(exact, cfg).setBits()) {
                if (k++ % 4 != 0)
                    approx.set(cell, !approx.get(cell));
            }
            for (const BitVec &out : {approx, exact}) {
                const IdentifyResult want =
                    identifyWithData(out, exact, cfg, db, prm);
                const IdentifyResult got =
                    attacker.attributeWithData(out, exact, cfg);
                EXPECT_EQ(got.match, want.match);
                EXPECT_EQ(got.nearest, want.nearest);
                EXPECT_EQ(std::memcmp(&got.bestDistance,
                                      &want.bestDistance,
                                      sizeof(double)),
                          0);
                EXPECT_NE(want.nearest, std::optional<std::size_t>(1));
            }
        }
    }
}

TEST(SupplyChainAttacker, BatchAttributionMatchesSerial)
{
    Platform platform = Platform::legacy(3);
    ThreadPool pool(4);
    SupplyChainAttacker attacker;
    attacker.setThreadPool(&pool);
    for (unsigned c = 0; c < 3; ++c) {
        TestHarness h = platform.harness(c);
        attacker.interceptChip(h, "victim-" + std::to_string(c));
    }

    // Outputs from every chip at varied accuracy, all sharing the
    // worst-case exact value.
    const BitVec exact = platform.chip(0).worstCasePattern();
    std::vector<BitVec> outputs;
    std::vector<IdentifyResult> serial;
    std::uint64_t trial = 500;
    for (unsigned c = 0; c < 3; ++c) {
        TestHarness h = platform.harness(c);
        for (double acc : {0.99, 0.95}) {
            TrialSpec spec;
            spec.accuracy = acc;
            spec.trialKey = ++trial;
            outputs.push_back(h.runWorstCaseTrial(spec).approx);
            serial.push_back(
                attacker.attribute(outputs.back(), exact));
        }
    }

    const std::vector<IdentifyResult> batch =
        attacker.attributeBatch(outputs, exact);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(batch[i].match, serial[i].match) << "output " << i;
        EXPECT_EQ(batch[i].nearest, serial[i].nearest);
        EXPECT_EQ(batch[i].bestDistance, serial[i].bestDistance);
    }
    // The session counters saw both phases.
    EXPECT_GT(attacker.stats().characterizeSeconds, 0.0);
    EXPECT_GT(attacker.stats().identifySeconds, 0.0);
    EXPECT_GT(attacker.stats().distancesComputed +
                  attacker.stats().distancesPruned,
              0u);
}

TEST(SupplyChainAttacker, ElementwiseBatchMatchesSerial)
{
    Platform platform = Platform::legacy(3);
    ThreadPool pool(4);
    SupplyChainAttacker attacker;
    attacker.setThreadPool(&pool);
    for (unsigned c = 0; c < 3; ++c) {
        TestHarness h = platform.harness(c);
        attacker.interceptChip(h, "victim-" + std::to_string(c));
    }

    // Each output pairs with its own exact value (the unified
    // elementwise batch shape).
    std::vector<BitVec> outputs;
    std::vector<BitVec> exacts;
    std::vector<IdentifyResult> serial;
    std::uint64_t trial = 900;
    for (unsigned c = 0; c < 3; ++c) {
        TestHarness h = platform.harness(c);
        TrialSpec spec;
        spec.accuracy = 0.97;
        spec.trialKey = ++trial;
        outputs.push_back(h.runWorstCaseTrial(spec).approx);
        exacts.push_back(h.chip().worstCasePattern());
        serial.push_back(
            attacker.attribute(outputs.back(), exacts.back()));
    }

    const std::vector<IdentifyResult> batch =
        attacker.attributeBatch(outputs, exacts);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(batch[i].match, serial[i].match) << "output " << i;
        EXPECT_EQ(batch[i].bestDistance, serial[i].bestDistance);
    }
    // Attribution went through the candidate index.
    EXPECT_GT(attacker.stats().indexQueries, 0u);
    EXPECT_EQ(attacker.stats().recordsAvailable,
              attacker.stats().indexQueries * attacker.store().size());
}

TEST(SupplyChainAttacker, InterceptValidatesArguments)
{
    Platform platform = Platform::legacy(1);
    SupplyChainAttacker attacker;
    TestHarness h = platform.harness(0);
    EXPECT_DEATH(attacker.interceptChip(h, "x", 0), "");
}

class EavesdropperTest : public ::testing::Test
{
  protected:
    CommoditySystemParams smallMachine()
    {
        CommoditySystemParams p;
        p.dram.totalBits = 512ull * pageBits; // 2 MB machine
        return p;
    }
};

TEST_F(EavesdropperTest, ConvergesToOneMachine)
{
    CommoditySystem victim(smallMachine(), 0xA, 1);
    EavesdropperAttacker attacker;
    // 64-page samples over a 512-page machine: overlaps come fast.
    for (int n = 0; n < 40; ++n)
        attacker.observe(victim.publish(64 * pageBytes));
    EXPECT_EQ(attacker.suspectedMachines(), 1u);
}

TEST_F(EavesdropperTest, SeparatesTwoMachines)
{
    CommoditySystem alice(smallMachine(), 0xA, 1);
    CommoditySystem bob(smallMachine(), 0xB, 2);
    EavesdropperAttacker attacker;
    // Enough samples for every memory region of both machines to be
    // bridged (convergence is asymptotic — the paper needs ~90
    // samples for onset and ~1000 for full convergence).
    for (int n = 0; n < 80; ++n) {
        attacker.observe(alice.publish(64 * pageBytes));
        attacker.observe(bob.publish(64 * pageBytes));
    }
    EXPECT_EQ(attacker.suspectedMachines(), 2u);
}

TEST_F(EavesdropperTest, AttributesFreshSamples)
{
    CommoditySystem alice(smallMachine(), 0xA, 1);
    CommoditySystem bob(smallMachine(), 0xB, 2);
    EavesdropperAttacker attacker;
    std::size_t alice_cluster = 0;
    for (int n = 0; n < 30; ++n) {
        alice_cluster = attacker.observe(
            alice.publish(64 * pageBytes));
        attacker.observe(bob.publish(64 * pageBytes));
    }
    const auto match = attacker.attribute(
        alice.publish(64 * pageBytes));
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(attacker.stitcher().resolve(*match),
              attacker.stitcher().resolve(alice_cluster));
}

TEST_F(EavesdropperTest, BatchObservationMatchesSerial)
{
    // Two identically seeded victims give both attackers the same
    // sample stream; observeBatch must land every sample in the
    // same cluster as one-by-one observe.
    CommoditySystem victim_a(smallMachine(), 0xA, 1);
    CommoditySystem victim_b(smallMachine(), 0xA, 1);
    ThreadPool pool(4);

    EavesdropperAttacker one_by_one;
    EavesdropperAttacker batched;
    batched.setThreadPool(&pool);

    std::vector<std::size_t> serial_ids;
    std::vector<ApproximateSample> batch;
    for (int n = 0; n < 24; ++n) {
        serial_ids.push_back(
            one_by_one.observe(victim_a.publish(64 * pageBytes)));
        batch.push_back(victim_b.publish(64 * pageBytes));
    }
    const std::vector<std::size_t> batch_ids =
        batched.observeBatch(batch);

    EXPECT_EQ(batch_ids, serial_ids);
    EXPECT_EQ(batched.suspectedMachines(),
              one_by_one.suspectedMachines());
    EXPECT_EQ(batched.stitcher().stats().merges,
              one_by_one.stitcher().stats().merges);
    EXPECT_EQ(batched.stats().pagesProbed,
              one_by_one.stats().pagesProbed);
    EXPECT_GT(batched.stats().ingestSeconds, 0.0);
}

TEST_F(EavesdropperTest, BatchAttributionMatchesSerial)
{
    CommoditySystem alice(smallMachine(), 0xA, 1);
    CommoditySystem bob(smallMachine(), 0xB, 2);
    EavesdropperAttacker attacker;
    for (int n = 0; n < 30; ++n) {
        attacker.observe(alice.publish(64 * pageBytes));
        attacker.observe(bob.publish(64 * pageBytes));
    }

    std::vector<ApproximateSample> fresh;
    std::vector<std::optional<std::size_t>> serial;
    for (int n = 0; n < 4; ++n) {
        fresh.push_back(alice.publish(64 * pageBytes));
        serial.push_back(attacker.attribute(fresh.back()));
        fresh.push_back(bob.publish(64 * pageBytes));
        serial.push_back(attacker.attribute(fresh.back()));
    }

    const std::vector<std::optional<std::size_t>> batch =
        attacker.attributeBatch(fresh);
    EXPECT_EQ(batch, serial);
    EXPECT_GT(attacker.stats().identifySeconds, 0.0);
}

TEST_F(EavesdropperTest, WholeOutputBatchMatchesSerial)
{
    // The whole-output clustering path (Algorithm 4 over the indexed
    // clusterer): batch ingest must assign exactly like one-by-one
    // ingest, and both like the literal pairwise scan.
    auto es = [](std::initializer_list<std::size_t> bits) {
        BitVec v(2048);
        for (auto b : bits)
            v.set(b);
        return v;
    };
    const std::vector<BitVec> stream{
        es({1, 2, 3, 4}),        es({700, 800, 900}),
        es({1, 2, 3, 4, 1500}),  es({100, 101, 102, 103}),
        es({700, 800, 900, 44}),
    };

    ThreadPool pool(4);
    EavesdropperAttacker serial;
    EavesdropperAttacker batched;
    batched.setThreadPool(&pool);
    OnlineClusterer pairwise;

    std::vector<std::size_t> serial_ids;
    std::vector<std::size_t> pairwise_ids;
    for (const BitVec &e : stream) {
        serial_ids.push_back(serial.observeErrorString(e));
        pairwise_ids.push_back(pairwise.addErrorString(e));
    }
    const std::vector<std::size_t> batch_ids =
        batched.observeErrorStrings(stream);

    EXPECT_EQ(batch_ids, serial_ids);
    EXPECT_EQ(batch_ids, pairwise_ids);
    EXPECT_EQ(batched.clusterer().numClusters(),
              pairwise.numClusters());
    EXPECT_GT(batched.stats().ingestSeconds, 0.0);
}

TEST_F(EavesdropperTest, ClusterDatabaseExportsDiscoveredFleet)
{
    EavesdropperAttacker attacker;
    BitVec a(2048), b(2048);
    for (std::size_t k = 0; k < 16; ++k) {
        a.set(3 * k);
        b.set(1024 + 3 * k);
    }
    attacker.observeErrorString(a);
    attacker.observeErrorString(b);
    attacker.observeErrorString(a);
    EXPECT_EQ(attacker.clusterer().numClusters(), 2u);
    const FingerprintDb db = attacker.clusterDatabase();
    ASSERT_EQ(db.size(), 2u);
    EXPECT_EQ(db.record(0).label, "cluster-0");
    EXPECT_EQ(db.record(0).fingerprint.bits(), a);
    EXPECT_EQ(db.record(1).fingerprint.bits(), b);
}

TEST_F(EavesdropperTest, AslrDefenseBlocksConvergence)
{
    // Section 8.2.3: page-level ASLR removes the contiguity the
    // stitcher needs, so samples cannot be stitched together.
    CommoditySystemParams p = smallMachine();
    p.placement = PlacementPolicy::PageLevelAslr;
    CommoditySystem victim(p, 0xA, 1);
    EavesdropperAttacker attacker;
    for (int n = 0; n < 20; ++n)
        attacker.observe(victim.publish(64 * pageBytes));
    // Far from converging to 1: most samples stay separate.
    EXPECT_GT(attacker.suspectedMachines(), 10u);
}

} // anonymous namespace
} // namespace pcause
