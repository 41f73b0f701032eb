/**
 * @file
 * Unit tests for core/minhash and core/store — the MinHash/LSH
 * candidate index and the FingerprintStore API built on it. The
 * load-bearing property is accept/reject equivalence: every indexed
 * query must reach the same verdict as the linear Algorithm 2 scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "core/minhash.hh"
#include "core/pcdb_format.hh"
#include "core/store.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace pcause
{
namespace
{

constexpr std::size_t universe = 4096;

BitVec
randomPattern(Rng &rng, std::size_t weight)
{
    BitVec bits(universe);
    for (std::size_t i = 0; i < weight; ++i)
        bits.set(rng.nextBelow(universe));
    return bits;
}

/** Store of @p n random fingerprints plus the matching query set:
 *  each record queried as a noisy superset, plus unknown chips. */
struct TestPopulation
{
    FingerprintStore store;
    std::vector<BitVec> queries;
    std::vector<std::optional<std::size_t>> truth;
};

TestPopulation
makePopulation(std::size_t n, std::uint64_t seed,
               const MinHashParams &params = {})
{
    Rng rng(seed);
    TestPopulation pop{FingerprintStore(params), {}, {}};
    for (std::size_t i = 0; i < n; ++i) {
        pop.store.add("chip-" + std::to_string(i),
                      Fingerprint(randomPattern(rng, 64), 3));
    }
    for (std::size_t i = 0; i < n; ++i) {
        BitVec es = pop.store.record(i).fingerprint.bits();
        for (int b = 0; b < 16; ++b) // noisy superset, sim ~0.8
            es.set(rng.nextBelow(universe));
        pop.queries.push_back(std::move(es));
        pop.truth.push_back(i);
    }
    for (std::size_t i = 0; i < n / 4; ++i) { // unknown chips
        pop.queries.push_back(randomPattern(rng, 64));
        pop.truth.push_back(std::nullopt);
    }
    return pop;
}

/** @p store's band tables hold exactly what a fresh index of its
 *  records' signatures holds, each signed from the record's positions
 *  under the store's parameters. */
void
expectIndexedAsSigned(const FingerprintStore &store)
{
    LshIndex want(store.indexParams());
    for (std::size_t i = 0; i < store.size(); ++i)
        want.add(i, minhashSignature(store.sparseFingerprints().view(i),
                                     store.indexParams()));
    for (std::uint32_t b = 0; b < store.indexParams().bands; ++b)
        EXPECT_EQ(store.index().bandEntries(b), want.bandEntries(b))
            << "band " << b;
}

// --- MinHash signatures -------------------------------------------

TEST(MinHash, SignatureIsDeterministic)
{
    Rng rng(7);
    const BitVec bits = randomPattern(rng, 100);
    const MinHashParams prm;
    const MinHashSignature a = minhashSignature(bits, prm);
    const MinHashSignature b = minhashSignature(bits, prm);
    ASSERT_EQ(a.size(), prm.numHashes);
    EXPECT_EQ(a, b);

    // A different seed is a different permutation family.
    MinHashParams other = prm;
    other.seed ^= 1;
    EXPECT_NE(minhashSignature(bits, other), a);
}

TEST(MinHash, DefaultSignatureIsPinned)
{
    // Scheme-1 PCDB files and mapped stores bucket records by these
    // values: a change to the signing walk that moves any of them
    // re-keys every saved file, so every band lookup would miss.
    BitVec bits(8192);
    for (std::size_t i = 0; i < 100; ++i)
        bits.set((i * 331 + 17) % 8192);
    for (const std::size_t p : {0, 63, 64, 65, 8191})
        bits.set(p);
    const MinHashSignature pinned{
        0x3dba21a5, 0x50ebb996, 0x55d10373, 0xcf75dd3c, 0x2018d9ad,
        0x0f3643ef, 0x1249342e, 0x2f010002, 0x4016797b, 0xab4d43f7,
        0x3f3e8561, 0x11417728, 0x253a6e98, 0x36277d2a, 0x09176e10,
        0x09176e10, 0x2018d9ad, 0x2f010002, 0xd190c5cc, 0x56f615a9,
        0x1a245511, 0x17e88c1f, 0x59556fe6, 0x1eefe705, 0x50ebb996,
        0x1a7d5ebc, 0x9a044329, 0x4016797b, 0x9f38de8d, 0x59fdb721,
        0x9f38de8d, 0x9a9e22d2, 0x03ab5e7c, 0x0f3643ef, 0x0fe53e69,
        0x20fb8160, 0x60070d19, 0x5a24f3d7, 0x45c6a907, 0x3d506de8,
        0x69343cf7, 0x20fb8160, 0x253a6e98, 0x67590016, 0x7e4c48d8,
        0x636dcfba, 0x17e88c1f, 0xc61b1e45, 0x21122b99, 0x9dcbc4f8,
        0x56f615a9, 0x95a6159b, 0x5a24f3d7, 0x22a6983d, 0x9055a02a,
        0x636dcfba, 0x67590016, 0x597aa06c, 0x3d506de8, 0x51663371,
        0x8522a5d9, 0x37552955, 0xb6f56d2e, 0x9f38de8d,
    };
    const MinHashParams prm;
    const MinHashSignature sig = minhashSignature(bits, prm);
    EXPECT_EQ(sig, pinned);
    EXPECT_EQ(lshBandKey(prm, sig, 0), 0x598dc1f9c7e2ac56ull);

    // The sparse entry signs the same cells to the same rows.
    const SparseBitset sp = SparseBitset::fromBitVec(bits);
    EXPECT_EQ(minhashSignature(SparseView{sp.positions().data(),
                                          sp.count(), sp.universe()},
                               prm),
              pinned);
}

TEST(MinHash, EmptySetIsSentinel)
{
    const MinHashSignature sig =
        minhashSignature(BitVec(universe), MinHashParams{});
    for (auto h : sig)
        EXPECT_EQ(h, 0xffffffffu);
}

TEST(MinHash, SimilarityEstimatesJaccard)
{
    Rng rng(11);
    const BitVec a = randomPattern(rng, 200);
    EXPECT_EQ(signatureSimilarity(
                  minhashSignature(a, MinHashParams{}),
                  minhashSignature(a, MinHashParams{})),
              1.0);

    // Disjoint sets: expected similarity ~0 (each position agrees
    // with probability ~ true Jaccard, here ~0.02 from collisions).
    BitVec b(universe);
    for (std::size_t i = 0; i < universe; ++i) {
        if (!a.get(i) && rng.chance(0.05))
            b.set(i);
    }
    EXPECT_LT(signatureSimilarity(
                  minhashSignature(a, MinHashParams{}),
                  minhashSignature(b, MinHashParams{})),
              0.2);

    // A superset with small additions stays similar.
    BitVec c = a;
    for (int i = 0; i < 10; ++i)
        c.set(rng.nextBelow(universe));
    EXPECT_GT(signatureSimilarity(
                  minhashSignature(a, MinHashParams{}),
                  minhashSignature(c, MinHashParams{})),
              0.6);
}

// --- LSH index ----------------------------------------------------

TEST(LshIndex, IdenticalSignaturesCollide)
{
    const MinHashParams prm;
    LshIndex index(prm);
    Rng rng(3);
    const MinHashSignature sig =
        minhashSignature(randomPattern(rng, 80), prm);
    index.add(0, minhashSignature(randomPattern(rng, 80), prm));
    index.add(1, sig);
    index.add(2, minhashSignature(randomPattern(rng, 80), prm));

    const auto cand = index.candidates(sig);
    EXPECT_NE(std::find(cand.begin(), cand.end(), 1u), cand.end());
    EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    EXPECT_EQ(std::adjacent_find(cand.begin(), cand.end()),
              cand.end()); // deduplicated
}

// --- FingerprintStore ---------------------------------------------

TEST(FingerprintStore, IndexedMatchesLinearOnRandomPopulations)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        TestPopulation pop = makePopulation(96, seed);
        for (std::size_t q = 0; q < pop.queries.size(); ++q) {
            const IdentifyResult indexed =
                pop.store.query(pop.queries[q]);
            const IdentifyResult linear =
                pop.store.queryLinear(pop.queries[q]);
            EXPECT_EQ(indexed.match, linear.match)
                << "seed " << seed << " query " << q;
            EXPECT_EQ(indexed.match, pop.truth[q]);
            if (indexed.match) {
                EXPECT_DOUBLE_EQ(indexed.bestDistance,
                                 linear.bestDistance);
            }
        }
    }
}

TEST(FingerprintStore, BestMatchModeAgreesToo)
{
    TestPopulation pop = makePopulation(64, 17);
    IdentifyParams prm;
    prm.firstMatch = false;
    for (std::size_t q = 0; q < pop.queries.size(); ++q) {
        EXPECT_EQ(pop.store.query(pop.queries[q], prm).match,
                  pop.store.queryLinear(pop.queries[q], prm).match);
    }
}

TEST(FingerprintStore, SignaturesIndependentOfAddOrder)
{
    Rng rng(23);
    std::vector<Fingerprint> fps;
    for (int i = 0; i < 8; ++i)
        fps.emplace_back(randomPattern(rng, 64), 3u);

    FingerprintStore fwd, rev;
    for (std::size_t i = 0; i < fps.size(); ++i)
        fwd.add("c" + std::to_string(i), fps[i]);
    for (std::size_t i = fps.size(); i-- > 0;)
        rev.add("c" + std::to_string(i), fps[i]);

    // Each fingerprint lands in the same buckets under either id.
    for (std::uint32_t b = 0; b < fwd.indexParams().bands; ++b) {
        auto renamed = rev.index().bandEntries(b);
        for (auto &entry : renamed)
            entry.second =
                static_cast<std::uint32_t>(fps.size() - 1 - entry.second);
        std::sort(renamed.begin(), renamed.end());
        EXPECT_EQ(fwd.index().bandEntries(b), renamed) << "band " << b;
    }
}

TEST(FingerprintStore, ReindexPreservesVerdicts)
{
    TestPopulation pop = makePopulation(48, 41);
    std::vector<std::optional<std::size_t>> before;
    for (const BitVec &q : pop.queries)
        before.push_back(pop.store.query(q).match);

    MinHashParams coarse;
    coarse.numHashes = 16;
    coarse.bands = 8;
    coarse.seed = 99;
    pop.store.reindex(coarse);
    EXPECT_EQ(pop.store.indexParams(), coarse);
    expectIndexedAsSigned(pop.store);
    for (std::size_t q = 0; q < pop.queries.size(); ++q)
        EXPECT_EQ(pop.store.query(pop.queries[q]).match, before[q]);
}

TEST(FingerprintStore, FromDbEqualsIncrementalAdds)
{
    Rng rng(47);
    FingerprintDb db;
    FingerprintStore incremental;
    for (int i = 0; i < 8; ++i) {
        Fingerprint fp(randomPattern(rng, 64), 3u);
        db.add("c" + std::to_string(i), fp);
        incremental.add("c" + std::to_string(i), fp);
    }
    const FingerprintStore bulk =
        FingerprintStore::fromDb(std::move(db));
    ASSERT_EQ(bulk.size(), incremental.size());
    for (std::uint32_t b = 0; b < bulk.indexParams().bands; ++b)
        EXPECT_EQ(bulk.index().bandEntries(b),
                  incremental.index().bandEntries(b));
}

TEST(FingerprintStore, EmptyStoreRejects)
{
    FingerprintStore store;
    EXPECT_TRUE(store.empty());
    Rng rng(53);
    const IdentifyResult r = store.query(randomPattern(rng, 64));
    EXPECT_FALSE(r.match.has_value());
    EXPECT_FALSE(r.nearest.has_value());
}

TEST(FingerprintStore, EmptyErrorStringRejects)
{
    TestPopulation pop = makePopulation(16, 59);
    const IdentifyResult indexed = pop.store.query(BitVec(universe));
    const IdentifyResult linear =
        pop.store.queryLinear(BitVec(universe));
    EXPECT_EQ(indexed.match, linear.match);
    EXPECT_FALSE(indexed.match.has_value());
}

TEST(FingerprintStore, StatsCountersAccount)
{
    TestPopulation pop = makePopulation(32, 61);
    AttackStats stats;

    // A known chip's query resolves on the shortlist: no fallback,
    // fewer candidates than records.
    const IdentifyResult hit =
        pop.store.query(pop.queries.front(), {}, &stats);
    ASSERT_TRUE(hit.match.has_value());
    EXPECT_EQ(stats.indexQueries, 1u);
    EXPECT_EQ(stats.indexFallbacks, 0u);
    EXPECT_EQ(stats.recordsAvailable, pop.store.size());
    EXPECT_GE(stats.candidatesScanned, 1u);
    EXPECT_LT(stats.candidatesScanned, pop.store.size());
    EXPECT_GT(stats.identifySeconds, 0.0);

    // An unknown chip falls back to the full scan.
    AttackStats miss_stats;
    const IdentifyResult miss =
        pop.store.query(pop.queries.back(), {}, &miss_stats);
    ASSERT_FALSE(miss.match.has_value());
    EXPECT_EQ(miss_stats.indexFallbacks, 1u);
}

TEST(FingerprintStore, StatsCountEachQueryExactlyOnce)
{
    // Regression: the pool-sharded fallback used to stamp its own
    // wall time inside the query body, so a single query's time was
    // counted twice (inner scan + outer query). Each query's work
    // must appear in the counters exactly once, and identifySeconds
    // must not exceed the wall time of the call that produced it.
    TestPopulation pop = makePopulation(32, 67);
    ThreadPool pool(4);
    pop.store.setThreadPool(&pool);

    // A miss query evaluates every shortlist candidate plus (via the
    // fallback scan) every record exactly once.
    AttackStats stats;
    const auto start = std::chrono::steady_clock::now();
    const IdentifyResult miss =
        pop.store.query(pop.queries.back(), {}, &stats);
    const double outer = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    ASSERT_FALSE(miss.match.has_value());
    EXPECT_EQ(stats.indexFallbacks, 1u);
    EXPECT_EQ(stats.distancesComputed + stats.distancesPruned,
              stats.candidatesScanned + pop.store.size());
    EXPECT_GT(stats.identifySeconds, 0.0);
    EXPECT_LE(stats.identifySeconds, outer);
}

TEST(FingerprintStoreDeathTest, UniverseMismatchStillPanics)
{
    // The overlap-count fallback reads no record positions, so the
    // query checks its bit count against the records' itself, once:
    // a query from another universe must panic as the scan kernels
    // always did, not answer from overlap counts.
    TestPopulation pop = makePopulation(16, 79);
    const BitVec wider(universe + 64);
    const BitVec narrower(universe / 2);
    EXPECT_DEATH(pop.store.query(wider), "size mismatch");
    EXPECT_DEATH(pop.store.queryFullScan(narrower), "size mismatch");
    IdentifyParams jaccard;
    jaccard.metric = DistanceMetric::Jaccard;
    EXPECT_DEATH(pop.store.queryFullScan(wider, jaccard),
                 "size mismatch");
    EXPECT_DEATH(pop.store.queryLinear(narrower), "size mismatch");

    // Once the bound is below 1 the walk screens records out without
    // a step, so it must never meet a record of another universe: a
    // store holds one, and adding a second panics at the add, alone
    // or in a batch.
    ThreadPool inline_lane(1); // no worker thread for a fork to lose
    FingerprintStore mixed;
    mixed.setThreadPool(&inline_lane);
    const BitVec first = pop.store.record(0).fingerprint.bits();
    mixed.add("here", Fingerprint(first));
    BitVec foreign(universe + 64);
    foreign.set(universe + 1);
    EXPECT_DEATH(mixed.add("there", Fingerprint(foreign)),
                 "4160 bits; the database's records have 4096");
    EXPECT_DEATH(mixed.addBatch({"there"}, {Fingerprint(foreign)}),
                 "4160 bits; the database's records have 4096");
    FingerprintStore fresh;
    fresh.setThreadPool(&inline_lane);
    EXPECT_DEATH(fresh.addBatch({"here", "there"},
                                {Fingerprint(first), Fingerprint(foreign)}),
                 "a second bit count");
}

TEST(FingerprintStore, AdmissionRefusesWhatNoFileHolds)
{
    // The one admission check, asked with numbers: no fingerprint is
    // built, so the 2^32-bit case allocates nothing. Each rule
    // refuses in check()'s words, naming the refused value; a store
    // of records admits only their bit count.
    FingerprintStore empty_store;
    FingerprintStore held;
    Rng rng(0xAD);
    held.add("held", Fingerprint(randomPattern(rng, 64), 2));
    struct Case
    {
        const char *what;
        std::uint64_t label_bytes, sources, bits;
        const char *why;
    };
    const Case record_rule[] = {
        {"a label of 65,537 bytes", pcdb::maxLabelBytes + 1, 1, universe,
         "implausible label length: the label has 65537 bytes"},
        {"zero sources", 4, 0, universe,
         "record with zero sources: the fingerprint folds no error "
         "string"},
        {"2^32 + 1 bits", 4, 1, pcdb::maxUniverseBits + 1,
         "universe exceeds 2^32 bits: the fingerprint has 4294967297 "
         "bits"},
    };
    for (const FingerprintStore *store : {&empty_store, &held}) {
        for (const Case &c : record_rule) {
            const std::string why =
                store->admitError(c.label_bytes, c.sources, c.bits);
            EXPECT_EQ(why.rfind(c.why, 0), 0u)
                << c.what << " (" << store->size() << " records): " << why;
        }
    }
    const Case second = {"a second bit count", 4, 1, universe + 64,
                         "the fingerprint has 4160 bits; the database's "
                         "records have 4096"};
    EXPECT_EQ(held.admitError(second.label_bytes, second.sources,
                              second.bits),
              second.why);

    // What the rules admit: a label at the limit, and on an empty
    // store any bit count up to 2^32.
    EXPECT_EQ(held.admitError(pcdb::maxLabelBytes, 1, universe), "");
    EXPECT_EQ(empty_store.admitError(0, 1, pcdb::maxUniverseBits), "");
    EXPECT_EQ(held.size(), 1u);
    EXPECT_EQ(held.bitCount(), universe);
    EXPECT_EQ(empty_store.bitCount(), 0u);
}

TEST(FingerprintStore, AddBatchEqualsSerialAdds)
{
    Rng rng(73);
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    for (int i = 0; i < 40; ++i) {
        labels.push_back("c" + std::to_string(i));
        fps.emplace_back(randomPattern(rng, 64), 3u);
    }

    FingerprintStore serial;
    for (std::size_t i = 0; i < fps.size(); ++i)
        serial.add(labels[i], fps[i]);

    // Two batches: the first lands in an empty store (which adopts
    // the batch's arena), the second is appended behind it.
    ThreadPool pool(4);
    FingerprintStore batch;
    batch.setThreadPool(&pool);
    batch.addBatch({labels.begin(), labels.begin() + 25},
                   {fps.begin(), fps.begin() + 25});
    batch.addBatch({labels.begin() + 25, labels.end()},
                   {fps.begin() + 25, fps.end()});

    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(batch.record(i).label, serial.record(i).label);
        EXPECT_EQ(batch.sources(i), serial.sources(i));
        const SparseView bv = batch.sparseFingerprints().view(i);
        const SparseView sv = serial.sparseFingerprints().view(i);
        ASSERT_EQ(bv.count, sv.count);
        for (std::size_t p = 0; p < bv.count; ++p)
            EXPECT_EQ(bv.positions[p], sv.positions[p]);
    }
    // The banded index is bit-identical too, and so is the position
    // index.
    for (std::uint32_t b = 0; b < serial.indexParams().bands; ++b)
        EXPECT_EQ(batch.index().bandEntries(b),
                  serial.index().bandEntries(b));
    EXPECT_EQ(batch.positionIndex(), serial.positionIndex());
    expectIndexedAsSigned(batch);
}

TEST(FingerprintStore, AddBatchIsTheSameAtAnyLaneCount)
{
    // Batches large enough to split into record shards on four lanes
    // (the arena fill, the position counting sort): at one lane and
    // at four, a batch into an empty store and one appended behind
    // it give the same slot arrays and posting lists, and the store
    // answers as after serial add() calls.
    Rng rng(0x6c616e6573ull);
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    for (int i = 0; i < 1200; ++i) {
        labels.push_back("c" + std::to_string(i));
        fps.emplace_back(randomPattern(rng, 256), 2u);
    }
    FingerprintStore serial;
    for (std::size_t i = 0; i < fps.size(); ++i)
        serial.add(labels[i], fps[i]);

    ThreadPool one(1), four(4);
    std::vector<FingerprintStore> built;
    for (ThreadPool *pool : {&one, &four}) {
        FingerprintStore &batch = built.emplace_back();
        batch.setThreadPool(pool);
        batch.addBatch({labels.begin(), labels.begin() + 700},
                       {fps.begin(), fps.begin() + 700});
        batch.addBatch({labels.begin() + 700, labels.end()},
                       {fps.begin() + 700, fps.end()});
        batch.setThreadPool(nullptr);

        ASSERT_EQ(batch.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(batch.label(i), serial.label(i));
            ASSERT_EQ(batch.sources(i), serial.sources(i));
            const SparseView bv = batch.sparseFingerprints().view(i);
            const SparseView sv = serial.sparseFingerprints().view(i);
            ASSERT_TRUE(bv.count == sv.count &&
                        std::equal(bv.positions, bv.positions + bv.count,
                                   sv.positions));
        }
        for (std::uint32_t b = 0; b < serial.indexParams().bands; ++b)
            EXPECT_EQ(batch.index().bandEntries(b),
                      serial.index().bandEntries(b));
        EXPECT_EQ(batch.positionIndex(), serial.positionIndex());
        for (std::size_t q = 0; q < 40; ++q) {
            BitVec es = q % 4 == 3 ? randomPattern(rng, 256)
                                   : serial.record(q * 29).fingerprint.bits();
            for (int b = 0; b < 32; ++b)
                es.set(rng.nextBelow(universe));
            AttackStats got_stats, want_stats;
            const IdentifyResult got = batch.query(es, {}, &got_stats);
            const IdentifyResult want = serial.query(es, {}, &want_stats);
            EXPECT_EQ(got.match, want.match) << "query " << q;
            EXPECT_EQ(got.nearest, want.nearest) << "query " << q;
            EXPECT_EQ(std::memcmp(&got.bestDistance, &want.bestDistance,
                                  sizeof(double)),
                      0);
            EXPECT_EQ(got_stats.distancesComputed,
                      want_stats.distancesComputed);
        }
    }
    // The two lane counts built the very same slot arrays.
    for (std::uint32_t b = 0; b < serial.indexParams().bands; ++b) {
        const LshIndex::BandSlots a = built[0].index().bandSlots(b);
        const LshIndex::BandSlots c = built[1].index().bandSlots(b);
        ASSERT_EQ(a.slots, c.slots);
        EXPECT_TRUE(std::equal(a.ids, a.ids + a.slots, c.ids));
        EXPECT_TRUE(std::equal(a.keys, a.keys + a.slots, c.keys));
    }
}

TEST(LshIndex, MultiProbeExtendsPrimaryCandidates)
{
    // Multi-probe candidates are a superset of the primary-bucket
    // candidates, and probes == 1 reduces to them exactly.
    MinHashParams prm;
    TestPopulation pop = makePopulation(64, 83, prm);
    Rng rng(89);
    for (int trial = 0; trial < 8; ++trial) {
        const BitVec es = pop.queries[rng.nextBelow(64)];
        const MinHashSketch sketch = minhashSketch(es, prm);
        EXPECT_EQ(sketch.primary, minhashSignature(es, prm));

        const auto primary =
            pop.store.index().candidates(sketch.primary);
        const auto probed = pop.store.index().candidates(sketch);
        EXPECT_TRUE(std::includes(probed.begin(), probed.end(),
                                  primary.begin(), primary.end()));
    }

    MinHashParams single = prm;
    single.probes = 1;
    TestPopulation pop1 = makePopulation(64, 83, single);
    const MinHashSketch sketch =
        minhashSketch(pop1.queries[5], single);
    EXPECT_EQ(pop1.store.index().candidates(sketch),
              pop1.store.index().candidates(sketch.primary));
}

} // anonymous namespace
} // namespace pcause
