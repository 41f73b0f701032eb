/**
 * @file
 * Unit tests for core/service — the AttackService facade. The
 * load-bearing property is that facade verdicts are bit-identical
 * to direct FingerprintStore / MappedStore queries, for every
 * QueryOptions combination, and that the per-worker stats slots
 * merge without tearing or double-counting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "core/serialize.hh"
#include "core/service.hh"
#include "core/store.hh"
#include "core/wal.hh"
#include "util/failpoint.hh"
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

FingerprintStore
makeStore(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    FingerprintStore store;
    for (std::size_t i = 0; i < n; ++i)
        store.add("chip-" + std::to_string(i),
                  Fingerprint(randomPattern(rng, 64), 3));
    return store;
}

std::vector<BitVec>
makeQueries(const FingerprintStore &store, std::size_t extra_unknown,
            std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVec> queries;
    for (std::size_t i = 0; i < store.size(); ++i) {
        BitVec es = store.record(i).fingerprint.bits();
        for (int b = 0; b < 16; ++b)
            es.set(rng.nextBelow(universe));
        queries.push_back(std::move(es));
    }
    for (std::size_t i = 0; i < extra_unknown; ++i)
        queries.push_back(randomPattern(rng, 64));
    return queries;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(AttackService, VerdictsMatchDirectStoreQueries)
{
    const FingerprintStore direct = makeStore(50, 0x5eed);
    const std::vector<BitVec> queries =
        makeQueries(direct, 10, 0x9);
    AttackService svc(makeStore(50, 0x5eed));

    for (const bool linear : {false, true}) {
        QueryOptions options;
        options.linear = linear;
        const IdentifyParams prm = options.identifyParams();
        for (const BitVec &es : queries) {
            const IdentifyResult want =
                linear ? direct.queryLinear(es, prm)
                       : direct.query(es, prm);
            IdentifyRequest req;
            req.errorString = es;
            req.options = options;
            const IdentifyVerdict got = svc.identify(req);
            ASSERT_EQ(want.match.has_value(), got.matched);
            ASSERT_EQ(want.match, got.record);
            ASSERT_EQ(want.nearest, got.nearest);
            ASSERT_TRUE(sameBits(want.bestDistance, got.distance));
            if (want.match) {
                ASSERT_EQ(direct.record(*want.match).label,
                          got.label);
            }
        }
    }
}

TEST(AttackService, BatchElementwiseEqualsIdentify)
{
    AttackService svc(makeStore(40, 0xbeef));
    svc.setThreadPool(&ThreadPool::global());
    const std::vector<BitVec> queries =
        makeQueries(*svc.store(), 8, 0x3);

    const QueryOptions options;
    const std::vector<IdentifyVerdict> batch =
        svc.identifyBatch(queries, options);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        IdentifyRequest req;
        req.errorString = queries[i];
        req.options = options;
        const IdentifyVerdict solo = svc.identify(req);
        EXPECT_EQ(solo.matched, batch[i].matched);
        EXPECT_EQ(solo.label, batch[i].label);
        EXPECT_TRUE(sameBits(solo.distance, batch[i].distance));
        // Each element carries its own query's diagnostics.
        EXPECT_EQ(solo.delta.candidatesScanned,
                  batch[i].delta.candidatesScanned);
        EXPECT_EQ(solo.delta.recordsAvailable,
                  batch[i].delta.recordsAvailable);
        EXPECT_EQ(solo.delta.indexFallbacks,
                  batch[i].delta.indexFallbacks);
        EXPECT_EQ(solo.delta.distancesComputed,
                  batch[i].delta.distancesComputed);
        EXPECT_EQ(solo.delta.distancesPruned,
                  batch[i].delta.distancesPruned);
        EXPECT_GT(batch[i].delta.identifySeconds, 0.0);
    }
}

TEST(AttackService, AddsWhileReadersQuery)
{
    // Writers grow every index structure (dense records, position
    // arena, LSH tables, inverted position index) under the
    // exclusive lock while readers run indexed, full-scan and
    // batched queries under the shared one.
    constexpr std::size_t initial = 40;
    constexpr std::size_t added = 160;
    AttackService svc(makeStore(initial, 0x5eed));
    ThreadPool pool(2);
    svc.setThreadPool(&pool);
    const std::vector<BitVec> queries =
        makeQueries(*svc.store(), 4, 0x7);

    Rng rng(0xadd);
    std::vector<Fingerprint> extra;
    for (std::size_t i = 0; i < added; ++i)
        extra.emplace_back(randomPattern(rng, 64), 3);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> wrong{0};
    const auto reader = [&](bool batched) {
        std::size_t q = 0;
        while (!done.load()) {
            const std::size_t i = q++ % queries.size();
            IdentifyVerdict v;
            if (batched) {
                v = svc.identifyBatch({queries[i]}, {}).front();
            } else {
                IdentifyRequest req;
                req.errorString = queries[i];
                v = svc.identify(req);
            }
            const bool known = i < initial;
            const std::size_t seen = v.delta.recordsAvailable;
            if (v.matched != known ||
                (known && v.label != "chip-" + std::to_string(i)) ||
                seen < initial || seen > initial + added)
                wrong.fetch_add(1);
        }
    };
    std::vector<std::thread> readers;
    readers.emplace_back(reader, false);
    readers.emplace_back(reader, false);
    readers.emplace_back(reader, true);
    for (std::size_t i = 0; i < added; ++i) {
        const AttackService::AddOutcome out =
            svc.addRecord("new-" + std::to_string(i), extra[i]);
        EXPECT_TRUE(out.added);
    }
    done.store(true);
    for (std::thread &t : readers)
        t.join();
    EXPECT_EQ(wrong.load(), 0u);

    // Every added record is found, and a reject now scans them all.
    ASSERT_EQ(svc.size(), initial + added);
    for (std::size_t i = 0; i < added; ++i) {
        IdentifyRequest req;
        req.errorString = extra[i].bits();
        const IdentifyVerdict v = svc.identify(req);
        EXPECT_TRUE(v.matched);
        EXPECT_EQ(v.label, "new-" + std::to_string(i));
    }
    IdentifyRequest reject;
    reject.errorString = queries.back();
    const IdentifyVerdict v = svc.identify(reject);
    EXPECT_FALSE(v.matched);
    EXPECT_EQ(v.delta.indexFallbacks, 1u);
    EXPECT_EQ(v.delta.recordsAvailable, initial + added);
    EXPECT_EQ(v.delta.distancesComputed + v.delta.distancesPruned,
              v.delta.candidatesScanned + initial + added);
}

TEST(AttackService, OptionsMapOntoIdentifyParams)
{
    QueryOptions options;
    options.threshold = 0.25;
    options.metric = DistanceMetric::Jaccard;
    options.firstMatch = false;
    const IdentifyParams prm = options.identifyParams();
    EXPECT_EQ(prm.threshold, 0.25);
    EXPECT_EQ(prm.metric, DistanceMetric::Jaccard);
    EXPECT_FALSE(prm.firstMatch);

    QueryOptions other = options;
    EXPECT_TRUE(options == other);
    other.linear = true;
    EXPECT_TRUE(options != other);
}

TEST(AttackService, AddFingerprintThenIdentify)
{
    AttackService svc{FingerprintStore{}};
    Rng rng(0x11);
    const BitVec pattern = randomPattern(rng, 64);
    // Two error strings whose intersection is the pattern itself.
    BitVec a = pattern, b = pattern;
    a.set(1);
    b.set(2);
    const AttackService::AddOutcome out =
        svc.addFingerprint("added-chip", {a, b});
    ASSERT_TRUE(out.added);
    EXPECT_EQ(out.record, 0u);
    EXPECT_EQ(out.weight, pattern.popcount());
    EXPECT_EQ(svc.size(), 1u);

    IdentifyRequest req;
    req.errorString = a;
    const IdentifyVerdict v = svc.identify(req);
    EXPECT_TRUE(v.matched);
    EXPECT_EQ(v.label, "added-chip");
}

TEST(AttackService, AddRefusalsCarryReasons)
{
    AttackService svc{FingerprintStore{}};
    const AttackService::AddOutcome empty =
        svc.addFingerprint("x", {});
    EXPECT_FALSE(empty.added);
    EXPECT_FALSE(empty.error.empty());
}

TEST(AttackService, MappedBackendMatchesOwned)
{
    const std::string path = "service_mapped_test.pcdb";
    const FingerprintStore direct = makeStore(30, 0x77);
    ASSERT_TRUE(saveStore(direct, path));

    LoadResult<AttackService> svc = AttackService::open(path, true);
    ASSERT_TRUE(svc) << svc.error;
    EXPECT_TRUE(svc->readOnly());
    EXPECT_EQ(svc->size(), direct.size());

    const std::vector<BitVec> queries =
        makeQueries(direct, 5, 0x7);
    const IdentifyParams prm;
    for (const BitVec &es : queries) {
        const IdentifyResult want = direct.query(es, prm);
        IdentifyRequest req;
        req.errorString = es;
        const IdentifyVerdict got = svc->identify(req);
        ASSERT_EQ(want.match.has_value(), got.matched);
        ASSERT_TRUE(sameBits(want.bestDistance, got.distance));
        if (want.match) {
            ASSERT_EQ(direct.record(*want.match).label, got.label);
        }
    }

    // Both backends run one query body for every metric: a Jaccard
    // and a Hamming request answer exactly as the owned store does.
    for (const DistanceMetric metric :
         {DistanceMetric::Jaccard, DistanceMetric::Hamming}) {
        IdentifyRequest req;
        req.errorString = queries.front();
        req.options.metric = metric;
        const IdentifyResult want =
            direct.query(req.errorString, req.options.identifyParams());
        const IdentifyVerdict got = svc->identify(req);
        EXPECT_EQ(want.match, got.record);
        EXPECT_EQ(want.nearest, got.nearest);
        EXPECT_TRUE(sameBits(want.bestDistance, got.distance));
    }

    // The mmap backend is read-only: adds refuse with a reason.
    const AttackService::AddOutcome out =
        svc->addRecord("new", Fingerprint(BitVec(universe), 1));
    EXPECT_FALSE(out.added);
    EXPECT_NE(out.error.find("read-only"), std::string::npos);
    std::remove(path.c_str());
}

TEST(AttackService, OpenReportsLoadErrors)
{
    LoadResult<AttackService> missing =
        AttackService::open("does-not-exist.pcdb", false);
    EXPECT_FALSE(missing);
    EXPECT_FALSE(missing.error.empty());
}

TEST(AttackService, DbStatsCountsRecordsAndCells)
{
    AttackService svc(makeStore(12, 0x55));
    const ServiceDbStats s = svc.dbStats();
    EXPECT_EQ(s.records, 12u);
    EXPECT_EQ(s.universeBits, universe);
    EXPECT_GT(s.volatileCells, 0u);
    EXPECT_GT(s.diskBytesEstimate, 0u);
    EXPECT_TRUE(s.hasOccupancy);
    EXPECT_STREQ(s.backend, "store");
    // Index memory is reported from capacities: at least one slot
    // per record per band, and one id per volatile cell.
    EXPECT_GE(s.lshBytes, s.records * s.indexParams.bands *
                              (sizeof(std::uint64_t) +
                               sizeof(std::uint32_t)));
    EXPECT_GE(s.postingsBytes,
              s.volatileCells * sizeof(std::uint32_t));
}

TEST(AttackService, StatsSnapshotSumsQueries)
{
    AttackService svc(makeStore(20, 0x21));
    const std::vector<BitVec> queries =
        makeQueries(*svc.store(), 0, 0x4);
    for (const BitVec &es : queries) {
        IdentifyRequest req;
        req.errorString = es;
        (void)svc.identify(req);
    }
    const AttackStats s = svc.snapshot();
    EXPECT_EQ(s.indexQueries, queries.size());
    EXPECT_GT(s.distancesComputed, 0u);

    const std::string json = svc.statsJson();
    EXPECT_NE(json.find("\"index_queries\": " +
                        std::to_string(queries.size())),
              std::string::npos);
    EXPECT_NE(json.find("\"backend\": \"store\""),
              std::string::npos);
}

/** Satellite 3: per-worker slots must merge without tearing or
 *  double-counting — hammer accumulate from many threads while
 *  snapshots run, then check the exact total. */
TEST(ServiceStats, ConcurrentAccumulateNeverTearsOrDoubleCounts)
{
    ServiceStats stats(8);
    constexpr std::size_t threads = 8;
    constexpr std::size_t perThread = 5000;

    std::vector<std::thread> workers;
    std::atomic<bool> go{false};
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (std::size_t i = 0; i < perThread; ++i) {
                AttackStats delta;
                delta.distancesComputed = 1;
                delta.candidatesScanned = 2;
                delta.identifySeconds = 0.001;
                stats.accumulate(delta);
            }
        });
    }
    // Concurrent readers: totals may lag but never exceed the
    // true count, and counters move together (no torn pairs where
    // candidates < 2 * distances could appear).
    std::thread reader([&] {
        for (int i = 0; i < 200; ++i) {
            const AttackStats s = stats.snapshot();
            EXPECT_LE(s.distancesComputed, threads * perThread);
            EXPECT_EQ(s.candidatesScanned,
                      2 * s.distancesComputed);
        }
    });
    go.store(true);
    for (std::thread &w : workers)
        w.join();
    reader.join();

    const AttackStats total = stats.snapshot();
    EXPECT_EQ(total.distancesComputed, threads * perThread);
    EXPECT_EQ(total.candidatesScanned, 2 * threads * perThread);
    EXPECT_NEAR(total.identifySeconds, 0.001 * threads * perThread,
                1e-6);
}

// --- Durability ---------------------------------------------------

struct DurableFixture
{
    std::string dbPath = "service_durable_test.pcdb";
    std::string walPath = "service_durable_test.pcdb.wal";

    DurableFixture() { cleanup(); }
    ~DurableFixture()
    {
        failpoint::disarmAll();
        cleanup();
    }

    void cleanup()
    {
        std::remove(dbPath.c_str());
        std::remove(walPath.c_str());
    }

    AttackService::DurabilityConfig config(
        std::size_t checkpoint_every = 1u << 20) const
    {
        AttackService::DurabilityConfig dur;
        dur.dbPath = dbPath;
        dur.walPath = walPath;
        dur.checkpointEvery = checkpoint_every;
        return dur;
    }
};

TEST(AttackService, DurableAddsSurviveReopenWithoutCheckpoint)
{
    DurableFixture fx;
    Rng rng(0xD0);
    const BitVec fp0 = randomPattern(rng, 32);
    const BitVec fp1 = randomPattern(rng, 32);
    {
        LoadResult<AttackService> svc =
            AttackService::openDurable(fx.config());
        ASSERT_TRUE(svc) << svc.error;
        EXPECT_TRUE(svc->durable());
        ASSERT_TRUE(svc->addRecord("a", Fingerprint(fp0, 2)).added);
        ASSERT_TRUE(svc->addRecord("b", Fingerprint(fp1, 5)).added);
        EXPECT_EQ(svc->walEntries(), 2u);
        // No checkpoint, no graceful shutdown: the journal alone
        // must carry both acked adds across the "crash".
    }
    LoadResult<AttackService> back =
        AttackService::openDurable(fx.config());
    ASSERT_TRUE(back) << back.error;
    ASSERT_EQ(back->size(), 2u);
    ASSERT_NE(back->store(), nullptr);
    EXPECT_EQ(back->store()->record(0).label, "a");
    EXPECT_EQ(back->store()->record(1).label, "b");
    EXPECT_TRUE(back->store()->record(1).fingerprint.bits() == fp1);
    EXPECT_EQ(back->store()->record(1).fingerprint.sources(), 5u);
    // Reopen compacted: snapshot holds everything, journal empty.
    EXPECT_EQ(back->walEntries(), 0u);
    EXPECT_EQ(Wal::verify(fx.walPath).baseRecords, 2u);
}

TEST(AttackService, RefusedJournalAppendRefusesTheAck)
{
    DurableFixture fx;
    LoadResult<AttackService> svc =
        AttackService::openDurable(fx.config());
    ASSERT_TRUE(svc) << svc.error;
    Rng rng(0xD1);

    failpoint::arm("wal.fsync", failpoint::Action::Oneshot);
    const AttackService::AddOutcome out =
        svc->addRecord("lost", Fingerprint(randomPattern(rng, 16)));
    failpoint::disarmAll();

    // No ack, and — the invariant — no volatile record either: the
    // store and the journal never disagree about what was acked.
    EXPECT_FALSE(out.added);
    EXPECT_NE(out.error.find("durability"), std::string::npos);
    EXPECT_EQ(svc->size(), 0u);
    const AttackService::AddOutcome retry =
        svc->addRecord("kept", Fingerprint(randomPattern(rng, 16)));
    EXPECT_TRUE(retry.added);
    EXPECT_EQ(svc->size(), 1u);
}

TEST(AttackService, CheckpointCompactsTheJournal)
{
    DurableFixture fx;
    LoadResult<AttackService> svc =
        AttackService::openDurable(fx.config(2));
    ASSERT_TRUE(svc) << svc.error;
    Rng rng(0xD2);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(svc->addRecord("c" + std::to_string(i),
                                   Fingerprint(randomPattern(rng, 16)))
                        .added);
    // checkpointEvery = 2: the journal never accumulates past the
    // threshold for long (exactly 1 entry after the 5th add).
    EXPECT_LT(svc->walEntries(), 2u);
    const std::string err = svc->checkpoint();
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(svc->walEntries(), 0u);

    StoreLoadResult snap = loadStore(fx.dbPath);
    ASSERT_TRUE(snap) << snap.error;
    EXPECT_EQ(snap->size(), 5u);
}

TEST(AttackService, StatsJsonReportsDurability)
{
    DurableFixture fx;
    LoadResult<AttackService> svc =
        AttackService::openDurable(fx.config());
    ASSERT_TRUE(svc) << svc.error;
    Rng rng(0xD3);
    ASSERT_TRUE(
        svc->addRecord("x", Fingerprint(randomPattern(rng, 16)))
            .added);
    const std::string json = svc->statsJson();
    EXPECT_NE(json.find("\"durable\": true"), std::string::npos);
    EXPECT_NE(json.find("\"wal_entries\": 1"), std::string::npos);

    const AttackService plain(makeStore(1, 0xD4));
    EXPECT_NE(plain.statsJson().find("\"durable\": false"),
              std::string::npos);
}

TEST(AttackService, InjectedAddFailureLeavesServiceServing)
{
    DurableFixture fx;
    LoadResult<AttackService> svc =
        AttackService::openDurable(fx.config());
    ASSERT_TRUE(svc) << svc.error;
    Rng rng(0xD5);
    failpoint::arm("service.add", failpoint::Action::Oneshot);
    EXPECT_FALSE(
        svc->addRecord("nope", Fingerprint(randomPattern(rng, 16)))
            .added);
    failpoint::disarmAll();
    EXPECT_TRUE(
        svc->addRecord("yes", Fingerprint(randomPattern(rng, 16)))
            .added);
    EXPECT_EQ(svc->size(), 1u);
}

} // anonymous namespace
} // namespace pcause
