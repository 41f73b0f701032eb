/**
 * @file
 * Unit tests for core/service — the AttackService facade. The
 * load-bearing property is that facade verdicts are bit-identical
 * to direct FingerprintStore / MappedStore queries, for every
 * QueryOptions combination, that identifyBatch() equals identify()
 * element for element on either backend across a pool, and that the
 * per-worker stats slots merge without tearing or double-counting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/pcdb_format.hh"
#include "core/serialize.hh"
#include "core/service.hh"
#include "core/store.hh"
#include "core/wal.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"
#include "util/sparse_bitset.hh"
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

TEST(AttackService, BatchEqualsSerial)
{
    AttackService svc(makeStore(48, 31));
    const std::vector<BitVec> queries = makeQueries(*svc.store(), 12, 0x31);
    const std::vector<IdentifyVerdict> batched =
        svc.identifyBatch(queries, QueryOptions{});
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const IdentifyResult serial = svc.store()->query(queries[q]);
        EXPECT_EQ(batched[q].record, serial.match) << "query " << q;
        EXPECT_DOUBLE_EQ(batched[q].distance, serial.bestDistance);
    }
    // Direct store queries leave the service's counters alone.
    const AttackStats batch_stats = svc.snapshot();
    EXPECT_EQ(batch_stats.indexQueries, queries.size());
    EXPECT_GT(batch_stats.identifySeconds, 0.0);
}

TEST(AttackService, BatchHonoursThreadPool)
{
    AttackService svc(makeStore(48, 37));
    const std::vector<BitVec> queries = makeQueries(*svc.store(), 12, 0x37);
    ThreadPool pool(3);
    svc.setThreadPool(&pool);
    const std::vector<IdentifyVerdict> pooled =
        svc.identifyBatch(queries, QueryOptions{});
    svc.setThreadPool(nullptr);
    const std::vector<IdentifyVerdict> unpooled =
        svc.identifyBatch(queries, QueryOptions{});
    for (std::size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(pooled[q].record, unpooled[q].record);
}

TEST(AttackService, BatchStatsCountEachQueryExactlyOnce)
{
    // Each miss query's fallback scan must contribute counters but
    // no extra time stamp: the batch total carries one, its wall
    // time.
    AttackService svc(makeStore(32, 71));
    const std::size_t records = svc.size();
    const std::vector<BitVec> queries = makeQueries(*svc.store(), 8, 0x71);
    ThreadPool pool(4);
    svc.setThreadPool(&pool);

    const std::vector<BitVec> misses(queries.end() - 3, queries.end());
    ASSERT_LT(misses.size(), pool.size());

    const auto start = std::chrono::steady_clock::now();
    const std::vector<IdentifyVerdict> res =
        svc.identifyBatch(misses, QueryOptions{});
    const double outer = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    for (const IdentifyVerdict &v : res)
        EXPECT_FALSE(v.matched);
    const AttackStats stats = svc.snapshot();
    EXPECT_EQ(stats.indexQueries, misses.size());
    EXPECT_EQ(stats.indexFallbacks, misses.size());
    EXPECT_EQ(stats.distancesComputed + stats.distancesPruned,
              stats.candidatesScanned + misses.size() * records);
    EXPECT_GT(stats.identifySeconds, 0.0);
    EXPECT_LE(stats.identifySeconds, outer);
}

TEST(AttackService, MappedBatchOnAPoolEqualsIdentify)
{
    // The mapped backend's batch runs on the service's pool too, and
    // each element is what its own identify() reports: verdict,
    // record, nearest, distance bits and delta counters, with the
    // linear scan off and on, around a refused element.
    const std::string path = "service_mapped_batch_test.pcdb";
    const FingerprintStore direct = makeStore(40, 0x4d);
    ASSERT_TRUE(saveStore(direct, path));
    LoadResult<AttackService> svc = AttackService::open(path, true);
    ASSERT_TRUE(svc) << svc.error;
    ASSERT_TRUE(svc->readOnly());
    ThreadPool pool(4);
    svc->setThreadPool(&pool);

    std::vector<BitVec> queries = makeQueries(direct, 8, 0x4e);
    BitVec other(16);
    other.set(3);
    const std::size_t refused = queries.size() / 2;
    queries.insert(queries.begin() + refused, other);

    for (const bool linear : {false, true}) {
        QueryOptions options;
        options.linear = linear;
        const AttackStats before = svc->snapshot();
        const std::vector<IdentifyVerdict> batch =
            svc->identifyBatch(queries, options);
        const AttackStats after = svc->snapshot();
        ASSERT_EQ(batch.size(), queries.size());
        EXPECT_NE(batch[refused].error.find("16 bits"), std::string::npos)
            << batch[refused].error;

        AttackStats summed;
        for (std::size_t i = 0; i < queries.size(); ++i) {
            const IdentifyVerdict solo = svc->identify({queries[i], options});
            EXPECT_EQ(batch[i].error, solo.error) << "element " << i;
            EXPECT_EQ(batch[i].matched, solo.matched);
            EXPECT_EQ(batch[i].record, solo.record);
            EXPECT_EQ(batch[i].nearest, solo.nearest);
            EXPECT_EQ(batch[i].label, solo.label);
            EXPECT_EQ(batch[i].nearestLabel, solo.nearestLabel);
            EXPECT_TRUE(sameBits(batch[i].distance, solo.distance));
            EXPECT_EQ(batch[i].delta.indexQueries, solo.delta.indexQueries);
            EXPECT_EQ(batch[i].delta.indexFallbacks,
                      solo.delta.indexFallbacks);
            EXPECT_EQ(batch[i].delta.candidatesScanned,
                      solo.delta.candidatesScanned);
            EXPECT_EQ(batch[i].delta.recordsAvailable,
                      solo.delta.recordsAvailable);
            EXPECT_EQ(batch[i].delta.distancesComputed,
                      solo.delta.distancesComputed);
            EXPECT_EQ(batch[i].delta.distancesPruned,
                      solo.delta.distancesPruned);
            EXPECT_EQ(batch[i].delta.identifySeconds > 0.0,
                      solo.error.empty());
            summed += batch[i].delta;
        }
        EXPECT_EQ(after.indexQueries - before.indexQueries,
                  summed.indexQueries);
        EXPECT_EQ(after.recordsAvailable - before.recordsAvailable,
                  summed.recordsAvailable);
        EXPECT_EQ(after.distancesComputed - before.distancesComputed,
                  summed.distancesComputed);
        EXPECT_EQ(after.distancesPruned - before.distancesPruned,
                  summed.distancesPruned);
        EXPECT_GT(after.identifySeconds, before.identifySeconds);
    }
    std::remove(path.c_str());
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

TEST(AttackService, RefusesRecordsNoDatabaseFileHolds)
{
    // A snapshot holding an empty fingerprint or an over-long label
    // fails every later load, so such an add is refused with its
    // reason before the journal sees it, and the reopen succeeds.
    DurableFixture fx;
    Rng rng(0xD6);
    const BitVec pattern = randomPattern(rng, 16);
    const std::string too_long(70000, 'x');
    const std::string longest(pcdb::maxLabelBytes, 'y');
    {
        LoadResult<AttackService> svc =
            AttackService::openDurable(fx.config());
        ASSERT_TRUE(svc) << svc.error;
        const std::size_t journaled = svc->walEntries();

        const AttackService::AddOutcome empty =
            svc->addRecord("empty", Fingerprint());
        EXPECT_FALSE(empty.added);
        EXPECT_NE(empty.error.find("no error string"), std::string::npos)
            << empty.error;
        const AttackService::AddOutcome labelled =
            svc->addRecord(too_long, Fingerprint(pattern));
        EXPECT_FALSE(labelled.added);
        EXPECT_NE(labelled.error.find("70000 bytes"), std::string::npos)
            << labelled.error;
        EXPECT_FALSE(svc->addFingerprint(too_long, {pattern}).added);
        EXPECT_EQ(svc->walEntries(), journaled);
        EXPECT_EQ(svc->size(), 0u);

        // A label at the limit is a label the loader reads.
        ASSERT_TRUE(svc->addRecord(longest, Fingerprint(pattern)).added);
        const std::string err = svc->checkpoint();
        EXPECT_TRUE(err.empty()) << err;
    }
    LoadResult<AttackService> back =
        AttackService::openDurable(fx.config());
    ASSERT_TRUE(back) << back.error;
    ASSERT_EQ(back->size(), 1u);
    EXPECT_EQ(back->label(0), longest);
}

TEST(AttackService, RefusesAUniverseNoFileHolds)
{
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the 2^32 + 64-bit fingerprint takes 512 MB";
#else
    // Positions are stored as u32, so no database file holds a
    // universe over 2^32 bits (the paper's 1 GB machine has 2^33).
    // A first record of one must be refused with the reason before
    // the journal sees it, or the snapshot it reaches never loads.
    DurableFixture fx;
    {
        LoadResult<AttackService> svc =
            AttackService::openDurable(fx.config());
        ASSERT_TRUE(svc) << svc.error;
        BitVec huge(pcdb::maxUniverseBits + 64);
        huge.set(3);
        const AttackService::AddOutcome out =
            svc->addRecord("huge", Fingerprint(std::move(huge)));
        EXPECT_FALSE(out.added);
        EXPECT_NE(out.error.find("universe exceeds 2^32 bits"),
                  std::string::npos)
            << out.error;
        EXPECT_EQ(svc->walEntries(), 0u);
        EXPECT_EQ(svc->size(), 0u);
        const std::string err = svc->checkpoint();
        EXPECT_TRUE(err.empty()) << err;
    }
    LoadResult<AttackService> back =
        AttackService::openDurable(fx.config());
    ASSERT_TRUE(back) << back.error;
    EXPECT_EQ(back->size(), 0u);
#endif
}

TEST(AttackService, CharacterizeRefusesMismatchedBitCounts)
{
    // A database holds one bit count. A second one is refused before
    // the journal sees it; otherwise the next reject query would
    // compare records of two sizes, after every restart's replay too.
    DurableFixture fx;
    LoadResult<AttackService> svc =
        AttackService::openDurable(fx.config());
    ASSERT_TRUE(svc) << svc.error;
    Rng rng(0xD2);
    const BitVec pattern = randomPattern(rng, 32);
    ASSERT_TRUE(svc->addFingerprint("first", {pattern, pattern}).added);
    const std::size_t journaled = svc->walEntries();

    BitVec small(16);
    small.set(3);
    const AttackService::AddOutcome mixed =
        svc->addFingerprint("mixed", {pattern, small});
    EXPECT_FALSE(mixed.added);
    EXPECT_NE(mixed.error.find("bit count"), std::string::npos)
        << mixed.error;
    const AttackService::AddOutcome other =
        svc->addFingerprint("other", {small, small});
    EXPECT_FALSE(other.added);
    EXPECT_NE(other.error.find("16 bits"), std::string::npos)
        << other.error;
    EXPECT_FALSE(svc->addRecord("direct", Fingerprint(small)).added);
    EXPECT_EQ(svc->walEntries(), journaled);
    EXPECT_EQ(svc->size(), 1u);

    // A query of the other size is refused with the reason, not run;
    // in a batch, only that element is.
    IdentifyRequest req;
    req.errorString = small;
    const IdentifyVerdict v = svc->identify(req);
    EXPECT_FALSE(v.matched);
    EXPECT_NE(v.error.find("16 bits"), std::string::npos) << v.error;
    const std::vector<IdentifyVerdict> batch =
        svc->identifyBatch({pattern, small}, QueryOptions{});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0].error.empty());
    EXPECT_TRUE(batch[0].matched);
    EXPECT_EQ(batch[1].error, v.error);
}

TEST(AttackService, RefusesThresholdsTheWireRefuses)
{
    // The wire decoder never passes a NaN, infinite or negative
    // threshold; an in-process caller (the CLI) gets the same rule
    // as an error verdict, on the indexed and the linear path, and
    // no scan runs. The first query matches at any real threshold.
    AttackService svc(makeStore(20, 0x7a));
    const std::vector<BitVec> queries =
        makeQueries(*svc.store(), 2, 0x5);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -1.0}) {
        for (const bool linear : {false, true}) {
            IdentifyRequest req;
            req.errorString = queries[0];
            req.options.threshold = bad;
            req.options.linear = linear;
            const IdentifyVerdict v = svc.identify(req);
            EXPECT_FALSE(v.matched);
            EXPECT_NE(v.error.find("threshold"), std::string::npos)
                << v.error;
            const std::vector<IdentifyVerdict> batch =
                svc.identifyBatch(queries, req.options);
            ASSERT_EQ(batch.size(), queries.size());
            for (const IdentifyVerdict &b : batch) {
                EXPECT_FALSE(b.matched);
                EXPECT_EQ(b.error, v.error);
            }
        }
    }
    const AttackStats s = svc.snapshot();
    EXPECT_EQ(s.indexQueries, 0u);
    EXPECT_EQ(s.distancesComputed + s.distancesPruned, 0u);

    IdentifyRequest ok;
    ok.errorString = queries[0];
    const IdentifyVerdict v = svc.identify(ok);
    EXPECT_TRUE(v.error.empty()) << v.error;
    EXPECT_TRUE(v.matched);
}

TEST(AttackService, JournalOfTwoBitCountsFailsOpenAndWritesNothing)
{
    // Wal::append journals whatever it is handed, so a journal can
    // hold two bit counts. Replay asks the store's admission check
    // before each add and refuses the second: compacting both would
    // write a snapshot that neither loadStore nor the next
    // openDurable reads.
    DurableFixture fx;
    Rng rng(0xD4);
    BitVec wide(1024);
    wide.set(5);
    {
        LoadResult<Wal> wal = Wal::create(fx.walPath, 0);
        ASSERT_TRUE(wal) << wal.error;
        ASSERT_TRUE(wal->append("a", Fingerprint(randomPattern(rng, 16))));
        ASSERT_TRUE(wal->append("b", Fingerprint(wide)));
    }
    const LoadResult<AttackService> svc =
        AttackService::openDurable(fx.config());
    EXPECT_FALSE(svc);
    EXPECT_NE(svc.error.find("entry 1: the fingerprint has 1024 bits; "
                             "the database's records have 4096"),
              std::string::npos)
        << svc.error;
    EXPECT_NE(::access(fx.dbPath.c_str(), F_OK), 0)
        << "a failed open wrote a snapshot";

    // Against a snapshot, the reference is its records' bit count.
    FingerprintStore snapshot;
    snapshot.add("s", Fingerprint(randomPattern(rng, 16)));
    ASSERT_TRUE(saveStore(snapshot, fx.dbPath));
    {
        LoadResult<Wal> wal = Wal::create(fx.walPath, 1);
        ASSERT_TRUE(wal) << wal.error;
        ASSERT_TRUE(wal->append("b", Fingerprint(wide)));
    }
    const WalVerifyResult before = Wal::verify(fx.walPath);
    const LoadResult<AttackService> reopened =
        AttackService::openDurable(fx.config());
    EXPECT_FALSE(reopened);
    EXPECT_NE(reopened.error.find("entry 0: the fingerprint has 1024 "
                                  "bits; the database's records have "
                                  "4096"),
              std::string::npos)
        << reopened.error;
    const StoreLoadResult after = loadStore(fx.dbPath);
    ASSERT_TRUE(after) << after.error;
    EXPECT_EQ(after->size(), 1u);
    EXPECT_EQ(Wal::verify(fx.walPath).goodBytes, before.goodBytes);
}

/**
 * Append to the journal at @p path one add entry framed as
 * Wal::append frames it, with whatever fields it is given: how a
 * damaged or older writer's journal is made.
 */
void
appendRawEntry(const std::string &path, const std::string &label,
               std::uint32_t sources, std::uint64_t universe_bits,
               const std::vector<std::uint32_t> &positions)
{
    std::vector<std::uint8_t> payload{1}; // kind: add a record
    const auto put = [](std::vector<std::uint8_t> &buf, std::uint64_t v,
                        int bytes) {
        for (int i = 0; i < bytes; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(payload, label.size(), 4);
    payload.insert(payload.end(), label.begin(), label.end());
    put(payload, sources, 4);
    put(payload, universe_bits, 8);
    put(payload, positions.size(), 8);
    for (const std::uint32_t pos : positions)
        put(payload, pos, 4);
    std::vector<std::uint8_t> framed;
    put(framed, payload.size(), 4);
    put(framed, crc32(payload.data(), payload.size()), 4);
    framed.insert(framed.end(), payload.begin(), payload.end());
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(framed.data(), 1, framed.size(), f),
              framed.size());
    std::fclose(f);
}

TEST(AttackService, JournalEntriesNoDatabaseFileHoldsFailOpen)
{
    // An entry pcdb::check() would refuse in a file is corruption,
    // named in check()'s words. Replaying one used to abort the
    // process (zero sources), allocate the entry's whole universe
    // (2^32 bits and up), or compact a label no later open reads.
    struct Case
    {
        const char *why;
        std::string label;
        std::uint32_t sources;
        std::uint64_t universe_bits;
    };
    const Case cases[] = {
        {"record with zero sources", "a", 0, universe},
        {"universe exceeds 2^32 bits", "a", 1,
         pcdb::maxUniverseBits + 64},
        {"implausible label length",
         std::string(pcdb::maxLabelBytes + 1, 'x'), 1, universe},
    };
    for (const Case &c : cases) {
        DurableFixture fx;
        {
            LoadResult<Wal> wal = Wal::create(fx.walPath, 0);
            ASSERT_TRUE(wal) << wal.error;
        }
        appendRawEntry(fx.walPath, c.label, c.sources, c.universe_bits,
                       {3});
        const WalVerifyResult verdict = Wal::verify(fx.walPath);
        EXPECT_EQ(verdict.health, WalHealth::Corrupt) << c.why;
        EXPECT_EQ(verdict.detail, std::string("entry 0: ") + c.why);

        const LoadResult<AttackService> svc =
            AttackService::openDurable(fx.config());
        EXPECT_FALSE(svc) << c.why;
        EXPECT_NE(svc.error.find(c.why), std::string::npos) << svc.error;
        EXPECT_NE(::access(fx.dbPath.c_str(), F_OK), 0)
            << c.why << ": a failed open wrote a snapshot";
    }
}

/** Every byte of the file at @p path. */
std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(AttackService, JournalEntriesHoldTheSetBits)
{
    // Past its 16-byte header, a journal Wal::append wrote is byte
    // for byte the entries appendRawEntry frames from each add's set
    // bits, ascending — both ends of the universe included.
    DurableFixture fx;
    Rng rng(0xD5);
    BitVec first = randomPattern(rng, 64);
    first.set(0);
    first.set(universe - 1);
    const BitVec second = randomPattern(rng, 16);
    {
        LoadResult<Wal> wal = Wal::create(fx.walPath, 0);
        ASSERT_TRUE(wal) << wal.error;
        ASSERT_TRUE(wal->append("first", Fingerprint(first, 3)));
        ASSERT_TRUE(wal->append("second", Fingerprint(second)));
    }
    const std::string framedPath = fx.walPath + ".framed";
    std::remove(framedPath.c_str());
    appendRawEntry(framedPath, "first", 3, universe,
                   SparseBitset::fromBitVec(first).positions());
    appendRawEntry(framedPath, "second", 1, universe,
                   SparseBitset::fromBitVec(second).positions());

    const std::vector<std::uint8_t> journal = fileBytes(fx.walPath);
    ASSERT_GT(journal.size(), 16u);
    EXPECT_EQ(std::vector<std::uint8_t>(journal.begin() + 16,
                                        journal.end()),
              fileBytes(framedPath));
    std::remove(framedPath.c_str());
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
