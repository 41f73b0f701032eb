/**
 * @file
 * FingerprintStore differential oracle. queryLinear, the serial
 * sparse scan over the store's arena, must equal the paper-literal
 * dense Algorithm 2 (identifyErrorString) over the records the store
 * was built from: verdict, nearest record and distance bits. The
 * MinHash/LSH candidate index is a pure shortlist, so query() must
 * agree with queryLinear on every accept/reject verdict — on a
 * reject also on the nearest record and the distance bits (what a
 * served reject carries), and in best-match mode with a single
 * record under the threshold on the record and distance too. The
 * exact fallback scan (queryFullScan) must equal the linear scan
 * outright: verdict, nearest record, distance bits and
 * computed/pruned kernel counters. A v3 file mapped with a thread
 * pool, whose fallback is the pool-sharded scan, keeps the same
 * contract for every metric. Reindexing under different banding
 * parameters changes only speed, never verdicts.
 */

#include "prop_common.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "util/thread_pool.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

MinHashParams
genIndexParams(Ctx &ctx)
{
    MinHashParams mh;
    mh.numHashes = static_cast<std::uint32_t>(
        8u << ctx.sizeRange(0, 2, "hashes_log8"));
    const std::uint32_t divisors[] = {1, 2, 4, 8};
    mh.bands = divisors[ctx.sizeRange(0, 3, "band_divisor")];
    mh.bands = mh.numHashes / mh.bands;
    mh.seed = ctx.bits("index_seed");
    return mh;
}

FingerprintStore
genStore(Ctx &ctx, std::size_t records, std::size_t nbits)
{
    FingerprintStore store(genIndexParams(ctx));
    const FingerprintDb db = pcheck::genDb(ctx, nbits, records);
    for (std::size_t i = 0; i < db.size(); ++i)
        store.add(db.record(i).label, db.record(i).fingerprint);
    return store;
}

/**
 * genStore() through every way records reach a store: some
 * fingerprints emptied, a bulk addBatch() prefix, optionally a v3
 * save/loadStore round trip, then single add()s on top — so the
 * position index is checked after bulk and incremental growth.
 * @p built_from, when non-null, receives the records in id order.
 */
FingerprintStore
genGrownStore(Ctx &ctx, std::size_t records, std::size_t nbits,
              FingerprintDb *built_from = nullptr)
{
    FingerprintDb db = pcheck::genDb(ctx, nbits, records);
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    for (std::size_t i = 0; i < db.size(); ++i) {
        labels.push_back(db.record(i).label);
        fps.push_back(ctx.boolean(0.15, "empty_record")
                          ? Fingerprint(BitVec(nbits), 1u)
                          : db.record(i).fingerprint);
        if (built_from)
            built_from->add(labels.back(), fps.back());
    }
    const std::size_t bulk = ctx.sizeRange(0, records, "bulk_prefix");

    FingerprintStore store(genIndexParams(ctx));
    store.addBatch(std::vector<ChipLabel>(labels.begin(),
                                          labels.begin() + bulk),
                   std::vector<Fingerprint>(fps.begin(),
                                            fps.begin() + bulk));
    if (ctx.boolean(0.5, "round_trip")) {
        std::stringstream file;
        PCHECK(saveStore(store, file));
        StoreLoadResult loaded = loadStore(file);
        PCHECK(static_cast<bool>(loaded));
        store = std::move(*loaded);
    }
    for (std::size_t i = bulk; i < records; ++i)
        store.add(labels[i], fps[i]);
    return store;
}

BitVec
genProbe(Ctx &ctx, const FingerprintStore &store, std::size_t nbits)
{
    if (ctx.boolean(0.5, "matching_probe")) {
        const std::size_t target =
            ctx.below(store.size(), "target");
        const BitVec fp = store.record(target).fingerprint.bits();
        return pcheck::genNoisyObservation(
            ctx, fp, 0.93,
            std::max<std::size_t>(1, fp.popcount() / 4));
    }
    if (ctx.boolean(0.1, "empty_probe"))
        return BitVec(nbits);
    return pcheck::genBitVec(ctx, nbits, 2);
}

/** Metric, threshold (0, default, >= 1) and mode, all swept. */
IdentifyParams
genQueryParams(Ctx &ctx)
{
    IdentifyParams p;
    const DistanceMetric metrics[] = {DistanceMetric::ModifiedJaccard,
                                      DistanceMetric::Jaccard,
                                      DistanceMetric::Hamming};
    p.metric = metrics[ctx.sizeRange(0, 2, "metric")];
    const double thresholds[] = {0.0, 0.1, 1.0, 1.5};
    p.threshold = thresholds[ctx.sizeRange(0, 3, "threshold")];
    p.firstMatch = ctx.boolean(0.5, "first_match");
    return p;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

} // namespace

PCHECK_PROPERTY(PropStore, QueryAgreesWithLinearScan, [](Ctx &ctx) {
    const std::size_t records = ctx.sizeRange(1, 6, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    const BitVec probe = genProbe(ctx, store, nbits);

    const IdentifyParams p = genQueryParams(ctx);
    const IdentifyResult indexed = store.query(probe, p);
    const IdentifyResult linear = store.queryLinear(probe, p);
    PCHECK_EQ(indexed.match.has_value(), linear.match.has_value());
    if (!indexed.match) {
        // A reject's nearest record and distance are what a served
        // reject carries: both must be the linear scan's.
        PCHECK(indexed.nearest == linear.nearest);
        PCHECK(sameBits(indexed.bestDistance, linear.bestDistance));
    } else if (!p.firstMatch && p.threshold < 1.0) {
        // Best-match mode is fully determined by the fingerprint
        // set while at most one record sits under the threshold
        // (genDb's records are far apart). At a threshold of 1 or
        // more every record does, and the shortlist may legally
        // report its own best one — as first-match mode may at any
        // threshold — so there only the verdict binds.
        PCHECK_EQ(*indexed.match, *linear.match);
        PCHECK(sameBits(indexed.bestDistance, linear.bestDistance));
    }
})

PCHECK_PROPERTY(PropStore, FullScanEqualsLinearScan, [](Ctx &ctx) {
    const std::size_t records = ctx.sizeRange(1, 6, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    const BitVec probe = genProbe(ctx, store, nbits);

    const IdentifyParams p = genQueryParams(ctx);
    AttackStats full_stats;
    AttackStats linear_stats;
    const IdentifyResult full = store.queryFullScan(probe, p, &full_stats);
    const IdentifyResult linear =
        store.queryLinear(probe, p, &linear_stats);
    PCHECK(full.match == linear.match);
    PCHECK(full.nearest == linear.nearest);
    PCHECK(sameBits(full.bestDistance, linear.bestDistance));
    PCHECK_EQ(full_stats.distancesComputed,
              linear_stats.distancesComputed);
    PCHECK_EQ(full_stats.distancesPruned, linear_stats.distancesPruned);
    PCHECK_EQ(full_stats.recordsAvailable,
              linear_stats.recordsAvailable);
})

PCHECK_PROPERTY(PropStore, LinearScanEqualsAlgorithm2, [](Ctx &ctx) {
    // queryLinear reads only the arena; the independent reference is
    // the dense, unbounded literal scan over the records the store
    // was built from (through a v3 round trip on some trials).
    const std::size_t records = ctx.sizeRange(1, 6, "records");
    const std::size_t nbits = 64 * records;
    FingerprintDb db;
    const FingerprintStore store =
        genGrownStore(ctx, records, nbits, &db);
    const BitVec probe = genProbe(ctx, store, nbits);

    const IdentifyParams p = genQueryParams(ctx);
    const IdentifyResult linear = store.queryLinear(probe, p);
    const IdentifyResult literal = identifyErrorString(probe, db, p);
    PCHECK(linear.match == literal.match);
    PCHECK(linear.nearest == literal.nearest);
    PCHECK(sameBits(linear.bestDistance, literal.bestDistance));
})

PCHECK_PROPERTY(PropStore, PooledMappedQueryEqualsLinearScan,
                [](Ctx &ctx) {
    // pcaused gives its service a pool, so every mmap reject runs
    // the pool-sharded fallback scan. At least two records per lane
    // keep the scan sharded (fewer run it serially).
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(8, 16, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    const std::string path =
        "prop_store_mapped." + std::to_string(::getpid()) + ".pcdb";
    PCHECK(saveStore(store, path));
    LoadResult<MappedStore> mapped = MappedStore::open(path);
    std::remove(path.c_str()); // the mapping outlives the name
    PCHECK_MSG(static_cast<bool>(mapped), mapped.error);
    mapped->setThreadPool(&pool);
    const BitVec probe = genProbe(ctx, store, nbits);

    const IdentifyParams p = genQueryParams(ctx);
    AttackStats stats;
    const IdentifyResult got = mapped->query(probe, p, &stats);
    const IdentifyResult linear = store.queryLinear(probe, p);
    PCHECK_EQ(got.match.has_value(), linear.match.has_value());
    PCHECK_EQ(got.match.has_value(),
              store.query(probe, p).match.has_value());
    if (stats.indexFallbacks > 0) {
        // The answer is the sharded scan's verbatim: the serial
        // scan's verdict, nearest record and distance bits.
        PCHECK(got.match == linear.match);
        PCHECK(got.nearest == linear.nearest);
        PCHECK(sameBits(got.bestDistance, linear.bestDistance));
    }
})

PCHECK_PROPERTY(PropStore, BatchAgreesWithSingleQueries,
                [](Ctx &ctx) {
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const std::size_t nbits = 64 * records;
    FingerprintStore store = genStore(ctx, records, nbits);
    store.setThreadPool(&pool);

    const std::size_t queries = ctx.sizeRange(1, 6, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q)
        probes.push_back(genProbe(ctx, store, nbits));

    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");
    AttackStats total;
    std::vector<AttackStats> each;
    const std::vector<IdentifyResult> batch =
        store.queryBatch(probes, p, &total, &each);
    PCHECK_EQ(batch.size(), probes.size());
    PCHECK_EQ(each.size(), probes.size());
    AttackStats summed;
    for (std::size_t q = 0; q < queries; ++q) {
        AttackStats one_stats;
        const IdentifyResult one = store.query(probes[q], p, &one_stats);
        PCHECK_EQ(batch[q].match.has_value(), one.match.has_value());
        if (one.match)
            PCHECK_EQ(*batch[q].match, *one.match);
        PCHECK_EQ(batch[q].bestDistance, one.bestDistance);
        // Each element's delta is exactly its own query()'s.
        PCHECK_EQ(each[q].indexQueries, one_stats.indexQueries);
        PCHECK_EQ(each[q].indexFallbacks, one_stats.indexFallbacks);
        PCHECK_EQ(each[q].candidatesScanned,
                  one_stats.candidatesScanned);
        PCHECK_EQ(each[q].recordsAvailable, one_stats.recordsAvailable);
        PCHECK_EQ(each[q].distancesComputed,
                  one_stats.distancesComputed);
        PCHECK_EQ(each[q].distancesPruned, one_stats.distancesPruned);
        PCHECK(each[q].identifySeconds > 0.0);
        summed += each[q];
    }
    // The total is unchanged: the elements' counters, batch time.
    PCHECK_EQ(total.indexQueries, summed.indexQueries);
    PCHECK_EQ(total.candidatesScanned, summed.candidatesScanned);
    PCHECK_EQ(total.distancesComputed, summed.distancesComputed);
    PCHECK_EQ(total.distancesPruned, summed.distancesPruned);
})

PCHECK_PROPERTY(PropStore, ReindexPreservesVerdicts, [](Ctx &ctx) {
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const std::size_t nbits = 64 * records;
    FingerprintStore store = genStore(ctx, records, nbits);
    const BitVec probe = genProbe(ctx, store, nbits);

    IdentifyParams p;
    p.firstMatch = false;
    const IdentifyResult before = store.query(probe, p);
    store.reindex(genIndexParams(ctx));
    const IdentifyResult after = store.query(probe, p);
    PCHECK_EQ(before.match.has_value(), after.match.has_value());
    if (before.match)
        PCHECK_EQ(*before.match, *after.match);
    PCHECK_EQ(before.bestDistance, after.bestDistance);
})
