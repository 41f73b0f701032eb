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
 * record under the threshold on the record and distance too; with
 * several under it, the record reported is one of them, at its own
 * exact distance. The query widens from the primary keys' ids to the
 * substitution keys' only on a miss, and falls back exactly when no
 * id of candidates() is under the threshold, scanning none twice.
 * The exact fallback scan (queryFullScan) must equal the linear scan
 * outright: verdict, nearest record, distance bits and
 * computed/pruned kernel counters, over stores of up to a few
 * hundred records. A v4 file mapped in place, whose fallback walks
 * the same way over counts decoded from its stored posting lists,
 * keeps the same contract for every metric, and answers as the
 * store it was saved from. Reindexing under different banding
 * parameters changes only speed, never verdicts.
 */

#include "prop_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/service.hh"
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
        const std::string path =
            "prop_store_grown." + std::to_string(::getpid()) + ".pcdb";
        PCHECK(saveStore(store, path));
        StoreLoadResult loaded = loadStore(path);
        std::remove(path.c_str());
        PCHECK_MSG(static_cast<bool>(loaded), loaded.error);
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

/** @p store saved as a v4 file and mapped in place; the file's name
 *  is removed at once, and the mapping outlives it. */
MappedStore
mapStore(const FingerprintStore &store)
{
    const std::string path =
        "prop_store_mapped." + std::to_string(::getpid()) + ".pcdb";
    PCHECK(saveStore(store, path));
    LoadResult<MappedStore> mapped = MappedStore::open(path);
    std::remove(path.c_str());
    PCHECK_MSG(static_cast<bool>(mapped), mapped.error);
    return std::move(*mapped);
}

/** Record @p i's exact distance from @p probe: the dense metric. */
double
exactDistance(const FingerprintStore &store, std::size_t i,
              const BitVec &probe, DistanceMetric metric)
{
    return distance(metric, probe, store.record(i).fingerprint.bits());
}

/**
 * query() of @p engine (either store of @p store's records) against
 * the exact distance of every id in its candidates(): the query falls
 * back exactly when none is under the threshold, and no id is
 * scanned twice on the way.
 */
template <typename Engine>
void
checkWidening(const Engine &engine, const FingerprintStore &store,
              const BitVec &probe, const IdentifyParams &p)
{
    const std::vector<std::size_t> cand =
        engine.candidates(minhashSketch(probe, engine.indexParams()));
    bool any_under = false;
    for (const std::size_t id : cand)
        any_under = any_under ||
                    exactDistance(store, id, probe, p.metric) < p.threshold;

    AttackStats st;
    const IdentifyResult res = engine.query(probe, p, &st);
    PCHECK_EQ(st.indexFallbacks, std::uint64_t{any_under ? 0u : 1u});
    PCHECK(st.candidatesScanned <= cand.size());
    const std::uint64_t steps = st.distancesComputed + st.distancesPruned;
    if (st.indexFallbacks > 0) {
        // Both stages scanned every candidate, then the fallback
        // every record (up to its first hit in first-match mode),
        // each exactly once.
        PCHECK_EQ(st.candidatesScanned, std::uint64_t{cand.size()});
        if (p.firstMatch && res.match)
            PCHECK(steps <= cand.size() + store.size());
        else
            PCHECK_EQ(steps, std::uint64_t{cand.size() + store.size()});
        return;
    }
    PCHECK(res.match.has_value());
    PCHECK(std::binary_search(cand.begin(), cand.end(), *res.match));
    // Only first-match mode stops a stage's scan early.
    PCHECK(steps <= st.candidatesScanned);
    if (!p.firstMatch)
        PCHECK_EQ(steps, st.candidatesScanned);
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
    // Up to a few hundred records, so the fallback's walk screens
    // long runs of records between steps. Besides genProbe()'s
    // probes: near copies of a late record, whose step drops the
    // bound (and the screen) mid-scan, and probes lighter than
    // almost every record, so w is the query's weight.
    const std::size_t records = ctx.sizeRange(1, 320, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    BitVec probe;
    if (ctx.boolean(0.3, "late_near_copy")) {
        const std::size_t target =
            records - 1 -
            ctx.below(std::max<std::size_t>(1, records / 4),
                      "late_target");
        probe = pcheck::genNoisyObservation(
            ctx, store.record(target).fingerprint.bits(), 0.97, 2);
    } else if (ctx.boolean(0.2, "light_probe")) {
        probe = pcheck::genSparseBitVec(
            ctx, nbits, ctx.sizeRange(1, 3, "light_weight"));
    } else {
        probe = genProbe(ctx, store, nbits);
    }

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

PCHECK_PROPERTY(PropStore, MappedQueryEqualsLinearScan, [](Ctx &ctx) {
    // pcaused serves a mapped file's rejects from the overlap-count
    // walk over counts decoded from the file's posting lists. Up to
    // a few dozen records, so the walk screens runs of records.
    const std::size_t records = ctx.sizeRange(1, 64, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    const MappedStore mapped = mapStore(store);
    const BitVec probe = genProbe(ctx, store, nbits);

    const IdentifyParams p = genQueryParams(ctx);
    AttackStats stats, store_stats, linear_stats;
    const IdentifyResult got = mapped.query(probe, p, &stats);
    const IdentifyResult linear =
        store.queryLinear(probe, p, &linear_stats);
    const IdentifyResult direct = store.query(probe, p, &store_stats);
    PCHECK_EQ(got.match.has_value(), linear.match.has_value());
    PCHECK_EQ(got.match.has_value(), direct.match.has_value());
    if (stats.indexFallbacks > 0) {
        // The answer is the fallback's verbatim: the linear scan's
        // verdict, nearest record and distance bits.
        PCHECK(got.match == linear.match);
        PCHECK(got.nearest == linear.nearest);
        PCHECK(sameBits(got.bestDistance, linear.bestDistance));
    }
    // The same tables and lists as the store it was saved from: the
    // same answer, shortlist and kernel counters.
    PCHECK(got.match == direct.match);
    PCHECK(got.nearest == direct.nearest);
    PCHECK(sameBits(got.bestDistance, direct.bestDistance));
    PCHECK_EQ(stats.candidatesScanned, store_stats.candidatesScanned);
    PCHECK_EQ(stats.indexFallbacks, store_stats.indexFallbacks);
    PCHECK_EQ(stats.distancesComputed, store_stats.distancesComputed);
    PCHECK_EQ(stats.distancesPruned, store_stats.distancesPruned);

    // The fallback on its own equals the linear scan outright.
    AttackStats full_stats;
    const IdentifyResult full =
        mapped.queryFullScan(probe, p, &full_stats);
    PCHECK(full.match == linear.match);
    PCHECK(full.nearest == linear.nearest);
    PCHECK(sameBits(full.bestDistance, linear.bestDistance));
    PCHECK_EQ(full_stats.distancesComputed,
              linear_stats.distancesComputed);
    PCHECK_EQ(full_stats.distancesPruned, linear_stats.distancesPruned);
    PCHECK_EQ(full_stats.recordsAvailable,
              linear_stats.recordsAvailable);
})

PCHECK_PROPERTY(PropStore, WideningLosesNoRecall, [](Ctx &ctx) {
    // A query scans the primary keys' ids, then only on a miss the
    // substitution keys' other ids, then falls back. The fallback is
    // exact, so it would hide a widening that loses ids from every
    // verdict check: pin the fallback to the candidates themselves.
    // Besides genProbe()'s probes: supersets of a record under heavy
    // noise, whose primary keys often all miss.
    const std::size_t records = ctx.sizeRange(1, 64, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    BitVec probe;
    if (ctx.boolean(0.6, "heavy_noise")) {
        const BitVec fp =
            store.record(ctx.below(records, "target")).fingerprint.bits();
        probe = pcheck::genNoisyObservation(
            ctx, fp, 1.0, std::max<std::size_t>(2, fp.popcount()));
    } else {
        probe = genProbe(ctx, store, nbits);
    }
    const IdentifyParams p = genQueryParams(ctx);
    checkWidening(store, store, probe, p);
    checkWidening(mapStore(store), store, probe, p);
})

PCHECK_PROPERTY(PropStore, NearDuplicatesReportARecordUnderTheThreshold,
                [](Ctx &ctx) {
    // The one permitted divergence: with two records under the
    // threshold, the shortlist may report either. A near duplicate of
    // a target record, at any id, and a probe near both: in either
    // mode and from either store, the verdict is the linear scan's,
    // and the record reported is under the threshold, with its own
    // exact distance bits.
    const std::size_t records = ctx.sizeRange(1, 24, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintDb db = pcheck::genDb(ctx, nbits, records);
    const std::size_t target = ctx.below(records, "target");
    const BitVec &fp = db.record(target).fingerprint.bits();
    const BitVec twin = pcheck::genNoisyObservation(ctx, fp, 0.9, 2);
    const std::size_t twin_at = ctx.sizeRange(0, records, "twin_at");
    FingerprintStore store(genIndexParams(ctx));
    for (std::size_t i = 0; i <= records; ++i) {
        if (i == twin_at)
            store.add("twin", Fingerprint(twin, 1u));
        if (i < records)
            store.add(db.record(i).label, db.record(i).fingerprint);
    }
    const BitVec probe = pcheck::genNoisyObservation(
        ctx, ctx.boolean(0.5, "probe_twin") ? twin : fp, 0.93,
        std::max<std::size_t>(1, fp.popcount() / 4));

    IdentifyParams p = genQueryParams(ctx);
    const double thresholds[] = {0.1, 0.25, 0.5, 1.5};
    p.threshold = thresholds[ctx.sizeRange(0, 3, "dup_threshold")];
    const MappedStore mapped = mapStore(store);
    for (const bool first_match : {true, false}) {
        p.firstMatch = first_match;
        const IdentifyResult linear = store.queryLinear(probe, p);
        for (const IdentifyResult &got :
             {store.query(probe, p), mapped.query(probe, p)}) {
            PCHECK_EQ(got.match.has_value(), linear.match.has_value());
            if (!got.match)
                continue;
            const double d =
                exactDistance(store, *got.match, probe, p.metric);
            PCHECK(d < p.threshold);
            PCHECK(sameBits(got.bestDistance, d));
        }
    }
})

PCHECK_PROPERTY(PropStore, BatchAgreesWithSingleQueries,
                [](Ctx &ctx) {
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const std::size_t nbits = 64 * records;
    AttackService svc(genStore(ctx, records, nbits));
    svc.setThreadPool(&pool);
    const FingerprintStore &store = *svc.store();

    const std::size_t queries = ctx.sizeRange(1, 6, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q)
        probes.push_back(genProbe(ctx, store, nbits));

    QueryOptions options;
    options.firstMatch = ctx.boolean(0.5, "first_match");
    const IdentifyParams p = options.identifyParams();
    const std::vector<IdentifyVerdict> batch =
        svc.identifyBatch(probes, options);
    const AttackStats total = svc.snapshot();
    PCHECK_EQ(batch.size(), probes.size());
    AttackStats summed;
    for (std::size_t q = 0; q < queries; ++q) {
        AttackStats one_stats;
        const IdentifyResult one = store.query(probes[q], p, &one_stats);
        const AttackStats &each = batch[q].delta;
        PCHECK_EQ(batch[q].record.has_value(), one.match.has_value());
        if (one.match)
            PCHECK_EQ(*batch[q].record, *one.match);
        PCHECK_EQ(batch[q].distance, one.bestDistance);
        // Each element's delta is exactly its own query()'s.
        PCHECK_EQ(each.indexQueries, one_stats.indexQueries);
        PCHECK_EQ(each.indexFallbacks, one_stats.indexFallbacks);
        PCHECK_EQ(each.candidatesScanned, one_stats.candidatesScanned);
        PCHECK_EQ(each.recordsAvailable, one_stats.recordsAvailable);
        PCHECK_EQ(each.distancesComputed, one_stats.distancesComputed);
        PCHECK_EQ(each.distancesPruned, one_stats.distancesPruned);
        PCHECK(each.identifySeconds > 0.0);
        summed += each;
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
