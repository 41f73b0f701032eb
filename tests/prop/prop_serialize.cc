/**
 * @file
 * On-disk format properties: any store survives a save/load round
 * trip bit-for-bit (records, sources, index parameters, band
 * tables), and the loaded store, which adopts the stored band tables
 * and position index, is the same at one lane and at four and
 * answers every query exactly as a store rebuilt from the same
 * records; the v4 image of any store (its v5 image with the
 * signature arena put back) loads to the same store as the v5 one
 * and maps to the same answers; *every* strict prefix of a valid
 * file is rejected with a useful error — never a crash, never a
 * silently short database; a file with any one byte flipped either
 * fails to load with an error or loads a store that saves and
 * reloads unchanged, with the same outcome at one lane and at four;
 * and the mmap reader, given a file with any byte of its index
 * sections (or their header fields) flipped, refuses it or answers
 * queries — never a crash or a sanitizer report.
 */

#include "prop_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <unistd.h>

#include "core/mapped_store.hh"
#include "core/pcdb_format.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "util/thread_pool.hh"

#include "../pcdb_v4_image.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

FingerprintStore
genStore(Ctx &ctx)
{
    MinHashParams mh;
    mh.numHashes = static_cast<std::uint32_t>(
        8u << ctx.sizeRange(0, 1, "hashes_log8"));
    mh.bands = mh.numHashes / 2;
    mh.seed = ctx.bits("index_seed");
    FingerprintStore store(mh);
    const std::size_t records = ctx.sizeRange(0, 5, "records");
    if (records > 0) {
        const FingerprintDb db =
            pcheck::genDb(ctx, 64 * records, records);
        for (std::size_t i = 0; i < db.size(); ++i)
            store.add(db.record(i).label, db.record(i).fingerprint);
    }
    return store;
}

/** A file name private to this process, in the working directory. */
std::string
tempPath(const char *tag)
{
    return std::string("prop_serialize_") + tag + "." +
           std::to_string(::getpid()) + ".pcdb";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** @p back holds exactly @p store's records, parameters and band
 *  table contents. Compares the sparse lists, never a dense copy: a
 *  loaded universe may be up to 2^32 bits. */
void
checkSameStore(const FingerprintStore &back,
               const FingerprintStore &store)
{
    PCHECK_EQ(back.size(), store.size());
    PCHECK(back.indexParams() == store.indexParams());
    for (std::size_t i = 0; i < store.size(); ++i) {
        PCHECK_EQ(back.label(i), store.label(i));
        PCHECK_EQ(back.sources(i), store.sources(i));
        const SparseView a = back.sparseFingerprints().view(i);
        const SparseView b = store.sparseFingerprints().view(i);
        PCHECK_EQ(a.universe, b.universe);
        PCHECK_EQ(a.count, b.count);
        for (std::size_t k = 0; k < a.count; ++k)
            PCHECK_EQ(a.positions[k], b.positions[k]);
    }
    // The stored band keys, not recomputed ones.
    for (std::uint32_t b = 0; b < store.indexParams().bands; ++b)
        PCHECK(back.index().bandEntries(b) == store.index().bandEntries(b));
}

} // namespace

PCHECK_PROPERTY(PropSerialize, StoreRoundTripIdentity, [](Ctx &ctx) {
    const FingerprintStore store = genStore(ctx);
    const std::string path = tempPath("rt");
    PCHECK_MSG(saveStore(store, path), "save failed");
    StoreLoadResult loaded = loadStore(path);
    std::remove(path.c_str());
    PCHECK_MSG(static_cast<bool>(loaded), loaded.error);
    checkSameStore(*loaded, store);
})

PCHECK_PROPERTY(PropSerialize, AnyTruncationIsACleanError,
                [](Ctx &ctx) {
    const FingerprintStore store = genStore(ctx);
    const std::string path = tempPath("cut");
    PCHECK_MSG(saveStore(store, path), "save failed");
    const std::string full = slurp(path);

    const std::size_t cut = ctx.below(full.size(), "cut");
    spit(path, full.substr(0, cut));
    StoreLoadResult loaded = loadStore(path);
    std::remove(path.c_str());
    ctx.note("file_bytes", full.size());
    PCHECK_MSG(!static_cast<bool>(loaded),
               "a strict prefix of the file loaded successfully");
    PCHECK_MSG(!loaded.error.empty(),
               "failed load carried no error message");
})

PCHECK_PROPERTY(PropSerialize, AnyByteFlipLoadsOrFailsCleanly,
                [](Ctx &ctx) {
    const FingerprintStore store = genStore(ctx);
    const std::string path = tempPath("flip");
    PCHECK_MSG(saveStore(store, path), "save failed");
    std::string bytes = slurp(path);

    const std::size_t at = ctx.below(bytes.size(), "byte");
    const unsigned char masks[] = {0x01, 0x10, 0x80, 0xff};
    bytes[at] = static_cast<char>(
        bytes[at] ^ masks[ctx.sizeRange(0, 3, "mask")]);
    spit(path, bytes);
    StoreLoadResult loaded = loadStore(path);
    ctx.note("file_bytes", bytes.size());
    // Four lanes check the file in concurrent tasks and report the
    // same outcome.
    static ThreadPool four(4);
    const StoreLoadResult pooled = loadStore(path, four);
    PCHECK_EQ(pooled.error, loaded.error);
    if (!loaded) {
        std::remove(path.c_str());
        PCHECK_MSG(!loaded.error.empty(),
                   "failed load carried no error message");
        return;
    }
    checkSameStore(*pooled, *loaded);
    // What the checks let through (a label byte, a probe count; the
    // index sections are under CRCs) is a store like any other: it
    // saves and reloads unchanged.
    PCHECK_MSG(saveStore(*loaded, path), "re-save failed");
    StoreLoadResult again = loadStore(path);
    std::remove(path.c_str());
    PCHECK_MSG(static_cast<bool>(again), again.error);
    checkSameStore(*again, *loaded);
})

namespace
{

/** A store of up to a few dozen records, grown by a batch, single
 *  adds, or both (their band tables size differently). */
FingerprintStore
genGrownStore(Ctx &ctx, std::size_t records, std::size_t nbits)
{
    MinHashParams mh;
    mh.numHashes = static_cast<std::uint32_t>(
        8u << ctx.sizeRange(0, 1, "hashes_log8"));
    mh.bands = mh.numHashes / 2;
    mh.seed = ctx.bits("index_seed");
    FingerprintStore store(mh);
    const FingerprintDb db = pcheck::genDb(ctx, nbits, records);
    const std::size_t bulk = ctx.sizeRange(0, records, "bulk_prefix");
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    for (std::size_t i = 0; i < bulk; ++i) {
        labels.push_back(db.record(i).label);
        fps.push_back(db.record(i).fingerprint);
    }
    static ThreadPool pool(2);
    store.setThreadPool(&pool);
    store.addBatch(std::move(labels), std::move(fps));
    store.setThreadPool(nullptr);
    for (std::size_t i = bulk; i < records; ++i)
        store.add(db.record(i).label, db.record(i).fingerprint);
    return store;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

} // namespace

PCHECK_PROPERTY(PropSerialize, V4LoadAnswersAsARebuild, [](Ctx &ctx) {
    const std::size_t records = ctx.sizeRange(1, 40, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    const std::string path = tempPath("rebuild");
    PCHECK_MSG(saveStore(store, path), "save failed");
    // The same store at one lane and at four.
    static ThreadPool one(1), four(4);
    StoreLoadResult loaded = loadStore(path, one);
    StoreLoadResult pooled = loadStore(path, four);
    std::remove(path.c_str());
    PCHECK_MSG(static_cast<bool>(loaded), loaded.error);
    PCHECK_MSG(static_cast<bool>(pooled), pooled.error);
    checkSameStore(*loaded, store);
    checkSameStore(*pooled, *loaded);
    PCHECK(pooled->positionIndex() == loaded->positionIndex());
    for (std::uint32_t b = 0; b < store.indexParams().bands; ++b) {
        const LshIndex::BandSlots a = loaded->index().bandSlots(b);
        const LshIndex::BandSlots c = pooled->index().bandSlots(b);
        PCHECK_EQ(a.slots, c.slots);
        PCHECK(std::equal(a.ids, a.ids + a.slots, c.ids));
        PCHECK(std::equal(a.keys, a.keys + a.slots, c.keys));
    }

    // A rebuild: the same records added one by one to a new store.
    FingerprintStore rebuilt(store.indexParams());
    for (std::size_t i = 0; i < store.size(); ++i)
        rebuilt.add(store.label(i), store.record(i).fingerprint);
    for (std::uint32_t b = 0; b < store.indexParams().bands; ++b)
        PCHECK(loaded->index().bandEntries(b) ==
               rebuilt.index().bandEntries(b));
    PCHECK(loaded->positionIndex() == rebuilt.positionIndex());

    BitVec probe;
    if (ctx.boolean(0.5, "matching_probe")) {
        const std::size_t target = ctx.below(store.size(), "target");
        probe = pcheck::genNoisyObservation(
            ctx, store.record(target).fingerprint.bits(), 0.93, 2);
    } else {
        probe = pcheck::genBitVec(ctx, nbits, 2);
    }
    IdentifyParams p;
    const DistanceMetric metrics[] = {DistanceMetric::ModifiedJaccard,
                                      DistanceMetric::Jaccard,
                                      DistanceMetric::Hamming};
    p.metric = metrics[ctx.sizeRange(0, 2, "metric")];
    p.firstMatch = ctx.boolean(0.5, "first_match");
    AttackStats got_stats, want_stats;
    const IdentifyResult got = loaded->query(probe, p, &got_stats);
    const IdentifyResult want = rebuilt.query(probe, p, &want_stats);
    PCHECK(got.match == want.match);
    PCHECK(got.nearest == want.nearest);
    PCHECK(sameBits(got.bestDistance, want.bestDistance));
    PCHECK_EQ(got_stats.candidatesScanned, want_stats.candidatesScanned);
    PCHECK_EQ(got_stats.indexFallbacks, want_stats.indexFallbacks);
    PCHECK_EQ(got_stats.distancesComputed, want_stats.distancesComputed);
    PCHECK_EQ(got_stats.distancesPruned, want_stats.distancesPruned);
})

PCHECK_PROPERTY(PropSerialize, V4ImageLoadsAndMapsAsTheV5Image,
                [](Ctx &ctx) {
    // No writer writes v4 any more: v4Image() gives the image the v4
    // writer wrote (test_serialize pins it to the committed v4
    // fixture), so both readers' v4 path sees any store. It loads to
    // the v5 image's store at one lane and at four, and maps to the
    // same answers.
    const FingerprintStore store = genStore(ctx);
    const std::string v5_path = tempPath("v5"), v4_path = tempPath("v4");
    PCHECK_MSG(saveStore(store, v5_path), "save failed");
    spit(v4_path, v4Image(slurp(v5_path)));
    static ThreadPool one(1), four(4);
    for (ThreadPool *pool : {&one, &four}) {
        std::uint32_t version = 0;
        const StoreLoadResult v5 = loadStore(v5_path, *pool);
        const StoreLoadResult v4 = loadStore(v4_path, *pool, nullptr,
                                             &version);
        PCHECK_MSG(static_cast<bool>(v5), v5.error);
        PCHECK_MSG(static_cast<bool>(v4), v4.error);
        PCHECK_EQ(version, pcdb::versionV4);
        checkSameStore(*v4, *v5);
        PCHECK(v4->positionIndex() == v5->positionIndex());
    }
    const LoadResult<MappedStore> m5 = MappedStore::open(v5_path);
    const LoadResult<MappedStore> m4 = MappedStore::open(v4_path);
    std::remove(v5_path.c_str());
    std::remove(v4_path.c_str());
    PCHECK_MSG(static_cast<bool>(m5), m5.error);
    PCHECK_MSG(static_cast<bool>(m4), m4.error);
    if (store.empty())
        return;

    // A noisy observation of every record, and a foreign set.
    std::vector<BitVec> queries;
    for (std::size_t i = 0; i < store.size(); ++i)
        queries.push_back(pcheck::genNoisyObservation(
            ctx, store.record(i).fingerprint.bits(), 0.93, 2));
    queries.push_back(pcheck::genBitVec(ctx, store.bitCount(), 2));
    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");
    for (const BitVec &q : queries) {
        const IdentifyResult r5 = m5->query(q, p);
        const IdentifyResult r4 = m4->query(q, p);
        PCHECK(r4.match == r5.match);
        PCHECK(r4.nearest == r5.nearest);
        PCHECK(sameBits(r4.bestDistance, r5.bestDistance));
    }
})

PCHECK_PROPERTY(PropSerialize, MappedIndexByteFlipOpensOrFailsCleanly,
                [](Ctx &ctx) {
    // The mmap reader checks the index sections' structure at open
    // but not their payload or CRCs (ROADMAP item 6): slot and
    // posting ids are bounded where they are used instead. Any flip
    // there, or in the header fields that place them, must give an
    // error or answers. Positions are outside the flip range: the
    // mapped reader still trusts them (core/mapped_store.hh) until
    // item 6 makes the scan kernels clamp them.
    const std::size_t records = ctx.sizeRange(1, 12, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore store = genGrownStore(ctx, records, nbits);
    const std::string path = tempPath("mapflip");
    PCHECK_MSG(saveStore(store, path), "save failed");
    std::string bytes = slurp(path);
    const auto u64At = [&](std::size_t off) {
        return pcdb::loadU64(
            reinterpret_cast<const std::uint8_t *>(bytes.data() + off));
    };
    const std::size_t band_off = u64At(96);
    const std::size_t header_fields = pcdb::v4HeaderBytes - 96;
    const std::size_t span = header_fields + (bytes.size() - band_off);
    const std::size_t pick = ctx.below(span, "byte");
    const std::size_t at =
        pick < header_fields ? 96 + pick : band_off + pick - header_fields;
    const unsigned char masks[] = {0x01, 0x10, 0x80, 0xff};
    bytes[at] = static_cast<char>(
        bytes[at] ^ masks[ctx.sizeRange(0, 3, "mask")]);
    spit(path, bytes);
    ctx.note("file_bytes", bytes.size());
    ctx.note("flipped_at", at);

    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    std::remove(path.c_str());
    if (!mapped) {
        PCHECK_MSG(!mapped.error.empty(),
                   "failed open carried no error message");
        return;
    }
    IdentifyParams p;
    p.firstMatch = ctx.boolean(0.5, "first_match");
    for (std::size_t i = 0; i < mapped->size(); ++i) {
        const BitVec es = denseBits(mapped->view(i));
        mapped->query(es, p);
        mapped->queryFullScan(es, p);
    }
    mapped->query(pcheck::genBitVec(ctx, nbits, 2), p);
})
