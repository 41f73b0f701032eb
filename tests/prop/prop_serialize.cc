/**
 * @file
 * On-disk format properties: any store survives a save/load round
 * trip bit-for-bit (records, sources, index parameters, cached
 * signatures); *every* strict prefix of a valid file is rejected
 * with a useful error — never a crash, never a silently short
 * database; and a file with any one byte flipped either fails to
 * load with an error or loads a store that saves and reloads
 * unchanged.
 */

#include "prop_common.hh"

#include <cstdio>
#include <fstream>

#include <unistd.h>

#include "core/serialize.hh"
#include "core/store.hh"

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

/** @p back holds exactly @p store's records, parameters and
 *  signatures. Compares the sparse lists, never a dense copy: a
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
        // v3 carries signatures verbatim — no recompute drift.
        PCHECK(back.signature(i) == store.signature(i));
        const SparseView a = back.sparseFingerprints().view(i);
        const SparseView b = store.sparseFingerprints().view(i);
        PCHECK_EQ(a.universe, b.universe);
        PCHECK_EQ(a.count, b.count);
        for (std::size_t k = 0; k < a.count; ++k)
            PCHECK_EQ(a.positions[k], b.positions[k]);
    }
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
    if (!loaded) {
        std::remove(path.c_str());
        PCHECK_MSG(!loaded.error.empty(),
                   "failed load carried no error message");
        return;
    }
    // What the checks let through (a signature, a label byte, a
    // probe count, the LSH trailer the loader rebuilds) is a store
    // like any other: it saves and reloads unchanged.
    PCHECK_MSG(saveStore(*loaded, path), "re-save failed");
    StoreLoadResult again = loadStore(path);
    std::remove(path.c_str());
    PCHECK_MSG(static_cast<bool>(again), again.error);
    checkSameStore(*again, *loaded);
})
