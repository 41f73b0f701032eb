#include "core/mapped_store.hh"

#include <algorithm>
#include <cstring>

#include "core/scan.hh"
#include "util/logging.hh"

namespace pcause
{

namespace
{

/** Sanity cap on a chip label (matches the stream loader). */
constexpr std::uint32_t maxLabelBytes = 1u << 16;

} // anonymous namespace

LoadResult<MappedStore>
MappedStore::open(const std::string &path)
{
    const auto fail = [](std::string why) -> LoadResult<MappedStore> {
        return {std::nullopt, "MappedStore: " + std::move(why)};
    };

    MappedStore ms;
    std::string map_err;
    if (!ms.map.open(path, &map_err))
        return fail(std::move(map_err));

    const std::uint8_t *d = ms.map.data();
    const std::uint64_t len = ms.map.size();
    if (len < pcdb::v3HeaderBytes)
        return fail("file shorter than a v3 header");
    if (std::memcmp(d, pcdb::magic, sizeof(pcdb::magic)) != 0)
        return fail("not a Probable Cause database");
    if (pcdb::loadU32(d + 4) != pcdb::versionV3)
        return fail("not a v3 database (use loadStore for v1/v2)");

    pcdb::V3Header &h = ms.header;
    h.numHashes = pcdb::loadU32(d + 8);
    h.bands = pcdb::loadU32(d + 12);
    h.probes = pcdb::loadU32(d + 16);
    const std::uint32_t reserved = pcdb::loadU32(d + 20);
    h.seed = pcdb::loadU64(d + 24);
    h.recordCount = pcdb::loadU64(d + 32);
    h.totalPositions = pcdb::loadU64(d + 40);
    h.labelBytes = pcdb::loadU64(d + 48);
    h.fileSize = pcdb::loadU64(d + 56);
    h.recordTableOff = pcdb::loadU64(d + 64);
    h.sigOff = pcdb::loadU64(d + 72);
    h.posOff = pcdb::loadU64(d + 80);
    h.labelOff = pcdb::loadU64(d + 88);
    h.lshOff = pcdb::loadU64(d + 96);

    if (h.numHashes == 0 || h.bands == 0 ||
        h.numHashes % h.bands != 0)
        return fail("invalid minhash parameters in header");
    if (reserved != 0)
        return fail("nonzero reserved header field");
    if (h.fileSize != len)
        return fail("header file size does not match the file");

    // Bound every count by what could possibly fit in the mapping
    // before computing the canonical layout, so hostile headers
    // cannot drive the offset arithmetic into 64-bit overflow.
    if (h.recordCount > len / pcdb::v3RecordEntryBytes ||
        h.totalPositions > len / sizeof(std::uint32_t) ||
        h.labelBytes > len)
        return fail("header counts exceed the file size");

    const pcdb::V3Layout lay =
        pcdb::v3Layout(h.recordCount, h.numHashes, h.totalPositions,
                       h.labelBytes, h.bands);
    if (h.recordTableOff != lay.recordTableOff ||
        h.sigOff != lay.sigOff || h.posOff != lay.posOff ||
        h.labelOff != lay.labelOff || h.lshOff != lay.lshOff ||
        h.fileSize != lay.fileSize)
        return fail("non-canonical v3 section layout");

    ms.prm.numHashes = h.numHashes;
    ms.prm.bands = h.bands;
    ms.prm.seed = h.seed;
    ms.prm.probes = h.probes;

    // One pass over the record table: the only per-record work at
    // open. Arena payloads (positions, signatures) stay untouched
    // until a query pages them in.
    std::uint64_t next_label = 0, next_pos = 0;
    for (std::uint64_t i = 0; i < h.recordCount; ++i) {
        const pcdb::V3RecordEntry e = ms.entry(i);
        if (e.labelLen > maxLabelBytes)
            return fail("implausible label length");
        if (e.labelOff != next_label || e.posOff != next_pos ||
            e.reserved != 0)
            return fail("non-canonical record table");
        if (e.sources == 0)
            return fail("record with zero sources");
        if (e.posCount > e.universe)
            return fail("more positions than universe bits");
        next_label += e.labelLen;
        next_pos += e.posCount;
    }
    if (next_label != h.labelBytes)
        return fail("label arena size mismatch");
    if (next_pos != h.totalPositions)
        return fail("position arena size mismatch");

    for (std::uint32_t band = 0; band < h.bands; ++band) {
        if (pcdb::loadU64(ms.bandBase(band)) != h.recordCount)
            return fail("lsh band entry count mismatch");
    }

    return {std::move(ms), ""};
}

pcdb::V3RecordEntry
MappedStore::entry(std::size_t i) const
{
    PC_ASSERT(i < header.recordCount,
              "MappedStore record index out of range");
    const std::uint8_t *p = map.data() + header.recordTableOff +
                            i * pcdb::v3RecordEntryBytes;
    pcdb::V3RecordEntry e;
    e.labelOff = pcdb::loadU64(p);
    e.posOff = pcdb::loadU64(p + 8);
    e.universe = pcdb::loadU64(p + 16);
    e.labelLen = pcdb::loadU32(p + 24);
    e.posCount = pcdb::loadU32(p + 28);
    e.sources = pcdb::loadU32(p + 32);
    e.reserved = pcdb::loadU32(p + 36);
    return e;
}

const std::uint8_t *
MappedStore::bandBase(std::uint32_t band) const
{
    return map.data() + header.lshOff +
           band * pcdb::v3BandBytes(header.recordCount);
}

SparseView
MappedStore::view(std::size_t i) const
{
    const pcdb::V3RecordEntry e = entry(i);
    SparseView v;
    v.positions = reinterpret_cast<const std::uint32_t *>(
        map.data() + header.posOff +
        e.posOff * sizeof(std::uint32_t));
    v.count = e.posCount;
    v.universe = e.universe;
    return v;
}

std::string_view
MappedStore::label(std::size_t i) const
{
    const pcdb::V3RecordEntry e = entry(i);
    return {reinterpret_cast<const char *>(map.data() +
                                           header.labelOff +
                                           e.labelOff),
            e.labelLen};
}

std::uint32_t
MappedStore::sources(std::size_t i) const
{
    return entry(i).sources;
}

MinHashSignature
MappedStore::signature(std::size_t i) const
{
    PC_ASSERT(i < header.recordCount,
              "MappedStore record index out of range");
    MinHashSignature sig(prm.numHashes);
    std::memcpy(sig.data(),
                map.data() + header.sigOff +
                    i * std::uint64_t{prm.numHashes} *
                        sizeof(std::uint32_t),
                prm.numHashes * sizeof(std::uint32_t));
    return sig;
}

std::vector<std::size_t>
MappedStore::candidates(const MinHashSketch &sketch) const
{
    std::vector<std::size_t> out;
    const std::uint64_t n = header.recordCount;
    for (std::uint32_t band = 0; band < prm.bands; ++band) {
        const std::uint8_t *base = bandBase(band);
        const std::uint8_t *keys = base + 8;
        const std::uint8_t *ids = keys + n * 8;
        for (const std::uint64_t key :
             lshProbeKeys(prm, sketch, band)) {
            // lower_bound over the band's sorted key array.
            std::uint64_t lo = 0, hi = n;
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (pcdb::loadU64(keys + mid * 8) < key)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            for (std::uint64_t j = lo;
                 j < n && pcdb::loadU64(keys + j * 8) == key; ++j)
                out.push_back(pcdb::loadU32(ids + j * 4));
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

IdentifyResult
MappedStore::query(const BitVec &error_string,
                   const IdentifyParams &params,
                   AttackStats *stats) const
{
    return detail::timedQuery(stats, [&](AttackStats *local) {
        // Same contract as FingerprintStore::query(); a miss falls
        // back to the exact scan, sharded across the pool when set.
        return detail::indexedQuery(
            error_string, params, prm, *this, local,
            [&](const MinHashSketch &sketch) {
                return candidates(sketch);
            },
            [&](std::size_t es_weight) {
                return detail::sparseScan(error_string, es_weight,
                                          *this, params, workers,
                                          local);
            });
    });
}

IdentifyResult
MappedStore::queryLinear(const BitVec &error_string,
                         const IdentifyParams &params,
                         AttackStats *stats) const
{
    return detail::linearQuery(error_string, params, *this, stats);
}

} // namespace pcause
