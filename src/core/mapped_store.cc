#include "core/mapped_store.hh"

#include <algorithm>
#include <cstring>

#include "core/scan.hh"
#include "util/logging.hh"

namespace pcause
{

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

    // The structural check reads the header, the record table (the
    // only per-record work at open) and the band counts; arena
    // payloads stay untouched until a query pages them in.
    const std::uint8_t *d = ms.map.data();
    const std::string err = pcdb::checkV3(
        ms.map.size(),
        [d](std::uint64_t off, void *dst, std::size_t len) {
            std::memcpy(dst, d + off, len);
            return true;
        },
        ms.header);
    if (!err.empty())
        return fail(err);
    // Candidates come from the on-disk band keys, which a
    // retired-scheme file holds under that scheme's signatures.
    if (ms.header.scheme != pcdb::schemeOnePermutation)
        return fail("signed under the retired 64-hash scheme; run "
                    "'pcause db reindex' to re-sign the file");
    ms.prm = ms.header.minhashParams();
    return {std::move(ms), ""};
}

pcdb::V3RecordEntry
MappedStore::entry(std::size_t i) const
{
    PC_ASSERT(i < header.recordCount,
              "MappedStore record index out of range");
    return pcdb::decodeRecordEntry(map.data() + header.recordTableOff +
                                   i * pcdb::v3RecordEntryBytes);
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
