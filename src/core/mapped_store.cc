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
    // only per-record work at open) and the posting offsets; arena
    // and index payloads stay untouched until a query pages them in.
    const std::uint8_t *d = ms.map.data();
    const std::string err = pcdb::check(
        ms.map.size(),
        [d](std::uint64_t off, void *dst, std::size_t len) {
            std::memcpy(dst, d + off, len);
            return true;
        },
        ms.header);
    if (!err.empty())
        return fail(err);
    if (ms.header.version != pcdb::versionV4)
        return fail("a PCDB v3 file holds no index to map; run "
                    "'pcause db reindex' to rewrite it as v4");
    ms.prm = ms.header.minhashParams();
    return {std::move(ms), ""};
}

pcdb::RecordEntry
MappedStore::entry(std::size_t i) const
{
    PC_ASSERT(i < header.recordCount,
              "MappedStore record index out of range");
    return pcdb::decodeRecordEntry(entryAt(i));
}

LshIndex::BandSlots
MappedStore::bandSlots(std::uint32_t band) const
{
    const std::uint64_t slots = header.bandSlots;
    const std::uint8_t *base =
        map.data() + header.bandOff +
        band * pcdb::bandBytes(pcdb::versionV4, slots);
    return {reinterpret_cast<const std::uint64_t *>(base),
            reinterpret_cast<const std::uint32_t *>(base + slots * 8),
            slots};
}

SparseView
MappedStore::view(std::size_t i) const
{
    const pcdb::RecordEntry e = entry(i);
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
    const pcdb::RecordEntry e = entry(i);
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
    std::vector<std::uint32_t> hits;
    const auto records = static_cast<std::uint32_t>(size());
    for (std::uint32_t band = 0; band < prm.bands; ++band) {
        const LshIndex::BandSlots table = bandSlots(band);
        for (const std::uint64_t key : lshProbeKeys(prm, sketch, band))
            table.find(key, records, hits);
    }
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    return std::vector<std::size_t>(hits.begin(), hits.end());
}

template <typename Count>
IdentifyResult
MappedStore::overlapScan(const BitVec &error_string,
                         std::size_t es_weight,
                         const IdentifyParams &params,
                         AttackStats *stats) const
{
    // Each record's overlap with the query, decoded from the query's
    // own posting lists. Decoding yields each list's ids strictly
    // ascending, so no count exceeds the query's weight, and an id
    // of a damaged list that names no record is skipped.
    const std::uint8_t *offsets = map.data() + header.postingsOff;
    const std::uint8_t *bytes =
        offsets + (header.postingLists + 1) * 2 * 8;
    const std::uint64_t n = size();
    std::vector<Count> overlap(n, 0);
    for (const std::size_t p : error_string.setBits()) {
        if (p >= header.postingLists)
            break; // no record reaches this far into the universe
        pcdb::decodePostingList(bytes + pcdb::loadU64(offsets + p * 8),
                                bytes + pcdb::loadU64(offsets + p * 8 + 8),
                                [&](std::uint64_t id) {
                                    if (id < n)
                                        ++overlap[id];
                                    return true;
                                });
    }
    return detail::overlapWalk(error_string, es_weight, *this, overlap,
                               params, stats);
}

IdentifyResult
MappedStore::fullScan(const BitVec &error_string, std::size_t es_weight,
                      const IdentifyParams &params,
                      AttackStats *stats) const
{
    return es_weight <= 0xffff
               ? overlapScan<std::uint16_t>(error_string, es_weight,
                                            params, stats)
               : overlapScan<std::uint32_t>(error_string, es_weight,
                                            params, stats);
}

IdentifyResult
MappedStore::query(const BitVec &error_string,
                   const IdentifyParams &params,
                   AttackStats *stats) const
{
    return detail::timedQuery(stats, [&](AttackStats *local) {
        // Same contract as FingerprintStore::query(); a miss falls
        // back to the exact overlap-count scan.
        return detail::indexedQuery(
            error_string, params, prm, *this, local,
            [&](const MinHashSketch &sketch) {
                return candidates(sketch);
            },
            [&](std::size_t es_weight) {
                return fullScan(error_string, es_weight, params, local);
            });
    });
}

IdentifyResult
MappedStore::queryFullScan(const BitVec &error_string,
                           const IdentifyParams &params,
                           AttackStats *stats) const
{
    return detail::timedQuery(stats, [&](AttackStats *local) {
        local->recordsAvailable += size();
        return fullScan(error_string, error_string.popcount(), params,
                        local);
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
