#include "core/mapped_store.hh"

#include <cstring>

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
    if (ms.header.version == pcdb::versionV3)
        return fail("a PCDB v3 file holds no index to map; run "
                    "'pcause db reindex' to rewrite it as v5");
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
        band * pcdb::bandBytes(header.version, slots);
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
    v.universe = header.universe;
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

template <typename Count>
void
MappedStore::countOverlaps(const BitVec &error_string,
                           std::vector<Count> &overlap) const
{
    // Decoding yields each list's ids strictly ascending, so no count
    // exceeds the query's weight, and an id of a damaged list that
    // names no record is skipped.
    const std::uint8_t *offsets = map.data() + header.postingsOff;
    const std::uint8_t *bytes =
        offsets + (header.postingLists + 1) * 2 * 8;
    const std::uint64_t n = size();
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
}

template class QueryEngine<MappedStore>;

} // namespace pcause
