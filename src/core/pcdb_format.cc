#include "core/pcdb_format.hh"

#include <algorithm>
#include <vector>

namespace pcause
{
namespace pcdb
{

namespace
{

/** Bytes of gap @p g's varint. */
std::uint64_t
gapBytes(std::uint64_t g)
{
    std::uint64_t n = 1;
    while (g >= 0x80) {
        g >>= 7;
        ++n;
    }
    return n;
}

/** Bytes of @p h's signature arena: N * k u32 in v3 and v4, none in
 *  v5, which keeps no signature. */
std::uint64_t
sigArenaBytes(const Header &h)
{
    return h.version == versionV5 ? 0 : h.recordCount * h.numHashes * 4;
}

/** check()'s posting offset pass: both arrays, a chunk at a time. */
std::string
checkPostingOffsets(const ReadAt &read, const Header &h)
{
    const std::uint64_t entries = h.postingLists + 1;
    const std::uint64_t id_off = h.postingsOff + entries * 8;
    constexpr std::uint64_t chunk = 4096;
    std::vector<std::uint64_t> bytes(std::min(chunk, entries));
    std::vector<std::uint64_t> ids(bytes.size());
    std::uint64_t prev_byte = 0, prev_id = 0;
    for (std::uint64_t p = 0; p < entries; ++p) {
        const std::uint64_t k = p % chunk;
        if (k == 0) {
            const std::uint64_t n = std::min(chunk, entries - p) * 8;
            if (!read(h.postingsOff + p * 8, bytes.data(), n) ||
                !read(id_off + p * 8, ids.data(), n))
                return "cannot read the posting offsets";
        }
        if (p == 0 && (bytes[0] != 0 || ids[0] != 0))
            return "posting list offsets do not start at 0";
        if (bytes[k] < prev_byte || ids[k] < prev_id)
            return "non-monotone posting list offsets";
        if (bytes[k] > h.postingBytes)
            return "posting list offsets outside the section";
        prev_byte = bytes[k];
        prev_id = ids[k];
    }
    if (prev_byte != h.postingBytes)
        return "posting list offsets outside the section";
    if (prev_id != h.totalPositions)
        return "posting id offsets do not end at the position count";
    return {};
}

} // anonymous namespace

std::string
minhashError(std::uint64_t hashes, std::uint64_t bands)
{
    if (hashes == 0 || bands == 0 || hashes % bands != 0 ||
        hashes > maxHashes)
        return "invalid minhash parameters: " + std::to_string(hashes) +
               " hashes in " + std::to_string(bands) +
               " bands (the bands must divide the hashes, at most " +
               std::to_string(maxHashes) + ")";
    return {};
}

const char *
recordError(std::uint64_t label_bytes, std::uint64_t sources,
            std::uint64_t universe, std::string *detail)
{
    const auto refuse = [&](const char *why, const std::string &what) {
        if (detail)
            *detail = std::string(why) + ": " + what;
        return why;
    };
    if (label_bytes > maxLabelBytes)
        return refuse("implausible label length",
                      "the label has " + std::to_string(label_bytes) +
                          " bytes; at most " +
                          std::to_string(maxLabelBytes) + " fit");
    if (sources == 0)
        return refuse("record with zero sources",
                      "the fingerprint folds no error string");
    if (universe > maxUniverseBits)
        return refuse("universe exceeds 2^32 bits",
                      "the fingerprint has " + std::to_string(universe) +
                          " bits");
    return nullptr;
}

MinHashParams
Header::minhashParams() const
{
    MinHashParams p;
    p.numHashes = numHashes;
    p.bands = bands;
    p.seed = seed;
    p.probes = probes;
    return p;
}

RecordEntry
decodeRecordEntry(const std::uint8_t *p)
{
    RecordEntry e;
    e.labelOff = loadU64(p);
    e.posOff = loadU64(p + 8);
    e.universe = loadU64(p + 16);
    e.labelLen = loadU32(p + 24);
    e.posCount = loadU32(p + 28);
    e.sources = loadU32(p + 32);
    e.reserved = loadU32(p + 36);
    return e;
}

Layout
layout(const Header &h)
{
    Layout l;
    l.recordTableOff =
        h.version == versionV3 ? v3HeaderBytes : v4HeaderBytes;
    l.sigOff =
        align8(l.recordTableOff + h.recordCount * recordEntryBytes);
    l.posOff = align8(l.sigOff + sigArenaBytes(h));
    l.labelOff = align8(l.posOff + h.totalPositions * 4);
    l.bandOff = align8(l.labelOff + h.labelBytes);
    const std::uint64_t band_end =
        l.bandOff +
        h.bands * bandBytes(h.version, h.version == versionV3
                                           ? h.recordCount
                                           : h.bandSlots);
    if (h.version == versionV3) {
        l.fileSize = band_end;
    } else {
        l.postingsOff = band_end;
        l.fileSize = l.postingsOff + (h.postingLists + 1) * 16 +
                     align8(h.postingBytes);
    }
    return l;
}

void
encodePostingList(const std::uint32_t *ids, std::size_t n,
                  std::vector<std::uint8_t> &out)
{
    std::uint64_t next = 0;
    for (std::size_t j = 0; j < n; ++j) {
        std::uint64_t gap = std::uint64_t{ids[j]} + 1 - next;
        next = std::uint64_t{ids[j]} + 1;
        while (gap >= 0x80) {
            out.push_back(static_cast<std::uint8_t>(gap | 0x80));
            gap >>= 7;
        }
        out.push_back(static_cast<std::uint8_t>(gap));
    }
}

std::uint64_t
postingListBytes(const std::uint32_t *ids, std::size_t n)
{
    std::uint64_t bytes = 0, next = 0;
    for (std::size_t j = 0; j < n; ++j) {
        bytes += gapBytes(std::uint64_t{ids[j]} + 1 - next);
        next = std::uint64_t{ids[j]} + 1;
    }
    return bytes;
}

std::string
check(std::uint64_t file_len, const ReadAt &read, Header &h,
      const std::function<void(const RecordEntry &)> &on_entry)
{
    if (file_len < v3HeaderBytes)
        return "file shorter than a PCDB header";
    std::uint8_t d[v4HeaderBytes] = {};
    if (!read(0, d, v3HeaderBytes))
        return "cannot read the header";
    if (std::memcmp(d, magic, sizeof(magic)) != 0)
        return "not a Probable Cause database";
    h = Header{};
    h.version = loadU32(d + 4);
    if (h.version != versionV3 && h.version != versionV4 &&
        h.version != versionV5)
        return "unsupported version " + std::to_string(h.version) +
               " (PCDB v3, v4 and v5 are read)";
    if (h.version != versionV3) {
        if (file_len < v4HeaderBytes)
            return "file shorter than a PCDB header";
        if (!read(v3HeaderBytes, d + v3HeaderBytes,
                  v4HeaderBytes - v3HeaderBytes))
            return "cannot read the header";
    }

    h.numHashes = loadU32(d + 8);
    h.bands = loadU32(d + 12);
    h.probes = loadU32(d + 16);
    h.scheme = loadU32(d + 20);
    h.seed = loadU64(d + 24);
    h.recordCount = loadU64(d + 32);
    h.totalPositions = loadU64(d + 40);
    h.labelBytes = loadU64(d + 48);
    h.fileSize = loadU64(d + 56);
    h.recordTableOff = loadU64(d + 64);
    h.sigOff = loadU64(d + 72);
    h.posOff = loadU64(d + 80);
    h.labelOff = loadU64(d + 88);
    h.bandOff = loadU64(d + 96);
    h.bandSlots = loadU64(d + 104);
    h.postingLists = loadU64(d + 112);
    h.postingBytes = loadU64(d + 120);
    h.postingsOff = loadU64(d + 128);
    h.bandCrc = loadU32(d + bandCrcOff);
    h.postingsCrc = loadU32(d + postingsCrcOff);

    if (std::string why = minhashError(h.numHashes, h.bands);
        !why.empty())
        return why;
    if (h.scheme != schemeOnePermutation && h.scheme != schemeRetired)
        return "unknown signature scheme " + std::to_string(h.scheme);
    if (h.version != versionV3 && h.scheme != schemeOnePermutation)
        return "a v" + std::to_string(h.version) +
               " file signed under the retired scheme";
    if (h.fileSize != file_len)
        return "header file size does not match the file";

    // Bound every count by what could possibly fit in the file
    // before computing the canonical layout, so hostile headers
    // cannot drive the offset arithmetic into 64-bit overflow. The
    // hash count is bounded by the signature arena where there is
    // one; in v5, only by maxHashes.
    const std::uint64_t per_band =
        h.bandSlots > file_len / 12
            ? 0
            : bandBytes(h.version, h.version == versionV3
                                       ? h.recordCount
                                       : h.bandSlots);
    if (h.recordCount > file_len / recordEntryBytes ||
        h.totalPositions > file_len / sizeof(std::uint32_t) ||
        h.labelBytes > file_len || h.bandSlots > file_len / 12 ||
        h.postingLists > file_len / 16 || h.postingBytes > file_len ||
        (h.version != versionV5 && h.recordCount > 0 &&
         h.numHashes > file_len / 4 / h.recordCount) ||
        (per_band > 0 && h.bands > file_len / per_band))
        return "header counts exceed the file size";
    if (h.version != versionV3 &&
        !(h.bandSlots > h.recordCount ||
          (h.bandSlots == 0 && h.recordCount == 0)))
        return "band slot count not above the record count";

    const Layout lay = layout(h);
    if (h.recordTableOff != lay.recordTableOff ||
        h.sigOff != lay.sigOff || h.posOff != lay.posOff ||
        h.labelOff != lay.labelOff || h.bandOff != lay.bandOff ||
        h.postingsOff != lay.postingsOff ||
        h.fileSize != lay.fileSize)
        return "non-canonical section layout";

    // One pass over the record table, a bounded chunk at a time.
    constexpr std::uint64_t chunk = 1024;
    std::vector<std::uint8_t> table(
        std::min(chunk, h.recordCount) * recordEntryBytes);
    std::uint64_t next_label = 0, next_pos = 0;
    for (std::uint64_t i = 0; i < h.recordCount; ++i) {
        if (i % chunk == 0) {
            const std::uint64_t n = std::min(chunk, h.recordCount - i);
            if (!read(h.recordTableOff + i * recordEntryBytes,
                      table.data(), n * recordEntryBytes))
                return "cannot read the record table";
        }
        const RecordEntry e = decodeRecordEntry(
            table.data() + (i % chunk) * recordEntryBytes);
        if (const char *why =
                recordError(e.labelLen, e.sources, e.universe))
            return why;
        if (e.labelOff != next_label || e.posOff != next_pos ||
            e.reserved != 0)
            return "non-canonical record table";
        if (i == 0)
            h.universe = e.universe;
        else if (e.universe != h.universe)
            return "universe differs from record 0's";
        if (e.posCount > e.universe)
            return "more positions than universe bits";
        next_label += e.labelLen;
        next_pos += e.posCount;
        if (on_entry)
            on_entry(e);
    }
    if (next_label != h.labelBytes)
        return "label arena size mismatch";
    if (next_pos != h.totalPositions)
        return "position arena size mismatch";

    if (h.version == versionV3) {
        for (std::uint32_t band = 0; band < h.bands; ++band) {
            std::uint8_t count[8];
            if (!read(h.bandOff +
                          band * bandBytes(versionV3, h.recordCount),
                      count, sizeof(count)))
                return "cannot read the lsh section";
            if (loadU64(count) != h.recordCount)
                return "lsh band entry count mismatch";
        }
        return {};
    }
    // A list per position up to the highest one held, and none past
    // the universe.
    if (h.postingLists > h.universe)
        return "more posting lists than universe bits";
    return checkPostingOffsets(read, h);
}

} // namespace pcdb
} // namespace pcause
