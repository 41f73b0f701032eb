#include "core/pcdb_format.hh"

#include <algorithm>
#include <vector>

namespace pcause
{
namespace pcdb
{

namespace
{

/** Sanity cap on a chip label: real labels are tens of bytes. */
constexpr std::uint32_t maxLabelBytes = 1u << 16;

/** Largest fingerprint universe: positions are stored as u32. */
constexpr std::uint64_t maxUniverseBits = std::uint64_t{1} << 32;

} // anonymous namespace

MinHashParams
V3Header::minhashParams() const
{
    MinHashParams p;
    p.numHashes = numHashes;
    p.bands = bands;
    p.seed = seed;
    p.probes = probes;
    return p;
}

V3RecordEntry
decodeRecordEntry(const std::uint8_t *p)
{
    V3RecordEntry e;
    e.labelOff = loadU64(p);
    e.posOff = loadU64(p + 8);
    e.universe = loadU64(p + 16);
    e.labelLen = loadU32(p + 24);
    e.posCount = loadU32(p + 28);
    e.sources = loadU32(p + 32);
    e.reserved = loadU32(p + 36);
    return e;
}

std::string
checkV3(std::uint64_t file_len, const ReadAt &read, V3Header &h,
        const std::function<void(const V3RecordEntry &)> &on_entry)
{
    if (file_len < v3HeaderBytes)
        return "file shorter than a v3 header";
    std::uint8_t d[v3HeaderBytes];
    if (!read(0, d, sizeof(d)))
        return "cannot read the header";
    if (std::memcmp(d, magic, sizeof(magic)) != 0)
        return "not a Probable Cause database";
    const std::uint32_t version = loadU32(d + 4);
    if (version != versionV3)
        return "unsupported version " + std::to_string(version) +
               " (only PCDB v3 is read)";

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
    h.lshOff = loadU64(d + 96);

    if (h.numHashes == 0 || h.bands == 0 ||
        h.numHashes % h.bands != 0)
        return "invalid minhash parameters in header";
    if (h.scheme != schemeOnePermutation && h.scheme != schemeRetired)
        return "unknown signature scheme " + std::to_string(h.scheme);
    if (h.fileSize != file_len)
        return "header file size does not match the file";

    // Bound every count by what could possibly fit in the file
    // before computing the canonical layout, so hostile headers
    // cannot drive the offset arithmetic into 64-bit overflow.
    if (h.recordCount > file_len / v3RecordEntryBytes ||
        h.totalPositions > file_len / sizeof(std::uint32_t) ||
        h.labelBytes > file_len)
        return "header counts exceed the file size";

    const V3Layout lay = v3Layout(h.recordCount, h.numHashes,
                                  h.totalPositions, h.labelBytes,
                                  h.bands);
    if (h.recordTableOff != lay.recordTableOff ||
        h.sigOff != lay.sigOff || h.posOff != lay.posOff ||
        h.labelOff != lay.labelOff || h.lshOff != lay.lshOff ||
        h.fileSize != lay.fileSize)
        return "non-canonical v3 section layout";

    // One pass over the record table, a bounded chunk at a time.
    constexpr std::uint64_t chunk = 1024;
    std::vector<std::uint8_t> table(
        std::min(chunk, h.recordCount) * v3RecordEntryBytes);
    std::uint64_t next_label = 0, next_pos = 0, universe = 0;
    for (std::uint64_t i = 0; i < h.recordCount; ++i) {
        if (i % chunk == 0) {
            const std::uint64_t n = std::min(chunk, h.recordCount - i);
            if (!read(h.recordTableOff + i * v3RecordEntryBytes,
                      table.data(), n * v3RecordEntryBytes))
                return "cannot read the record table";
        }
        const V3RecordEntry e = decodeRecordEntry(
            table.data() + (i % chunk) * v3RecordEntryBytes);
        if (e.labelLen > maxLabelBytes)
            return "implausible label length";
        if (e.labelOff != next_label || e.posOff != next_pos ||
            e.reserved != 0)
            return "non-canonical record table";
        if (e.sources == 0)
            return "record with zero sources";
        if (e.universe > maxUniverseBits)
            return "universe exceeds 2^32 bits";
        if (i == 0)
            universe = e.universe;
        else if (e.universe != universe)
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

    for (std::uint32_t band = 0; band < h.bands; ++band) {
        std::uint8_t count[8];
        if (!read(h.lshOff + band * v3BandBytes(h.recordCount), count,
                  sizeof(count)))
            return "cannot read the lsh section";
        if (loadU64(count) != h.recordCount)
            return "lsh band entry count mismatch";
    }
    return {};
}

} // namespace pcdb
} // namespace pcause
