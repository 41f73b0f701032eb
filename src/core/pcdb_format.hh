/**
 * @file
 * PCDB v3 on-disk layout and the one structural check both of its
 * readers run: loadStore (core/serialize) and MappedStore::open
 * (core/mapped_store).
 *
 * v3 is designed to be queried in place: after a fixed-size header
 * with explicit section offsets comes a fixed-stride record table,
 * then contiguous arenas (signatures, fingerprint positions,
 * labels) and the LSH index serialized as per-band sorted
 * (bucket key, record id) arrays. Opening a million-record database
 * is a header check plus one pass over the 40 MB record table —
 * milliseconds — and record payloads are paged in by the kernel on
 * first touch.
 *
 * All integers are little-endian. Every section starts 8-byte
 * aligned, and the layout is *canonical*: section offsets and
 * per-record arena offsets must be exactly the packed sequential
 * values a writer produces. checkV3() rejects anything else, and the
 * header's fileSize must equal both the file's length and the
 * computed section end, so every strict prefix of a valid file fails
 * to load in either reader.
 *
 * Layout:
 *
 *   header (104 bytes)
 *     off  0  char[4]  magic "PCDB"
 *     off  4  u32      version = 3
 *     off  8  u32      minhash numHashes (k)
 *     off 12  u32      minhash bands
 *     off 16  u32      minhash probes
 *     off 20  u32      signing scheme: 1 = one-permutation MinHash
 *                      (what writers write), 0 = the retired
 *                      64-hash scheme, whose signatures and band
 *                      keys loadStore recomputes and MappedStore
 *                      refuses; any other value is rejected
 *     off 24  u64      minhash seed
 *     off 32  u64      record count N
 *     off 40  u64      total fingerprint positions P
 *     off 48  u64      label arena bytes L
 *     off 56  u64      file size in bytes
 *     off 64  u64      record table offset   (= 104)
 *     off 72  u64      signature arena offset
 *     off 80  u64      position arena offset
 *     off 88  u64      label arena offset
 *     off 96  u64      LSH section offset
 *
 *   record table: N entries of 40 bytes
 *     off  0  u64      label offset into label arena
 *     off  8  u64      position offset into position arena (elements)
 *     off 16  u64      fingerprint universe (bits; the same for every
 *                      record of a file, at most 2^32)
 *     off 24  u32      label length (bytes)
 *     off 28  u32      position count
 *     off 32  u32      source count (> 0)
 *     off 36  u32      reserved (0)
 *
 *   signature arena: N * k u32 (record-major), zero-padded to 8
 *   position arena:  P u32 (ascending within each record), padded
 *   label arena:     L raw bytes, padded
 *   LSH section:     per band b in [0, bands):
 *     u64 entry count (= N), u64 keys[N] (sorted, ties by id),
 *     u32 ids[N] (parallel to keys), zero-padded to 8
 *
 * Structural metadata (the header, the record table and the band
 * entry counts) is fully checked by checkV3(). Arena payloads are
 * not: loadStore additionally checks every position (in range,
 * strictly ascending) as it reads the arena, while MappedStore
 * trusts positions and signature values (see core/mapped_store.hh).
 */

#ifndef PCAUSE_CORE_PCDB_FORMAT_HH
#define PCAUSE_CORE_PCDB_FORMAT_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "core/minhash.hh"

namespace pcause
{
namespace pcdb
{

constexpr char magic[4] = {'P', 'C', 'D', 'B'};
constexpr std::uint32_t versionV3 = 3;

/** Header signing schemes (offset 20). */
constexpr std::uint32_t schemeRetired = 0;        //!< 64 hashes per cell
constexpr std::uint32_t schemeOnePermutation = 1; //!< one hash per cell

constexpr std::uint64_t v3HeaderBytes = 104;
constexpr std::uint64_t v3RecordEntryBytes = 40;

/** Round @p x up to the next multiple of 8. */
constexpr std::uint64_t
align8(std::uint64_t x)
{
    return (x + 7) & ~std::uint64_t{7};
}

/** Decoded v3 header. */
struct V3Header
{
    std::uint32_t numHashes = 0;
    std::uint32_t bands = 0;
    std::uint32_t probes = 0;
    std::uint32_t scheme = schemeOnePermutation;
    std::uint64_t seed = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t totalPositions = 0;
    std::uint64_t labelBytes = 0;
    std::uint64_t fileSize = 0;
    std::uint64_t recordTableOff = 0;
    std::uint64_t sigOff = 0;
    std::uint64_t posOff = 0;
    std::uint64_t labelOff = 0;
    std::uint64_t lshOff = 0;

    /** The signature/banding parameters the file was written under. */
    MinHashParams minhashParams() const;
};

/** One decoded record-table entry. */
struct V3RecordEntry
{
    std::uint64_t labelOff = 0;
    std::uint64_t posOff = 0;
    std::uint64_t universe = 0;
    std::uint32_t labelLen = 0;
    std::uint32_t posCount = 0;
    std::uint32_t sources = 0;
    std::uint32_t reserved = 0;
};

/** Unaligned little-endian loads (mmap-ed data has no alignment
 *  guarantees a struct cast could rely on). */
inline std::uint32_t
loadU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Decode the v3RecordEntryBytes-byte record-table entry at @p p. */
V3RecordEntry decodeRecordEntry(const std::uint8_t *p);

/** Per-band LSH section size for @p records records. */
constexpr std::uint64_t
v3BandBytes(std::uint64_t records)
{
    return 8 + align8(records * 8 + records * 4);
}

/**
 * The canonical section offsets and total size for a v3 file of
 * @p records records, @p k hashes, @p total_positions positions and
 * @p label_bytes of labels. Readers reject files whose header
 * offsets differ.
 */
struct V3Layout
{
    std::uint64_t recordTableOff = 0;
    std::uint64_t sigOff = 0;
    std::uint64_t posOff = 0;
    std::uint64_t labelOff = 0;
    std::uint64_t lshOff = 0;
    std::uint64_t fileSize = 0;
};

inline V3Layout
v3Layout(std::uint64_t records, std::uint64_t k,
         std::uint64_t total_positions, std::uint64_t label_bytes,
         std::uint64_t bands)
{
    V3Layout l;
    l.recordTableOff = v3HeaderBytes;
    l.sigOff =
        align8(l.recordTableOff + records * v3RecordEntryBytes);
    l.posOff = align8(l.sigOff + records * k * 4);
    l.labelOff = align8(l.posOff + total_positions * 4);
    l.lshOff = align8(l.labelOff + label_bytes);
    l.fileSize = l.lshOff + bands * v3BandBytes(records);
    return l;
}

/**
 * Copy the @p len bytes at offset @p off of the file being checked
 * into @p dst; false when they cannot be read. checkV3() asks only
 * for ranges inside the file length it was given.
 */
using ReadAt =
    std::function<bool(std::uint64_t off, void *dst, std::size_t len)>;

/**
 * The structural check of a v3 file of @p file_len bytes: magic and
 * version, minhash parameters and signing scheme, header counts
 * bounded by the file length, the canonical section layout, every
 * record-table entry (canonical arena offsets, label length,
 * sources, a position count within the universe, one universe of at
 * most 2^32 bits for the whole file), the arena totals and every
 * band's entry count.
 *
 * Returns the empty string and fills @p header when the file passes;
 * otherwise returns the reason, the same text for both readers.
 * @p on_entry (when set) sees each entry that passed, in id order.
 */
std::string
checkV3(std::uint64_t file_len, const ReadAt &read, V3Header &header,
        const std::function<void(const V3RecordEntry &)> &on_entry =
            nullptr);

} // namespace pcdb
} // namespace pcause

#endif // PCAUSE_CORE_PCDB_FORMAT_HH
