/**
 * @file
 * PCDB on-disk layout and the one structural check both of its
 * readers run: loadStore (core/serialize) and MappedStore::open
 * (core/mapped_store).
 *
 * v5 (what every writer writes) is designed to be opened without
 * rebuilding anything: after a fixed-size header with explicit
 * section offsets comes a fixed-stride record table, then contiguous
 * arenas (fingerprint positions, labels), then the index itself —
 * each LSH band's open-addressing slot arrays exactly as LshIndex
 * holds them, and the inverted position index as one gap-coded list
 * per universe position. loadStore reads both index sections
 * straight into the store's structures; MappedStore probes and
 * decodes them in place. No file keeps a record's MinHash signature
 * for a reader: a signature exists only while band tables are
 * filled, and the tables are what a query probes.
 *
 * Two earlier versions are read. v4 is v5 plus a signature arena
 * (N * k u32) between the record table and the positions, which
 * neither reader reads; re-saved, it is written as v5. v3 ends in a
 * sorted (bucket key, record id) array per band instead and carries
 * no position index: loadStore rebuilds both, re-signing every
 * record from its positions, and `pcause db reindex` rewrites it as
 * v5. MappedStore refuses it.
 *
 * All integers are little-endian. Every section starts 8-byte
 * aligned, and the layout is *canonical*: section offsets and
 * per-record arena offsets must be exactly the packed sequential
 * values a writer produces. check() rejects anything else, and the
 * header's fileSize must equal both the file's length and the
 * computed section end, so every strict prefix of a valid file fails
 * to load in either reader.
 *
 * Layout:
 *
 *   header (144 bytes; v3: the first 104)
 *     off  0  char[4]  magic "PCDB"
 *     off  4  u32      version = 5 (or 4, 3)
 *     off  8  u32      minhash numHashes (k)
 *     off 12  u32      minhash bands
 *     off 16  u32      minhash probes
 *     off 20  u32      signing scheme: 1 = one-permutation MinHash,
 *                      the scheme of every band key. A v3 file may
 *                      hold 0, the retired 64-hash scheme (loadStore
 *                      re-signs every v3 file, and MappedStore
 *                      refuses v3); any other value is rejected
 *     off 24  u64      minhash seed
 *     off 32  u64      record count N
 *     off 40  u64      total fingerprint positions P
 *     off 48  u64      label arena bytes L
 *     off 56  u64      file size in bytes
 *     off 64  u64      record table offset   (= header size)
 *     off 72  u64      signature arena offset (v5: the empty
 *                      arena's, equal to the position arena's)
 *     off 80  u64      position arena offset
 *     off 88  u64      label arena offset
 *     off 96  u64      band section offset
 *     -- v4 and v5 only --
 *     off 104 u64      slots per band table S (> N; 0 when N = 0)
 *     off 112 u64      posting list count Q (<= the universe)
 *     off 120 u64      posting bytes B
 *     off 128 u64      postings section offset
 *     off 136 u32      CRC-32 (util/crc32) of the band section
 *     off 140 u32      CRC-32 of the postings section
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
 *   signature arena: v3 and v4, N * k u32 (record-major),
 *                    zero-padded to 8, read by no reader; v5, empty
 *   position arena:  P u32 (ascending within each record), padded
 *   label arena:     L raw bytes, padded
 *   band section (v4, v5), per band b in [0, bands):
 *     u64 keys[S], u32 ids[S] (LshIndex::emptySlot marks a free
 *     slot; a key under a free slot means nothing), zero-padded to 8
 *   postings section (v4, v5):
 *     u64 byte offsets[Q + 1], u64 id offsets[Q + 1], then B bytes,
 *     zero-padded to 8. List p holds the ascending ids of the
 *     records containing position p: idOff[p + 1] - idOff[p] ids,
 *     coded as gap varints in bytes [byteOff[p], byteOff[p + 1])
 *     (encodePostingList()). Both offset arrays start at 0 and never
 *     fall; byte offsets end at B, id offsets at P.
 *   band section (v3), per band b in [0, bands):
 *     u64 entry count (= N), u64 keys[N] (sorted, ties by id),
 *     u32 ids[N] (parallel to keys), zero-padded to 8
 *
 * What each reader checks. check() (both readers, at open) covers
 * the header, the layout, the record table, v3's band entry counts
 * and the slot count and posting offsets of v4 and v5: everything
 * but the payloads, in one pass over the record table and the offset
 * arrays.
 * Both readers keep the file's one universe (Header::universe) as
 * their one bit count. loadStore then reads every payload, in tasks
 * on a thread pool, and checks it as it goes: each position inside
 * the universe and strictly ascending, each band slot id below N
 * with exactly N occupied, each gap above 0 and each decoded id
 * below N, each list's bytes holding exactly its ids, the lists'
 * position sum (each list's position times its length) equal to the
 * position arena's, and both CRCs. MappedStore checks no payload at
 * open: it bounds slot and posting ids at use and trusts positions
 * (see core/mapped_store.hh). A signature arena is read by neither.
 *
 * What a file may hold is stated once, here (minhashError(),
 * recordError()); the journal, `pcause db reindex` and the store's
 * admission check ask the same rules.
 */

#ifndef PCAUSE_CORE_PCDB_FORMAT_HH
#define PCAUSE_CORE_PCDB_FORMAT_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/minhash.hh"

namespace pcause
{
namespace pcdb
{

constexpr char magic[4] = {'P', 'C', 'D', 'B'};
constexpr std::uint32_t versionV3 = 3;
constexpr std::uint32_t versionV4 = 4;
constexpr std::uint32_t versionV5 = 5;

/** Header signing schemes (offset 20). */
constexpr std::uint32_t schemeRetired = 0;        //!< 64 hashes per cell
constexpr std::uint32_t schemeOnePermutation = 1; //!< one hash per cell

/** Most signature rows a file may declare (64 is the default):
 *  readers size per-record and per-band state by it before any
 *  arena bounds it, and an empty file's arenas bound nothing. */
constexpr std::uint32_t maxHashes = 1u << 16;

/** Longest chip label a file may hold (real labels are tens of
 *  bytes); the wire bounds labels by it too. */
constexpr std::uint32_t maxLabelBytes = 1u << 16;

/** Largest fingerprint universe: positions are stored as u32. */
constexpr std::uint64_t maxUniverseBits = std::uint64_t{1} << 32;

/** The header's MinHash parameter rule: why no file may declare
 *  @p hashes rows in @p bands bands (the bands must divide the
 *  hashes, at most maxHashes), or empty. */
std::string minhashError(std::uint64_t hashes, std::uint64_t bands);

/**
 * The per-record rule: check()'s reason for refusing a record of a
 * @p label_bytes-byte label (at most maxLabelBytes), @p sources
 * sources (at least 1) and a @p universe-bit fingerprint (at most
 * maxUniverseBits), or null. @p detail, when non-null, receives the
 * reason with the refused value: "implausible label length: the
 * label has 70000 bytes; at most 65536 fit".
 */
const char *recordError(std::uint64_t label_bytes, std::uint64_t sources,
                        std::uint64_t universe,
                        std::string *detail = nullptr);

constexpr std::uint64_t v3HeaderBytes = 104;
constexpr std::uint64_t v4HeaderBytes = 144; //!< v4 and v5
constexpr std::uint64_t recordEntryBytes = 40;

/** Header offsets of the two index section CRCs (v4, v5). */
constexpr std::uint64_t bandCrcOff = 136;
constexpr std::uint64_t postingsCrcOff = 140;

/** Round @p x up to the next multiple of 8. */
constexpr std::uint64_t
align8(std::uint64_t x)
{
    return (x + 7) & ~std::uint64_t{7};
}

/** Decoded header (the fields past v3's stay 0 in a v3 file). */
struct Header
{
    std::uint32_t version = versionV5;
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
    std::uint64_t bandOff = 0;
    std::uint64_t bandSlots = 0;
    std::uint64_t postingLists = 0;
    std::uint64_t postingBytes = 0;
    std::uint64_t postingsOff = 0;
    std::uint32_t bandCrc = 0;
    std::uint32_t postingsCrc = 0;

    /** Not on disk: every record's universe, one per file (check()
     *  reads it from the record table; 0 with no record). */
    std::uint64_t universe = 0;

    /** The signature/banding parameters the file was written under. */
    MinHashParams minhashParams() const;
};

/** One decoded record-table entry. */
struct RecordEntry
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

/** Decode the recordEntryBytes-byte record-table entry at @p p. */
RecordEntry decodeRecordEntry(const std::uint8_t *p);

/** Per-band section size: v3 for @p n records, v4 and v5 for @p n
 *  slots. */
constexpr std::uint64_t
bandBytes(std::uint32_t version, std::uint64_t n)
{
    return version == versionV3 ? 8 + align8(n * 12)
                                : n * 8 + align8(n * 4);
}

/**
 * The canonical section offsets and total size of a file with
 * @p h's version and counts (record count, hashes, positions, label
 * bytes, bands, and past v3 slots, posting lists and posting bytes).
 * Readers reject files whose header offsets differ.
 */
struct Layout
{
    std::uint64_t recordTableOff = 0;
    std::uint64_t sigOff = 0;
    std::uint64_t posOff = 0;
    std::uint64_t labelOff = 0;
    std::uint64_t bandOff = 0;
    std::uint64_t postingsOff = 0; //!< past v3 only
    std::uint64_t fileSize = 0;
};

Layout layout(const Header &h);

/**
 * Append the gap varints of the @p n strictly ascending @p ids to
 * @p out: id j is coded as its gap over id j-1 (over -1 for the
 * first, so every gap is at least 1), 7 bits a byte, low group
 * first, the high bit set on all but a gap's last byte.
 */
void encodePostingList(const std::uint32_t *ids, std::size_t n,
                       std::vector<std::uint8_t> &out);

/** Bytes encodePostingList() writes for @p ids. */
std::uint64_t postingListBytes(const std::uint32_t *ids, std::size_t n);

/**
 * Decode the posting list in bytes [@p p, @p end), calling
 * @p visit(id) for each id in order while it returns true. Returns
 * false at a zero gap or a varint that is longer than 5 bytes or
 * runs past @p end, having visited the ids before it; ids come out
 * strictly ascending however the bytes were damaged.
 */
template <typename Visit>
inline bool
decodePostingList(const std::uint8_t *p, const std::uint8_t *end,
                  Visit &&visit)
{
    std::uint64_t next = 0; // the lowest id the next gap can name
    constexpr std::uint64_t highBits = 0x8080808080808080ull;
    constexpr std::uint64_t lowBits = 0x0101010101010101ull;
    while (p < end) {
        // Eight one-byte gaps at once, the common case while a
        // position is shared by more than 1 in 128 records: no byte
        // continues a varint, and none is zero (the subtraction
        // borrows into a high bit only below a zero byte).
        if (end - p >= 8) {
            std::uint64_t w;
            std::memcpy(&w, p, sizeof(w));
            if ((w & highBits) == 0 && ((w - lowBits) & highBits) == 0) {
                for (int k = 0; k < 8; ++k, w >>= 8) {
                    next += w & 0xff;
                    if (!visit(next - 1))
                        return false;
                }
                p += 8;
                continue;
            }
        }
        std::uint64_t gap = *p++;
        if (gap >= 0x80) {
            gap &= 0x7f;
            for (unsigned shift = 7;; shift += 7) {
                if (p == end || shift > 28)
                    return false;
                const std::uint8_t b = *p++;
                gap |= std::uint64_t{b & 0x7fu} << shift;
                if (b < 0x80)
                    break;
            }
        }
        if (gap == 0)
            return false;
        next += gap;
        if (!visit(next - 1))
            return false;
    }
    return true;
}

/**
 * Copy the @p len bytes at offset @p off of the file being checked
 * into @p dst; false when they cannot be read. check() asks only
 * for ranges inside the file length it was given.
 */
using ReadAt =
    std::function<bool(std::uint64_t off, void *dst, std::size_t len)>;

/**
 * The structural check of a v3, v4 or v5 file of @p file_len bytes:
 * magic and version, minhash parameters (minhashError()) and signing
 * scheme, header counts bounded by the file length, the canonical
 * section layout, every record-table entry (recordError(), canonical
 * arena offsets, a position count within the universe, one universe
 * for the whole file) and the arena totals; for v3 every band's
 * entry count, past v3 the slot count and the posting offset arrays.
 *
 * Returns the empty string and fills @p header (its universe too)
 * when the file passes; otherwise returns the reason, the same text
 * for both readers.
 * @p on_entry (when set) sees each entry that passed, in id order.
 */
std::string
check(std::uint64_t file_len, const ReadAt &read, Header &header,
      const std::function<void(const RecordEntry &)> &on_entry =
          nullptr);

} // namespace pcdb
} // namespace pcause

#endif // PCAUSE_CORE_PCDB_FORMAT_HH
