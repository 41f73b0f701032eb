/**
 * @file
 * MappedStore: query a v5 or v4 database file in place, without
 * loading.
 *
 * loadStore() reads every record into memory before the first
 * query, but a million-record database is ~1.6 GB of positions and
 * index, and an attacker service that restarts should not read it
 * all first. The v5 layout (core/pcdb_format.hh) is designed to be
 * the query-time data structure itself: MappedStore
 * mmaps the file, runs the structural check loadStore runs too
 * (pcdb::check: header, canonical section offsets, the record table,
 * the band slot count and the posting offsets) in one cheap pass,
 * and then keeps only its bytes: accessors that read records, band
 * tables and posting lists straight off the mapping — the kernel
 * pages them in on first touch. A v4 file differs only by a
 * signature arena, which nothing here reads. A v3 file holds no
 * position index and no band tables to probe, so it is refused,
 * naming `pcause db reindex`, which rewrites it as v5.
 *
 * Verdict equivalence: the queries are FingerprintStore's own
 * (QueryEngine, core/scan.hh): the same probe loop over the stored
 * band tables, the same primary-then-substitution shortlist scans
 * and the same overlap-count walk, for every metric. The one step of its own is counting the
 * fallback's overlaps by decoding the mapped posting lists
 * (countOverlaps()), so verdicts, nearest records, distance bits and
 * kernel counters match FingerprintStore on the same file exactly.
 *
 * Trust model: structural metadata is fully validated at open, each
 * record entry by the per-record rule and the file's one universe.
 * Index ids are bounded at use: a band probe stops after the table's
 * slot count and skips slot ids of N or more, and a posting list's
 * decoding stops at a bad gap, skips ids of N or more and never
 * yields an id twice, so a damaged index section costs wrong
 * shortlists or counts, never a read outside the mapping. Neither
 * section's CRC is checked at open (that would touch every page of
 * both; checking it once per segment is ROADMAP item 6), so such
 * damage is not detected here, where loadStore() refuses it.
 * Position *values* are trusted and never checked: the sparse scan
 * kernels index the query's words with words[pos >> 6] unchecked,
 * so a corrupted position (>= the file's universe) in a
 * mapped file is an out-of-bounds read, not a clean failure — map
 * only files a trusted writer produced.
 */

#ifndef PCAUSE_CORE_MAPPED_STORE_HH
#define PCAUSE_CORE_MAPPED_STORE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/pcdb_format.hh"
#include "core/scan.hh"
#include "core/serialize.hh"
#include "util/mmap_file.hh"

namespace pcause
{

/** Read-only FingerprintStore over an mmap-ed v5 or v4 database
 *  file. */
class MappedStore : public SparseFingerprintSource,
                    public QueryEngine<MappedStore>
{
  public:
    /**
     * Map and check @p path. Failure (missing file, any reason
     * pcdb::check() gives, or a v3 file, which holds no index to
     * map) yields an error result, never a process exit.
     */
    static LoadResult<MappedStore> open(const std::string &path);

    /** Number of records. */
    std::size_t size() const { return header.recordCount; }

    // SparseFingerprintSource
    std::size_t count() const override { return header.recordCount; }
    SparseView view(std::size_t i) const override;

    /** view(i).count, unchecked (@p i < count()). */
    std::size_t weight(std::size_t i) const
    {
        return pcdb::loadU32(entryAt(i) + 28);
    }

    /** Every record's universe in bits (0 with no record). */
    std::uint64_t bitCount() const { return header.universe; }

    /** The records, as the source every scan reads: this mapping. */
    const MappedStore &sparseFingerprints() const { return *this; }

    /** Label of record @p i (view into the mapping). */
    std::string_view label(std::size_t i) const;

    /** Source count of record @p i. */
    std::uint32_t sources(std::size_t i) const;

    /** Signature/banding parameters stored in the file. */
    const MinHashParams &indexParams() const { return prm; }

  private:
    friend class QueryEngine<MappedStore>;

    MappedStore() = default;

    /** First byte of record @p i's table entry. */
    const std::uint8_t *entryAt(std::size_t i) const
    {
        return map.data() + header.recordTableOff +
               i * pcdb::recordEntryBytes;
    }

    /** Record-table entry @p i decoded from the mapping. */
    pcdb::RecordEntry entry(std::size_t i) const;

    /** Band @p band's slot arrays in the mapping. */
    LshIndex::BandSlots bandSlots(std::uint32_t band) const;

    /**
     * Add each record's overlap with @p error_string to
     * @p overlap[id] (QueryEngine's fallback), decoded from the
     * query's own mapped posting lists.
     */
    template <typename Count>
    void countOverlaps(const BitVec &error_string,
                       std::vector<Count> &overlap) const;

    MmapFile map;
    pcdb::Header header;
    MinHashParams prm;
};

extern template class QueryEngine<MappedStore>;

} // namespace pcause

#endif // PCAUSE_CORE_MAPPED_STORE_HH
