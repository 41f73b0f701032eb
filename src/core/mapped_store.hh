/**
 * @file
 * MappedStore: query a v3 database file in place, without loading.
 *
 * loadStore() reads every record into memory before the first
 * query, but a million-record database is ~100 MB of positions and
 * signatures, and an attacker service that restarts should not
 * replay the whole build. The v3 layout (core/pcdb_format.hh) is
 * designed to be the query-time data structure itself: MappedStore
 * mmaps the file, runs the structural check loadStore runs too
 * (pcdb::checkV3: header, canonical section offsets, the record
 * table, band counts) in one cheap pass, and then serves the same
 * query()/queryLinear() API as FingerprintStore straight off the
 * mapping — the kernel pages fingerprints in on first touch.
 *
 * Verdict equivalence: candidate sets are computed with the same
 * lshProbeKeys() fold the in-memory index uses (binary search over
 * the per-band sorted key arrays instead of a hash lookup), and
 * queries run FingerprintStore's own query body and sparse distance
 * (core/scan), for every metric, so accept/reject decisions match
 * FingerprintStore on the same data exactly. A miss falls back to
 * the linear scan, sharded across the pool when one is set.
 *
 * Trust model: structural metadata is fully validated at open;
 * position and signature *values* are trusted and never checked.
 * The sparse scan kernels index the query's words with
 * words[pos >> 6] unchecked, so a corrupted position (>= the
 * record's universe) in a mapped file is an out-of-bounds read, not
 * a clean failure — map only files a trusted writer produced.
 * Unlike loadStore(), positions are not checked for range or
 * ascending order at open — that would touch every record page and
 * defeat the lazy mapping.
 */

#ifndef PCAUSE_CORE_MAPPED_STORE_HH
#define PCAUSE_CORE_MAPPED_STORE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/attack_stats.hh"
#include "core/identify.hh"
#include "core/minhash.hh"
#include "core/pcdb_format.hh"
#include "core/serialize.hh"
#include "util/mmap_file.hh"

namespace pcause
{

class ThreadPool;

/** Read-only FingerprintStore over an mmap-ed v3 database file. */
class MappedStore : public SparseFingerprintSource
{
  public:
    /**
     * Map and check @p path. Failure (missing file, any reason
     * pcdb::checkV3() gives, or a file signed under the retired
     * scheme, whose band keys this reader cannot recompute) yields an
     * error result, never a process exit.
     */
    static LoadResult<MappedStore> open(const std::string &path);

    /** Number of records. */
    std::size_t size() const { return header.recordCount; }

    // SparseFingerprintSource
    std::size_t count() const override { return header.recordCount; }
    SparseView view(std::size_t i) const override;

    /** Label of record @p i (view into the mapping). */
    std::string_view label(std::size_t i) const;

    /** Source count of record @p i. */
    std::uint32_t sources(std::size_t i) const;

    /** MinHash signature of record @p i (copied out of the arena). */
    MinHashSignature signature(std::size_t i) const;

    /** Signature/banding parameters stored in the file. */
    const MinHashParams &indexParams() const { return prm; }

    /**
     * Use @p pool (not owned) to shard the fallback scans of
     * query(); with none set (null) they run serially.
     */
    void setThreadPool(ThreadPool *pool) { workers = pool; }

    /**
     * Record ids sharing any probe bucket with @p sketch in any
     * band, ascending and deduplicated — computed from the on-disk
     * sorted key arrays, identical to the in-memory
     * LshIndex::candidates() on the same records.
     */
    std::vector<std::size_t>
    candidates(const MinHashSketch &sketch) const;

    /**
     * Indexed Algorithm 2, bit-identical in verdict to
     * FingerprintStore::query() on the same records, for every
     * metric.
     */
    IdentifyResult query(const BitVec &error_string,
                         const IdentifyParams &params = {},
                         AttackStats *stats = nullptr) const;

    /** Reference linear scan: the serial sparse scan of
     *  FingerprintStore::queryLinear(), over the mapping. */
    IdentifyResult queryLinear(const BitVec &error_string,
                               const IdentifyParams &params = {},
                               AttackStats *stats = nullptr) const;

  private:
    MappedStore() = default;

    /** Record-table entry @p i decoded from the mapping. */
    pcdb::V3RecordEntry entry(std::size_t i) const;

    /** First byte of band @p band's on-disk section. */
    const std::uint8_t *bandBase(std::uint32_t band) const;

    MmapFile map;
    pcdb::V3Header header;
    MinHashParams prm;
    ThreadPool *workers = nullptr;
};

} // namespace pcause

#endif // PCAUSE_CORE_MAPPED_STORE_HH
