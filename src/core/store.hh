/**
 * @file
 * FingerprintStore: the attacker database behind one API.
 *
 * Holds each record as the paper's database does — "only tracking
 * the fast decaying bits": a label, a source count and the
 * fingerprint's position list in one sparse arena (the PCDB on-disk
 * layout), never a dense bit vector. A MinHash/LSH candidate index
 * (core/minhash) makes identification sublinear in the number of
 * known chips: a query sketches its error string, pulls the records
 * under its primary key in any LSH band, and runs the exact sparse
 * kernel on that shortlist only — widening to the substitution keys
 * (multi-probe) only when nothing on it accepts.
 *
 * The queries themselves — query(), queryFullScan(), queryLinear()
 * and candidates() — are the one engine both stores share
 * (QueryEngine, core/scan.hh). This class holds the records, the
 * band tables and the inverted position index (per universe
 * position, the ascending ids of the records containing it), and
 * supplies the engine the one step that is its own: counting each
 * record's overlap with a query from the posting lists in memory,
 * four lists at a time (countOverlaps()).
 *
 * Accept/reject equivalence with the paper's linear Algorithm 2 is
 * guaranteed by construction: a shortlist accept implies a record
 * under threshold exists (the exact kernel verified it), and a miss
 * of both shortlists falls back to the full scan, whose result is
 * returned verbatim and equals queryLinear()'s in verdict, nearest
 * record, distance bits and kernel counters (docs/ALGORITHMS.md
 * "Exact reject scan"). The only permitted divergence is *which*
 * record is reported when several sit under the threshold — the
 * shortlist may surface a later record than the linear scan's first
 * hit (one under a primary key before one reachable only through a
 * substitution key), or in best-match mode its own best rather than
 * the global one (distinct chips are never that close at a working
 * threshold; see docs/ALGORITHMS.md "Fingerprint index").
 *
 * No record's MinHash signature is kept: a signature is computed
 * from the record's positions wherever band tables are filled (add(),
 * addBatch(), reindex()) and dropped once its keys are in them, since
 * the tables are all a query probes. The band tables and the position
 * index are what PCDB v5 stores: loadStore() reads them back as they
 * were written (adopt()) instead of rebuilding them, and a v3 file,
 * which holds neither, is rebuilt through addBatch(). The independent
 * reference outside the arena is identifyErrorString() over the
 * FingerprintDb a store was built from.
 */

#ifndef PCAUSE_CORE_STORE_HH
#define PCAUSE_CORE_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/identify.hh"
#include "core/minhash.hh"
#include "core/scan.hh"

namespace pcause
{

class ThreadPool;

/** Indexed attacker database: sparse records + LSH candidate index. */
class FingerprintStore : public QueryEngine<FingerprintStore>
{
  public:
    explicit FingerprintStore(const MinHashParams &index_params = {});

    /** Build a store over an existing database (index computed). */
    static FingerprintStore fromDb(FingerprintDb db,
                                   const MinHashParams &index_params = {});

    /**
     * The one admission check: why a record of a @p label_bytes-byte
     * label, @p sources sources and a @p bits-bit fingerprint may not
     * join this store (pcdb::recordError(), so every store saveStore()
     * writes loads back, or a bit count other than the records'), or
     * empty. add() and addBatch() assert it; writers ask it first.
     */
    std::string admitError(std::uint64_t label_bytes,
                           std::uint64_t sources,
                           std::uint64_t bits) const;

    /**
     * Add a record admitError() admits: the signature is computed and
     * indexed incrementally, no rebuild. Returns the record index.
     */
    std::size_t add(ChipLabel label, Fingerprint fp);

    /**
     * Bulk add with a parallel index build, all of it on the thread
     * pool (setThreadPool(), else the process global): signatures
     * are computed per record, the batch's position arena is sized
     * once and filled in record shards, the position index is filled
     * by a counting sort over record shards (indexPositions()), and
     * the LSH band tables band-sharded; every index structure is
     * sized once for the whole batch. The resulting store answers
     * every query exactly as after serial add() calls in order, at
     * any lane count — signatures are order-independent and records
     * keep their ids. @p labels and @p fps (of one bit count) pair
     * up elementwise and are consumed.
     */
    void addBatch(std::vector<ChipLabel> labels,
                  std::vector<Fingerprint> fps);

    /**
     * Bulk add of records already in sparse form — the v3 loader's
     * path. @p labels and @p sources pair up with @p fps's records;
     * an empty store adopts @p fps outright, otherwise its positions
     * are appended. The records are signed, the position index and
     * the band tables filled, on the store's pool when one is set
     * (loadStore sets its own) and serially otherwise — never on the
     * process-global pool, whose threads would outlive the load.
     */
    void addBatch(std::vector<ChipLabel> labels,
                  std::vector<unsigned> sources,
                  SparseFingerprintArena fps);

    /**
     * A store over records whose index was built before: the PCDB
     * v4/v5 loader's path, which reads the band tables and the
     * position index from the file. @p index must hold exactly these
     * records under their signatures, and @p postings[p] the
     * ascending ids of the records holding position p, for every p up
     * to the highest one held: what addBatch() builds. The loader
     * checks each list's length against the positions and both
     * sections' CRCs first.
     */
    static FingerprintStore
    adopt(std::vector<ChipLabel> labels, std::vector<unsigned> sources,
          SparseFingerprintArena fps, LshIndex index,
          std::vector<std::vector<std::uint32_t>> postings);

    /** Number of records. */
    std::size_t size() const { return chipLabels.size(); }

    /** True when no record has been added. */
    bool empty() const { return chipLabels.empty(); }

    /** Every record's universe in bits (0 while there is none). */
    std::uint64_t bitCount() const { return sparse.bitCount(); }

    /**
     * Record @p i, rebuilt as a dense copy from the arena (the store
     * keeps no dense fingerprints): for tools and tests that want a
     * Fingerprint. Per-verdict and all-records paths read label(),
     * sources() and sparseFingerprints() instead.
     */
    FingerprintRecord record(std::size_t i) const;

    /** Label of record @p i. */
    const ChipLabel &label(std::size_t i) const;

    /** Number of error strings record @p i's fingerprint folds. */
    unsigned sources(std::size_t i) const;

    /** Signature/banding parameters of the current index. */
    const MinHashParams &indexParams() const { return lsh.params(); }

    /** The candidate index (diagnostics: occupancy, size). */
    const LshIndex &index() const { return lsh; }

    /**
     * The fingerprints, as one sparse position arena: what every
     * query path scans and the PCDB writer persists verbatim.
     */
    const SparseFingerprintArena &sparseFingerprints() const
    {
        return sparse;
    }

    /**
     * The inverted position index: list p holds the ascending ids of
     * the records whose fingerprint contains position p, for every
     * p up to the highest one held. What the full scan counts from,
     * and what the writer stores gap-coded.
     */
    const std::vector<std::vector<std::uint32_t>> &positionIndex() const
    {
        return postings;
    }

    /** Bytes held by the inverted position index (capacities). */
    std::size_t postingsBytes() const;

    /**
     * Use @p pool (not owned) for batch adds and reindexing. With
     * no pool set (null), addBatch() of fingerprints runs on the
     * process-global pool, while reindex() and the sparse addBatch()
     * run serially. A store loadStore() returns has none set.
     * Queries never use it: batches of them run on the pool of the
     * AttackService that serves the store.
     */
    void setThreadPool(ThreadPool *pool) { workers = pool; }

    /**
     * Rebuild the index under new signature/banding parameters,
     * signing every record from the arena (across the pool when one
     * is set, serially otherwise).
     */
    void reindex(const MinHashParams &new_params);

  private:
    friend class QueryEngine<FingerprintStore>;

    /** Band @p band's slot arrays (QueryEngine's probe). */
    LshIndex::BandSlots bandSlots(std::uint32_t band) const
    {
        return lsh.bandSlots(band);
    }

    /**
     * Add each record's overlap with @p error_string to
     * @p overlap[id] (QueryEngine's fallback), counted from the
     * query's own posting lists, four at a time.
     */
    template <typename Count>
    void countOverlaps(const BitVec &error_string,
                       std::vector<Count> &overlap) const;

    /** Shared tail of both addBatch() overloads: append @p fps's
     *  records (an empty store adopts the arena), then sign them and
     *  fill the position index (indexPositions()) and the band tables
     *  on @p pool. */
    void appendBatch(std::vector<ChipLabel> new_labels,
                     std::vector<unsigned> sources,
                     SparseFingerprintArena fps, ThreadPool &pool);

    /**
     * Post the arena's records [first, count()) to the position
     * index: a counting sort over record shards on @p pool that
     * sizes each touched list once, exactly, and keeps every list
     * ascending. O(batch + highest position): a single add() posts
     * its own positions instead.
     */
    void indexPositions(std::size_t first, ThreadPool &pool);

    std::vector<ChipLabel> chipLabels;
    std::vector<unsigned> sourceCounts;
    SparseFingerprintArena sparse;
    LshIndex lsh;

    /** Per position up to the highest stored one: ascending ids of
     *  the records whose fingerprint contains it. */
    std::vector<std::vector<std::uint32_t>> postings;

    ThreadPool *workers = nullptr;
};

extern template class QueryEngine<FingerprintStore>;

} // namespace pcause

#endif // PCAUSE_CORE_STORE_HH
