/**
 * @file
 * FingerprintStore: the attacker database behind one API.
 *
 * Holds each record as the paper's database does — "only tracking
 * the fast decaying bits": a label, a source count and the
 * fingerprint's position list in one sparse arena (the PCDB on-disk
 * layout), never a dense bit vector. A MinHash/LSH candidate index
 * (core/minhash) makes identification sublinear in the number of
 * known chips: a query hashes its error string to a signature,
 * pulls the records colliding in at least one LSH band, and runs
 * the exact sparse kernel (core/scan) on that shortlist only.
 *
 * Accept/reject equivalence with the paper's linear Algorithm 2 is
 * guaranteed by construction: a shortlist accept implies a record
 * under threshold exists (the exact kernel verified it), and a
 * shortlist miss falls back to the full scan, whose result is
 * returned verbatim. The only permitted divergence is *which*
 * record is reported when several sit under the threshold — the
 * shortlist may surface a later record than the linear scan's first
 * hit, or in best-match mode its own best rather than the global one
 * (distinct chips are never that close at a working threshold; see
 * docs/ALGORITHMS.md "Fingerprint index").
 *
 * The full scan reads an inverted position index (per universe
 * position, the ascending ids of the records containing it) instead
 * of every record: it counts each record's overlap with the query's
 * own set positions, four posting lists at a time, then walks the
 * records in id order under the linear scan's rules
 * (detail::overlapWalk, core/scan.hh), which MappedStore runs too
 * over counts decoded from a mapped file. A fixed-point screen of
 * the current bound (PruneScreen) counts the records it proves
 * pruned without a step; every other record takes the linear scan's
 * step, which derives its distance and prune decision exactly from
 * (overlap, weights). Its verdict, nearest record, distance bits and
 * kernel counters equal queryLinear()'s (docs/ALGORITHMS.md "Exact
 * reject scan").
 *
 * The LSH band tables and the position index are what PCDB v4
 * stores: loadStore() reads them back as they were written (adopt())
 * instead of rebuilding them, and a v3 file, which holds neither,
 * is rebuilt through addBatch().
 * queryLinear() itself is the serial sparse scan over the arena; the
 * independent reference outside the arena is identifyErrorString()
 * over the FingerprintDb a store was built from.
 */

#ifndef PCAUSE_CORE_STORE_HH
#define PCAUSE_CORE_STORE_HH

#include <cstdint>
#include <vector>

#include "core/attack_stats.hh"
#include "core/identify.hh"
#include "core/minhash.hh"

namespace pcause
{

class ThreadPool;

/** Indexed attacker database: sparse records + LSH candidate index. */
class FingerprintStore
{
  public:
    explicit FingerprintStore(const MinHashParams &index_params = {});

    /** Build a store over an existing database (index computed). */
    static FingerprintStore fromDb(FingerprintDb db,
                                   const MinHashParams &index_params = {});

    /**
     * Add a record: the signature is computed and indexed
     * incrementally, no rebuild. Returns the record index.
     */
    std::size_t add(ChipLabel label, Fingerprint fp);

    /**
     * Add a record whose signature is already known (the on-disk
     * formats carry signatures). @p sig_params must state the
     * parameters the signature was computed under: when its
     * signature space matches this store's (same hash count and
     * seed — banding does not affect signature content), the
     * signature is adopted verbatim; otherwise it is recomputed
     * under the store's parameters, so a caller can never silently
     * mix signature spaces (e.g. by adding a default-params
     * signature to a store loaded from a custom-params file).
     */
    std::size_t addWithSignature(ChipLabel label, Fingerprint fp,
                                 MinHashSignature sig,
                                 const MinHashParams &sig_params);

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
     * keep their ids. @p labels and @p fps pair up elementwise and
     * are consumed.
     */
    void addBatch(std::vector<ChipLabel> labels,
                  std::vector<Fingerprint> fps);

    /**
     * Bulk add of records already in sparse form — the v3 loader's
     * path. @p labels, @p sources and @p sigs pair up with @p fps's
     * records; an empty store adopts @p fps outright, otherwise its
     * positions are appended. The signatures must be in this
     * store's signature space (they are indexed verbatim). Nothing
     * is hashed: the position index and the band tables fill on the
     * store's pool when one is set (loadStore sets its own) and
     * serially otherwise — never on the process-global pool, whose
     * threads would outlive the load.
     */
    void addBatch(std::vector<ChipLabel> labels,
                  std::vector<unsigned> sources,
                  SparseFingerprintArena fps,
                  std::vector<MinHashSignature> sigs);

    /**
     * A store over records whose index was built before: the PCDB v4
     * loader's path, which reads the band tables and the position
     * index from the file. @p index must hold exactly these records
     * under @p sigs, and @p postings[p] the ascending ids of the
     * records holding position p, for every p up to the highest one
     * held: what addBatch() builds. The loader checks each list's
     * length against the positions and both sections' CRCs first.
     */
    static FingerprintStore
    adopt(std::vector<ChipLabel> labels, std::vector<unsigned> sources,
          SparseFingerprintArena fps, std::vector<MinHashSignature> sigs,
          LshIndex index,
          std::vector<std::vector<std::uint32_t>> postings);

    /** Number of records. */
    std::size_t size() const { return chipLabels.size(); }

    /** True when no record has been added. */
    bool empty() const { return chipLabels.empty(); }

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

    /** MinHash signature of record @p i. */
    const MinHashSignature &signature(std::size_t i) const;

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
     * and what the v4 writer stores gap-coded.
     */
    const std::vector<std::vector<std::uint32_t>> &positionIndex() const
    {
        return postings;
    }

    /** Bytes held by the inverted position index (capacities). */
    std::size_t postingsBytes() const;

    /**
     * Use @p pool (not owned) for batch adds, batch queries and
     * reindexing. With no pool set (null), addBatch() of
     * fingerprints and queryBatch() run on the process-global pool,
     * while reindex() and the sparse addBatch() run serially.
     * A store loadStore() returns has none set.
     */
    void setThreadPool(ThreadPool *pool) { workers = pool; }

    /**
     * Indexed Algorithm 2 from a precomputed error string: exact
     * bounded-distance scan of the LSH shortlist, exact full scan
     * (queryFullScan()) when the shortlist yields no accept.
     * @p stats, when non-null, accumulates candidates-scanned vs
     * database-size counters, kernel counters, and identify wall
     * time.
     */
    IdentifyResult query(const BitVec &error_string,
                         const IdentifyParams &params = {},
                         AttackStats *stats = nullptr) const;

    /** Indexed Algorithm 2 from an output and its exact value. */
    IdentifyResult query(const BitVec &approx, const BitVec &exact,
                         const IdentifyParams &params = {},
                         AttackStats *stats = nullptr) const;

    /**
     * Batch query: elementwise equal to query() on each error
     * string, spread across the thread pool (the process-global
     * pool when none is set). @p stats receives the batch total
     * (identify time = the batch's wall time); @p per_query, when
     * non-null, is resized to one entry per error string holding
     * exactly what query() would have added for it, including its
     * own query time.
     */
    std::vector<IdentifyResult>
    queryBatch(const std::vector<BitVec> &error_strings,
               const IdentifyParams &params = {},
               AttackStats *stats = nullptr,
               std::vector<AttackStats> *per_query = nullptr) const;

    /**
     * Reference linear Algorithm 2: the serial sparse scan over
     * every record (core/scan), bit-identical in verdict, nearest
     * record and distance to identifyErrorString() — the baseline
     * the index is measured against.
     */
    IdentifyResult queryLinear(const BitVec &error_string,
                               const IdentifyParams &params = {},
                               AttackStats *stats = nullptr) const;

    /**
     * The exact full scan query() falls back to, on its own: every
     * record's overlap with the query counted from the inverted
     * position index, then walked in id order under the linear
     * scan's rules. Verdict, nearest record, distance bits and
     * computed/pruned counters equal queryLinear()'s; @p stats
     * accumulates the same fields queryLinear() reports.
     */
    IdentifyResult queryFullScan(const BitVec &error_string,
                                 const IdentifyParams &params = {},
                                 AttackStats *stats = nullptr) const;

    /**
     * Rebuild the index under new signature/banding parameters;
     * signatures are recomputed from the arena (across the pool
     * when one is set, serially otherwise).
     */
    void reindex(const MinHashParams &new_params);

  private:
    /**
     * query() body accumulating into @p stats without timing; the
     * public entry points add wall time around it.
     */
    IdentifyResult queryImpl(const BitVec &error_string,
                             const IdentifyParams &params,
                             AttackStats *stats) const;

    /** queryFullScan() body: kernel counters only, untimed.
     *  @p es_weight must equal error_string.popcount(). */
    IdentifyResult fullScan(const BitVec &error_string,
                            std::size_t es_weight,
                            const IdentifyParams &params,
                            AttackStats *stats) const;

    /** fullScan() with overlap counters of type @p Count, which
     *  must hold @p es_weight. */
    template <typename Count>
    IdentifyResult overlapScan(const BitVec &error_string,
                               std::size_t es_weight,
                               const IdentifyParams &params,
                               AttackStats *stats) const;

    /** Shared tail of both addBatch() overloads: append @p fps's
     *  records (an empty store adopts the arena) with signatures in
     *  this store's signature space, then fill the position index
     *  (indexPositions()) and the band tables on @p pool. */
    void appendBatch(std::vector<ChipLabel> new_labels,
                     std::vector<unsigned> sources,
                     SparseFingerprintArena fps,
                     std::vector<MinHashSignature> sigs,
                     ThreadPool &pool);

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
    std::vector<MinHashSignature> signatures;
    SparseFingerprintArena sparse;
    LshIndex lsh;

    /** Per position up to the highest stored one: ascending ids of
     *  the records whose fingerprint contains it. */
    std::vector<std::vector<std::uint32_t>> postings;

    ThreadPool *workers = nullptr;
};

/**
 * Sign every record of @p fps under @p params, across @p pool when
 * non-null (serially otherwise): the loop behind
 * FingerprintStore::reindex, and how loadStore re-signs a file
 * written under the retired signing scheme.
 */
std::vector<MinHashSignature>
signArena(const SparseFingerprintArena &fps, const MinHashParams &params,
          ThreadPool *pool);

} // namespace pcause

#endif // PCAUSE_CORE_STORE_HH
