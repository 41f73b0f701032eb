/**
 * @file
 * MinHash signatures and LSH candidate index over fingerprints.
 *
 * Algorithm 2 scans every known fingerprint per query; at the
 * "millions of users" population the roadmap targets, that linear
 * scan is the whole cost of identification. A fingerprint is a set
 * of bit positions and the Algorithm 3 distance is Jaccard-shaped,
 * so the standard sublinear tool applies: hash each fingerprint to
 * a short MinHash signature of k rows, band the signature into LSH
 * buckets, and only run the exact distance kernel on records that
 * collide with the query in at least one band.
 *
 * Signatures are one-permutation MinHash (Li, Owen & Zhang,
 * NeurIPS 2012) with optimal densification (Shrivastava, ICML
 * 2017). Each set position is hashed once, with a counter-based
 * hash keyed by MinHashParams::seed: the high 32 bits pick one of
 * the k bins, the low 32 bits are the value, and each bin keeps its
 * minimum. A bin no position fell into copies the minimum of the
 * first non-empty bin along its own pseudo-random probe sequence,
 * which depends only on the seed and the bin. Row j of two
 * signatures then agrees with probability equal to the Jaccard
 * similarity of the sets, as with k independent permutations, at a
 * k-th of the hashing. Signatures are pure functions of (set bits,
 * params): deterministic and independent of insertion or
 * evaluation order.
 *
 * Candidate-set growth is kept sublinear in the population by two
 * knobs working together: wide bands (4 rows per band, so a random
 * record collides with a query in a band with probability s^4 ~
 * 1e-7 at the between-class similarity of the bench populations)
 * and query-directed multi-probe — besides each band's primary
 * bucket, the query probes the buckets obtained by substituting one
 * row's value with that bin's *second* minimum, recovering
 * near-misses where a noise bit of the query stole a single row.
 * Stored records are indexed exactly once; all extra probing is on
 * the query side, so the index itself does not grow. A store's query
 * looks up the substitution keys only when nothing under the primary
 * keys accepts (QueryEngine::query, core/scan.hh).
 */

#ifndef PCAUSE_CORE_MINHASH_HH
#define PCAUSE_CORE_MINHASH_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "util/bitvec.hh"
#include "util/rng.hh"
#include "util/sparse_bitset.hh"

namespace pcause
{

class ThreadPool;

/**
 * Signature/banding tunables.
 *
 * Two signatures collide in a band when all rows of that band
 * agree, so the probability a record becomes a candidate at Jaccard
 * similarity s is 1 - (1 - s^rows)^bands per probed bucket. The
 * defaults (64 rows, 16 bands of 4 rows, multi-probe) put the
 * per-band primary collision probability at s = 0.8 (a noisy
 * observation of a known chip) near 0.41 — a miss of all 16 bands
 * is ~2e-4 before multi-probe even helps — while a random
 * between-class pair (s ~ 0.016 for the bench populations) collides
 * with probability ~6e-8 per probe, which is what keeps the
 * candidate list from scaling with the population.
 */
struct MinHashParams
{
    /** Signature rows k: the number of one-permutation bins. */
    std::uint32_t numHashes = 64;

    /** Number of LSH bands; must divide numHashes. */
    std::uint32_t bands = 16;

    /**
     * Seed the signing hashes are keyed by: the per-position hash
     * that picks a bin and a value, each empty bin's densification
     * probe sequence, and the band-key fold.
     */
    std::uint64_t seed = 0x6d696e68617368ull; // "minhash"

    /**
     * Bucket lookups per band on the query side: the primary bucket
     * plus up to (probes - 1) single-row second-minimum
     * substitutions, clamped to 1 + rows(). 1 disables multi-probe.
     * Query-time only — changing it never requires a reindex.
     */
    std::uint32_t probes = 8;

    /** Rows per band. */
    std::uint32_t rows() const { return numHashes / bands; }

    /** Bucket lookups per band after clamping. */
    std::uint32_t effectiveProbes() const
    {
        const std::uint32_t max_probes = 1 + rows();
        const std::uint32_t p = probes == 0 ? 1 : probes;
        return p < max_probes ? p : max_probes;
    }

    bool operator==(const MinHashParams &o) const
    {
        return numHashes == o.numHashes && bands == o.bands &&
               seed == o.seed && probes == o.probes;
    }
    bool operator!=(const MinHashParams &o) const { return !(*this == o); }
};

/**
 * A MinHash signature: element j is the minimum value among the
 * set positions hashed into bin j, or, for a bin none fell into,
 * its densified copy of another bin's minimum. Empty sets produce
 * all-ones sentinels (which never collide with a non-empty
 * signature except by 2^-32 chance per row).
 */
using MinHashSignature = std::vector<std::uint32_t>;

/**
 * Query-side sketch: the signature plus, per bin, the
 * second-smallest distinct value — the substitution candidates
 * multi-probe uses. Rows whose bin saw fewer than two distinct
 * values, and densified rows, repeat the minimum (substituting it
 * reproduces the primary bucket, which the probe loop skips).
 */
struct MinHashSketch
{
    MinHashSignature primary;
    MinHashSignature second;
};

/**
 * Compute the signature of @p bits under @p params. Pure function
 * of (set bits, params): the same fingerprint yields the same
 * signature regardless of when or where it is hashed.
 */
MinHashSignature minhashSignature(const BitVec &bits,
                                  const MinHashParams &params);

/**
 * minhashSignature() of the set holding exactly @p positions' cells,
 * equal row for row to the dense entry's signature of those cells,
 * without building the dense vector: how a stored record or a shrunk
 * cluster is (re-)signed.
 */
MinHashSignature minhashSignature(const SparseView &positions,
                                  const MinHashParams &params);

/** Compute the signature plus second minima (query side). The
 *  primary component equals minhashSignature() exactly. */
MinHashSketch minhashSketch(const BitVec &bits,
                            const MinHashParams &params);

/**
 * Fraction of signature positions on which @p a and @p b agree —
 * an unbiased estimate of the Jaccard similarity of the underlying
 * sets. Signature lengths must match.
 */
double signatureSimilarity(const MinHashSignature &a,
                           const MinHashSignature &b);

/**
 * Where band @p band's bucket keys start under @p params: the fold
 * lshBandKey() continues with one mix64() per row of the band.
 */
std::uint64_t lshBandSeed(const MinHashParams &params, std::uint32_t band);

/**
 * Bucket key of band @p band of @p sig under @p params — the fold
 * every band table (in memory, stored, mapped) buckets by, exposed
 * so they all agree on one definition.
 */
std::uint64_t lshBandKey(const MinHashParams &params,
                         const MinHashSignature &sig,
                         std::uint32_t band);

/**
 * Call @p emit(key) for each substitution key band @p band of
 * @p sketch probes after its primary key: row by row, lshBandKey()
 * of the band with that row's second minimum in place of its
 * minimum, skipping rows whose second minimum repeats the minimum
 * (that key is the primary one), at most effectiveProbes() - 1
 * keys. What a query widens to when no primary candidate accepts.
 * Each key branches off the primary fold at its row, so the walk
 * folds the primary key on the way and returns it.
 */
template <typename Emit>
std::uint64_t
lshSubstitutionKeys(const MinHashParams &params,
                    const MinHashSketch &sketch, std::uint32_t band,
                    const Emit &emit)
{
    const std::uint32_t r = params.rows();
    const std::uint32_t *mins = sketch.primary.data() + band * r;
    const std::uint32_t *seconds = sketch.second.data() + band * r;
    std::uint32_t left = params.effectiveProbes() - 1;
    // The primary fold over rows [0, row).
    std::uint64_t prefix = lshBandSeed(params, band);
    for (std::uint32_t row = 0; row < r; ++row) {
        if (left > 0 && seconds[row] != mins[row]) {
            std::uint64_t key = mix64(prefix, seconds[row]);
            for (std::uint32_t j = row + 1; j < r; ++j)
                key = mix64(key, mins[j]);
            emit(key);
            --left;
        }
        prefix = mix64(prefix, mins[row]);
    }
    return prefix;
}

/**
 * Call @p emit(key) for every bucket key band @p band of @p sketch
 * probes under @p params: lshSubstitutionKeys(), then the primary
 * key. Shared by the in-memory index and the mmap-ed store so their
 * candidate sets are identical by construction.
 */
template <typename Emit>
void
lshProbeKeys(const MinHashParams &params, const MinHashSketch &sketch,
             std::uint32_t band, const Emit &emit)
{
    emit(lshSubstitutionKeys(params, sketch, band, emit));
}

/**
 * Banded LSH bucket index mapping signatures to record ids.
 *
 * Each band is one flat open-addressing multimap of (bucket key,
 * record id) slots — linear probing from a multiply-shift home slot,
 * sized to a ~0.7 load on bulk builds — so a record costs 12 bytes
 * per band and a bucket lookup reads one contiguous run of slots.
 * Bucket contents come back sorted (candidates(), bandEntries()),
 * so slot order is never observable. PCDB v5 stores each band's two
 * slot arrays verbatim (bandSlots()); the loader hands them back to
 * the adopting constructor, and the mmap reader probes them in place
 * through the same probe().
 *
 * The index is append-only (records are identified by the caller's
 * dense ids, as in FingerprintDb) for both of its users: a store
 * indexes each record once, and IndexedClusterer each cluster once,
 * under the signature of the output that opened it. It is
 * externally synchronized: concurrent candidates() calls are safe
 * against each other but not against add() / addAll().
 */
class LshIndex
{
  public:
    /** Record id marking a free band-table slot. */
    static constexpr std::uint32_t emptySlot = ~std::uint32_t{0};

    /**
     * One band's slot arrays, wherever they live: a table's own
     * vectors, or a band section of a mapped PCDB v5 file. Slot s
     * holds (keys[s], ids[s]) unless ids[s] == emptySlot.
     */
    struct BandSlots
    {
        const std::uint64_t *keys = nullptr;
        const std::uint32_t *ids = nullptr;
        std::size_t slots = 0;

        /** First slot of @p key's probe run. */
        std::size_t home(std::uint64_t key) const
        {
            // Band keys are mix64 outputs, so the multiply-shift
            // range reduction spreads them evenly over any size.
            return static_cast<std::size_t>(
                (static_cast<unsigned __int128>(key) * slots) >> 64);
        }

        /** Start loading the cache lines of @p key's home slot (a
         *  prefetch never faults, even of an empty table). */
        void prefetch(std::uint64_t key) const
        {
            const std::size_t s = home(key);
            __builtin_prefetch(keys + s);
            __builtin_prefetch(ids + s);
        }

        /**
         * Append the ids stored under @p key to @p out. The probe
         * run ends at a free slot, or after every slot, and ids of
         * @p records or more are skipped: a damaged mapped table
         * (no free slot, a wild id) still ends and names only real
         * records.
         */
        void find(std::uint64_t key, std::uint32_t records,
                  std::vector<std::size_t> &out) const;
    };

    /**
     * The one probe loop every candidate lookup runs, in memory or
     * mapped. For each of @p params.bands bands, @p keysOf(band,
     * emit) calls emit(key) for each key to look up in
     * @p slotsOf(band) (a BandSlots) over @p records records. The
     * keys of every band are kept in one buffer on the stack, and
     * every key's home slot is prefetched before any is looked up,
     * so the lookups' cache misses overlap; nothing is allocated per
     * band. The ids hit are appended to @p hits, and that appended
     * run is sorted and deduplicated — the shortlist the exact
     * kernel scans.
     */
    template <typename SlotsOf, typename KeysOf>
    static void probe(const MinHashParams &params, std::size_t records,
                      const SlotsOf &slotsOf, const KeysOf &keysOf,
                      std::vector<std::size_t> &hits);

    explicit LshIndex(const MinHashParams &params = {});

    /**
     * Adopt stored band tables: band b's slots are @p keys[b] and
     * @p ids[b], holding @p records records — the PCDB v5 loader's
     * path. Each table must be one a build under @p params made:
     * exactly @p records occupied slots, every id below @p records,
     * and more slots than records (or none at all, for no records).
     * The loader checks all of that before handing them over.
     */
    LshIndex(const MinHashParams &params, std::size_t records,
             std::vector<std::vector<std::uint64_t>> keys,
             std::vector<std::vector<std::uint32_t>> ids);

    /** Parameters the index was built with. */
    const MinHashParams &params() const { return prm; }

    /** Number of records indexed. */
    std::size_t size() const { return numRecords; }

    /**
     * Index @p record under @p sig. Signature length must equal
     * params().numHashes.
     */
    void add(std::size_t record, const MinHashSignature &sig);

    /**
     * Bulk-index records first_record, first_record + 1, ... under
     * @p sigs, parallelized across bands on @p pool (band tables
     * are independent, and each is sized once for the whole batch).
     * The index answers every query exactly as after serial add()
     * calls in record order. Null @p pool runs serially.
     */
    void addAll(std::size_t first_record,
                const std::vector<MinHashSignature> &sigs,
                ThreadPool *pool = nullptr);

    /**
     * Record ids sharing at least one band bucket with @p sig,
     * ascending and deduplicated — the shortlist the exact distance
     * kernel then scans. Primary buckets only (no multi-probe).
     */
    std::vector<std::size_t>
    candidates(const MinHashSignature &sig) const;

    /**
     * Multi-probe candidates: ids sharing any of the sketch's probe
     * buckets (lshProbeKeys) in any band, ascending and
     * deduplicated — every id a store's query can scan before its
     * fallback. With params().probes == 1 this equals
     * candidates(sketch.primary).
     */
    std::vector<std::size_t>
    candidates(const MinHashSketch &sketch) const;

    /**
     * Occupancy snapshot for diagnostics: bucket count and largest
     * bucket across all bands (sorts each band's keys: O(n log n)).
     */
    struct Occupancy
    {
        std::size_t buckets = 0;
        std::size_t largestBucket = 0;
    };
    Occupancy occupancy() const;

    /**
     * Band @p band's buckets flattened to (bucket key, record id)
     * pairs sorted by key then id: the band's contents, whatever its
     * slot order.
     */
    std::vector<std::pair<std::uint64_t, std::uint32_t>>
    bandEntries(std::uint32_t band) const;

    /** Band @p band's slot arrays, as PCDB v5 stores them. */
    BandSlots bandSlots(std::uint32_t band) const;

    /** Bytes held by the band tables (container capacities). */
    std::size_t memoryBytes() const;

  private:
    /** One band: a linear-probing multimap of (key, id) slots. */
    struct BandTable
    {
        /** Slot keys; meaningful where ids[s] != emptySlot. */
        std::vector<std::uint64_t> keys;
        /** Slot record ids; emptySlot marks a free slot. */
        std::vector<std::uint32_t> ids;
        /** Occupied slots. */
        std::size_t used = 0;

        /** Make room for @p entries at no more than the bulk load. */
        void reserve(std::size_t entries);
        void insert(std::uint64_t key, std::uint32_t id);
        /** The slot arrays. */
        BandSlots slots() const
        {
            return {keys.data(), ids.data(), keys.size()};
        }
    };

    MinHashParams prm;
    std::size_t numRecords = 0;
    std::vector<BandTable> bands;
};

template <typename SlotsOf, typename KeysOf>
void
LshIndex::probe(const MinHashParams &params, std::size_t records,
                const SlotsOf &slotsOf, const KeysOf &keysOf,
                std::vector<std::size_t> &hits)
{
    // Every band's keys go into one buffer on the stack, then each
    // key's home slot is prefetched, and only then are they looked
    // up, so the lookups' cache misses overlap. The buffer holds a
    // default full probe (16 bands x 5 keys); more keys are looked up
    // a buffer at a time.
    struct Pending
    {
        std::uint32_t band;
        std::uint64_t key;
    };
    Pending pending[128];
    std::size_t held = 0;
    const std::size_t first = hits.size();
    const auto bound = static_cast<std::uint32_t>(records);
    const auto lookUp = [&] {
        for (std::size_t k = 0; k < held; ++k)
            slotsOf(pending[k].band).prefetch(pending[k].key);
        for (std::size_t k = 0; k < held; ++k)
            slotsOf(pending[k].band).find(pending[k].key, bound, hits);
        held = 0;
    };
    for (std::uint32_t band = 0; band < params.bands; ++band) {
        keysOf(band, [&](std::uint64_t key) {
            pending[held++] = {band, key};
            if (held == std::size(pending))
                lookUp();
        });
    }
    lookUp();
    std::sort(hits.begin() + first, hits.end());
    hits.erase(std::unique(hits.begin() + first, hits.end()), hits.end());
}

} // namespace pcause

#endif // PCAUSE_CORE_MINHASH_HH
