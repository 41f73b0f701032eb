/**
 * @file
 * Online clustering of approximate outputs (paper Algorithm 4).
 *
 * For the eavesdropping attacker, who has not pre-characterized any
 * chip: each incoming error string is compared to the fingerprints
 * of existing clusters; a hit augments that cluster's fingerprint
 * by intersection, a miss opens a new cluster. The cluster set *is*
 * the discovered fingerprint database.
 *
 * Two implementations share the algorithm: OnlineClusterer is the
 * literal pairwise scan over dense fingerprints (the reference), and
 * IndexedClusterer keeps each cluster fingerprint as a sorted
 * position list in the same MinHash/LSH banded bucket index
 * FingerprintStore uses for Algorithm 2 — bucket shortlist, exact
 * bounded-kernel confirm, full-scan fallback, both through core/scan's
 * sparse distance — so ingest stays sublinear at fleet scale while
 * accept/reject verdicts are identical to the pairwise scan by
 * construction.
 */

#ifndef PCAUSE_CORE_CLUSTER_HH
#define PCAUSE_CORE_CLUSTER_HH

#include <cstdint>
#include <vector>

#include "core/distance.hh"
#include "core/fingerprint.hh"
#include "core/identify.hh"
#include "core/minhash.hh"
#include "util/bitvec.hh"

namespace pcause
{

class ThreadPool;

/** Tunables for clustering. */
struct ClusterParams
{
    double threshold = 0.1;  //!< same scale as identification
    DistanceMetric metric = DistanceMetric::ModifiedJaccard;
};

/** Incremental Algorithm 4 state. */
class OnlineClusterer
{
  public:
    explicit OnlineClusterer(const ClusterParams &params = {});

    /**
     * Assign one error string to a cluster, creating a new cluster
     * when nothing matches. Returns the cluster index.
     */
    std::size_t addErrorString(const BitVec &error_string);

    /** Convenience: derive the error string, then add it. */
    std::size_t add(const BitVec &approx, const BitVec &exact);

    /** Number of clusters discovered so far. */
    std::size_t numClusters() const { return clusters.size(); }

    /** Fingerprint of cluster @p i. */
    const Fingerprint &fingerprint(std::size_t i) const;

    /** Cluster index assigned to each added error string, in order. */
    const std::vector<std::size_t> &assignments() const
    {
        return history;
    }

    /** Export the clusters as an identification database. */
    FingerprintDb toDatabase(const std::string &label_prefix =
                             "cluster-") const;

  private:
    ClusterParams prm;
    std::vector<Fingerprint> clusters;
    std::vector<std::size_t> history;
};

/** Ingest counters of an IndexedClusterer session. */
struct ClusterStats
{
    std::uint64_t outputs = 0;          //!< error strings ingested
    std::uint64_t clustersOpened = 0;   //!< misses that opened clusters
    std::uint64_t augments = 0;         //!< hits folded by intersection
    /** Always 0: a cluster keeps the keys it opened with (see
     *  IndexedClusterer). Kept only because the benchmark's
     *  perfbench/clustered.cc reads it. */
    std::uint64_t resigns = 0;
    std::uint64_t candidatesScanned = 0; //!< shortlist confirms run
    std::uint64_t fallbackScans = 0;    //!< full-scan fallbacks taken
};

/**
 * Algorithm 4 on the MinHash/LSH candidate index.
 *
 * Each cluster is its fingerprint's sorted position list plus its
 * source count, shown to core/scan as a SparseFingerprintSource. Each
 * incoming error string is signed once; the banded bucket index
 * shortlists clusters sharing a primary band bucket with it, and the
 * exact sparse distance (detail::SparseDistAt, bounded at the
 * threshold) confirms the shortlist in ascending cluster-id order
 * (creation order — the order the pairwise scan visits). Unlike
 * FingerprintStore's query side, the clusterer probes primary
 * buckets only (no multi-probe): in the clustering regime a new
 * output of a chip and the output that opened the chip's cluster
 * are near-duplicates, so a primary all-band miss is already rare,
 * the bounded fallback makes any miss harmless to the verdict, and
 * skipping multi-probe spares the substitution lookups. When no
 * shortlisted cluster accepts, a bounded full scan over all
 * clusters decides, and its verdict is returned verbatim — so
 * whether an output joins an existing cluster or opens a new one is
 * always identical to OnlineClusterer, and *which* cluster it joins
 * is identical whenever at most one cluster sits under the threshold
 * (the regime the paper's separated fleets are in; see
 * docs/ALGORITHMS.md).
 *
 * Index-keys rule: a cluster is indexed once, under the signature
 * of the output that opened it, and its entry never moves. An
 * augment only intersects, dropping each position whose bit is
 * clear in the error string, so the fingerprint shrinks toward its
 * chip's steadiest cells, while each new output of the chip still
 * carries nearly all of them. The opening output is the key that
 * finds them: in bench/perf_cluster's 1M-output campaign, a chip's
 * 101st output has a mean Jaccard similarity of 0.965 with the
 * chip's opening output but 0.728 with the intersection of its
 * first 100. The keys only propose candidates; the exact confirm
 * and the fallback decide.
 *
 * Externally synchronized, like FingerprintStore: concurrent calls
 * on one instance are not supported. addBatch() parallelizes only
 * the pure per-output sketching across the attached pool; ingest
 * stays strictly sequential, so assignments equal serial
 * addErrorString() calls in order.
 */
class IndexedClusterer
{
  public:
    explicit IndexedClusterer(const ClusterParams &params = {},
                              const MinHashParams &index_params = {});

    /**
     * Use @p pool (not owned) for addBatch()'s sketching phase. With
     * no pool set (null), it signs on the process-global pool.
     */
    void setThreadPool(ThreadPool *pool) { workers = pool; }

    /**
     * Assign one error string to a cluster, creating a new cluster
     * when nothing matches. Returns the cluster index.
     */
    std::size_t addErrorString(const BitVec &error_string);

    /** Convenience: derive the error string, then add it. */
    std::size_t add(const BitVec &approx, const BitVec &exact);

    /**
     * Streaming batch ingest: equivalent to addErrorString() on each
     * element in order (sketches precompute in parallel; the
     * index/fingerprint fold is sequential). Returns the cluster
     * index per error string. Sketching here means signing only —
     * see the class comment on primary-bucket probing.
     */
    std::vector<std::size_t>
    addBatch(const std::vector<BitVec> &error_strings);

    /** Number of clusters discovered so far. */
    std::size_t numClusters() const { return clusters.count(); }

    /** Fingerprint of cluster @p i, rebuilt dense from its
     *  positions. */
    Fingerprint fingerprint(std::size_t i) const;

    /** Cluster index assigned to each added error string, in order. */
    const std::vector<std::size_t> &assignments() const
    {
        return history;
    }

    /** Export the clusters as an identification database. */
    FingerprintDb toDatabase(const std::string &label_prefix =
                             "cluster-") const;

    /** Index parameters the opening signatures are banded under. */
    const MinHashParams &indexParams() const { return lsh.params(); }

    /** Session counters. */
    const ClusterStats &stats() const { return counters; }

  private:
    /** One discovered cluster. */
    struct Cluster
    {
        std::vector<std::uint32_t> positions; //!< ascending
        unsigned sources = 0; //!< error strings folded in
    };

    /** The clusters, seen by core/scan as sparse fingerprints. */
    struct ClusterSet final : SparseFingerprintSource
    {
        std::vector<Cluster> all;
        std::uint64_t universe = 0; //!< bits per error string

        std::size_t count() const override { return all.size(); }
        SparseView view(std::size_t i) const override
        {
            return {all[i].positions.data(), all[i].positions.size(),
                    universe};
        }
    };

    /** Ingest one error string whose signature is already computed. */
    std::size_t ingest(const BitVec &error_string,
                       const MinHashSignature &sig);

    /** Fold an accepted error string into cluster @p c by
     *  intersection. */
    std::size_t augmentInto(std::size_t c, const BitVec &error_string);

    ClusterParams prm;
    ClusterSet clusters;
    LshIndex lsh;
    std::vector<std::size_t> history;
    ThreadPool *workers = nullptr;
    ClusterStats counters;
};

/**
 * Batch Algorithm 4 (CLUSTER): cluster @p approx_results sharing
 * one exact value and return the discovered fingerprint database.
 * @p assignments_out, when non-null, receives per-result cluster
 * indices.
 */
FingerprintDb cluster(const std::vector<BitVec> &approx_results,
                      const BitVec &exact,
                      const ClusterParams &params = {},
                      std::vector<std::size_t> *assignments_out =
                      nullptr);

/**
 * cluster() through an IndexedClusterer: same contract and (in the
 * separated-fleet regime) same assignments, sublinear in the number
 * of clusters. The error-string and sketch precomputation runs on
 * @p pool, or on the process-global pool when it is null.
 */
FingerprintDb clusterIndexed(const std::vector<BitVec> &approx_results,
                             const BitVec &exact,
                             const ClusterParams &params = {},
                             const MinHashParams &index_params = {},
                             std::vector<std::size_t> *assignments_out =
                             nullptr,
                             ThreadPool *pool = nullptr);

} // namespace pcause

#endif // PCAUSE_CORE_CLUSTER_HH
