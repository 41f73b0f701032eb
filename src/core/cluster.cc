#include "core/cluster.hh"

#include "core/error_string.hh"
#include "core/scan.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

OnlineClusterer::OnlineClusterer(const ClusterParams &params)
    : prm(params)
{
}

std::size_t
OnlineClusterer::addErrorString(const BitVec &error_string)
{
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        const double d = distance(prm.metric, error_string,
                                  clusters[i].bits());
        if (d < prm.threshold) {
            // Algorithm 4 line 7: augment the matching cluster's
            // fingerprint by intersection.
            clusters[i].augment(error_string);
            history.push_back(i);
            return i;
        }
    }
    clusters.emplace_back(error_string);
    history.push_back(clusters.size() - 1);
    return clusters.size() - 1;
}

std::size_t
OnlineClusterer::add(const BitVec &approx, const BitVec &exact)
{
    return addErrorString(errorString(approx, exact));
}

const Fingerprint &
OnlineClusterer::fingerprint(std::size_t i) const
{
    PC_ASSERT(i < clusters.size(), "cluster index out of range");
    return clusters[i];
}

FingerprintDb
OnlineClusterer::toDatabase(const std::string &label_prefix) const
{
    FingerprintDb db;
    for (std::size_t i = 0; i < clusters.size(); ++i)
        db.add(label_prefix + std::to_string(i), clusters[i]);
    return db;
}

FingerprintDb
cluster(const std::vector<BitVec> &approx_results, const BitVec &exact,
        const ClusterParams &params,
        std::vector<std::size_t> *assignments_out)
{
    OnlineClusterer clusterer(params);
    for (const auto &approx : approx_results)
        clusterer.add(approx, exact);
    if (assignments_out)
        *assignments_out = clusterer.assignments();
    return clusterer.toDatabase();
}

IndexedClusterer::IndexedClusterer(const ClusterParams &params,
                                   const MinHashParams &index_params)
    : prm(params), lsh(index_params)
{
}

std::size_t
IndexedClusterer::augmentInto(std::size_t c, const BitVec &error_string)
{
    // Algorithm 4 line 7: intersect. Each position whose bit is
    // clear in the error string drops out, so the list stays sorted
    // and only ever shrinks. The index entry stays under the opening
    // output's keys (see the class comment).
    Cluster &cl = clusters.all[c];
    const auto &words = error_string.words();
    std::erase_if(cl.positions, [&](std::uint32_t p) {
        return ((words[p >> 6] >> (p & 63)) & 1) == 0;
    });
    ++cl.sources;
    ++counters.augments;
    history.push_back(c);
    return c;
}

std::size_t
IndexedClusterer::ingest(const BitVec &error_string,
                         const MinHashSignature &sig)
{
    detail::checkQueryBits(error_string, clusters);
    ++counters.outputs;

    // Every confirm evaluates the sparse distance at bound =
    // threshold: it is exact at or below the bound and certified
    // above it otherwise, so `< threshold` is the unbounded metric's
    // verdict, and therefore OnlineClusterer's. (scanStep's bound,
    // max(threshold, running nearest), would evaluate nearly every
    // rejected cluster in full to track a nearest cluster the
    // clusterer never reports.)
    const detail::SparseDistAt distAt{error_string, error_string.popcount(),
                                      clusters, prm.metric};
    const auto accepts = [&](std::size_t c) {
        bool pruned = false;
        return distAt(c, prm.threshold, &pruned) < prm.threshold;
    };

    // Shortlist clusters sharing a primary band bucket, confirmed
    // exactly in ascending id order — creation order, which is the
    // order the pairwise scan visits, so a shortlist accept lands in
    // the same cluster the pairwise scan's first sub-threshold hit
    // would in the separated regime.
    const std::vector<std::size_t> shortlist = lsh.candidates(sig);
    counters.candidatesScanned += shortlist.size();
    for (const std::size_t c : shortlist) {
        if (accepts(c))
            return augmentInto(c, error_string);
    }

    // No shortlisted cluster accepted: fall back to the bounded full
    // scan and return its verdict verbatim. Accept/reject is now
    // identical to the pairwise scan unconditionally — the index can
    // only have *missed* a matching cluster, never invented one.
    ++counters.fallbackScans;
    for (std::size_t c = 0; c < clusters.count(); ++c) {
        if (accepts(c))
            return augmentInto(c, error_string);
    }

    // Algorithm 4 miss: the error string opens a new cluster, whose
    // fingerprint *is* the error string, indexed for good under the
    // signature the output was shortlisted with. Every cluster holds
    // the same bit count, checked against this error string on entry.
    PC_ASSERT(error_string.size() <= (std::uint64_t{1} << 32),
              "IndexedClusterer: positions are 32-bit");
    clusters.all.push_back(
        {SparseBitset::fromBitVec(error_string).positions(), 1});
    clusters.universe = error_string.size();
    const std::size_t id = clusters.count() - 1;
    lsh.add(id, sig);
    ++counters.clustersOpened;
    history.push_back(id);
    return id;
}

std::size_t
IndexedClusterer::addErrorString(const BitVec &error_string)
{
    return ingest(error_string,
                  minhashSignature(error_string, lsh.params()));
}

std::size_t
IndexedClusterer::add(const BitVec &approx, const BitVec &exact)
{
    return addErrorString(errorString(approx, exact));
}

std::vector<std::size_t>
IndexedClusterer::addBatch(const std::vector<BitVec> &error_strings)
{
    // Signing is a pure function of (bits, params), so it fans out
    // across the pool; the ingest fold mutates cluster state and
    // stays strictly sequential, making the assignments identical to
    // serial addErrorString() calls in order.
    std::vector<MinHashSignature> sigs_in(error_strings.size());
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    pool.parallelFor(0, error_strings.size(), [&](std::size_t i) {
        sigs_in[i] = minhashSignature(error_strings[i], lsh.params());
    });
    std::vector<std::size_t> ids;
    ids.reserve(error_strings.size());
    for (std::size_t i = 0; i < error_strings.size(); ++i)
        ids.push_back(ingest(error_strings[i], sigs_in[i]));
    return ids;
}

Fingerprint
IndexedClusterer::fingerprint(std::size_t i) const
{
    PC_ASSERT(i < clusters.count(), "cluster index out of range");
    return Fingerprint(denseBits(clusters.view(i)),
                       clusters.all[i].sources);
}

FingerprintDb
IndexedClusterer::toDatabase(const std::string &label_prefix) const
{
    FingerprintDb db;
    for (std::size_t i = 0; i < clusters.count(); ++i)
        db.add(label_prefix + std::to_string(i), fingerprint(i));
    return db;
}

FingerprintDb
clusterIndexed(const std::vector<BitVec> &approx_results,
               const BitVec &exact, const ClusterParams &params,
               const MinHashParams &index_params,
               std::vector<std::size_t> *assignments_out,
               ThreadPool *pool)
{
    IndexedClusterer clusterer(params, index_params);
    clusterer.setThreadPool(pool);
    std::vector<BitVec> error_strings(approx_results.size());
    ThreadPool &workers = pool ? *pool : ThreadPool::global();
    workers.parallelFor(0, approx_results.size(), [&](std::size_t i) {
        error_strings[i] = errorString(approx_results[i], exact);
    });
    clusterer.addBatch(error_strings);
    if (assignments_out)
        *assignments_out = clusterer.assignments();
    return clusterer.toDatabase();
}

} // namespace pcause
