/**
 * @file
 * Algorithm 4 (attack without pre-characterization) properties.
 *
 * Fleet campaigns come from the shared generator
 * (pcheck::genFleetCampaign): observations from well-separated
 * synthetic chips (disjoint fingerprint ranges, high bit-survival
 * rate) with retained ground truth, so the correct partition is
 * known; clustering must recover it from any presentation order —
 * the paper's attacker cannot control the order outputs arrive in.
 *
 * The IndexedClusterer properties pin what it claims: identical
 * assignments to the pairwise scan, fingerprints that only shrink
 * under augment-by-intersection while each cluster keeps the index
 * keys of the output that opened it, one cluster per chip in the
 * separated regime, partition stability under reordering, and a
 * discovered database whose FingerprintStore queries attribute every
 * member output back to its own cluster.
 */

#include "prop_common.hh"

#include <numeric>

#include "bench/bench_common.hh"
#include "core/cluster.hh"
#include "core/store.hh"

using namespace pcause;
using pcheck::Ctx;
using pcheck::FleetCampaign;
using pcheck::genFleetCampaign;

namespace
{

/** The properties' threshold regime: within-chip distances at
 *  keep=0.95 stay far below 0.4, cross-chip distances near 1. */
ClusterParams
propParams()
{
    ClusterParams p;
    p.threshold = 0.4;
    return p;
}

/** True when both labelings induce the same partition. */
bool
samePartition(const std::vector<std::size_t> &a,
              const std::vector<std::size_t> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = i + 1; j < a.size(); ++j)
            if ((a[i] == a[j]) != (b[i] == b[j]))
                return false;
    return true;
}

} // namespace

// ------------------------------------------------------------------
// Reference (pairwise) clusterer properties.
// ------------------------------------------------------------------

PCHECK_PROPERTY(PropCluster, RecoversGroundTruthPartition,
                [](Ctx &ctx) {
    const FleetCampaign in = genFleetCampaign(ctx, 4, 4);

    std::vector<std::size_t> assignments;
    // Zero exact value: the raw outputs ARE the error strings.
    const BitVec exact(in.universeBits);
    const FingerprintDb db =
        cluster(in.outputs, exact, propParams(), &assignments);
    PCHECK_EQ(assignments.size(), in.outputs.size());
    PCHECK_MSG(samePartition(assignments, in.chipOf),
               "clustering split or merged ground-truth chips");
    PCHECK_EQ(db.size(), in.chips);
})

PCHECK_PROPERTY(PropCluster, OnlineMatchesBatch, [](Ctx &ctx) {
    const FleetCampaign in = genFleetCampaign(ctx, 3, 4);

    OnlineClusterer online(propParams());
    for (const BitVec &es : in.outputs)
        online.addErrorString(es);
    std::vector<std::size_t> batchAssign;
    cluster(in.outputs, BitVec(in.universeBits), propParams(),
            &batchAssign);
    PCHECK_MSG(samePartition(online.assignments(), batchAssign),
               "incremental and batch clustering disagree");
})

// ------------------------------------------------------------------
// IndexedClusterer properties.
// ------------------------------------------------------------------

/**
 * The tentpole equivalence, under every metric: on randomized fleets
 * the indexed path assigns every output to exactly the cluster the
 * pairwise scan does — not just the same partition, the same cluster
 * ids, because both visit clusters in creation order and the index's
 * fallback scan returns the pairwise verdict verbatim. Each drawn
 * threshold keeps every metric where at most one cluster can sit
 * under it: 0 matches nothing; 0.4 and 0.9 sit above within-chip and
 * below cross-chip (modified) Jaccard distances, which are 1 for the
 * disjoint chips; 1 matches any overlap; 1.5 matches everything. The
 * fleet's Hamming distances all stay below 1/3, so Hamming above 0
 * puts every output in cluster 0.
 */
PCHECK_PROPERTY(PropCluster, IndexedMatchesPairwise, [](Ctx &ctx) {
    const FleetCampaign in = genFleetCampaign(ctx, 5, 5);
    ClusterParams params;
    params.metric = ctx.element<DistanceMetric>(
        {DistanceMetric::ModifiedJaccard, DistanceMetric::Jaccard,
         DistanceMetric::Hamming},
        "metric");
    params.threshold =
        ctx.element<double>({0.4, 0.0, 0.9, 1.0, 1.5}, "threshold");

    OnlineClusterer pairwise(params);
    IndexedClusterer indexed(params);
    for (const BitVec &es : in.outputs) {
        const std::size_t a = pairwise.addErrorString(es);
        const std::size_t b = indexed.addErrorString(es);
        PCHECK_EQ(a, b);
    }
    PCHECK_MSG(indexed.assignments() == pairwise.assignments(),
               "indexed and pairwise assignment histories differ");
    PCHECK_EQ(indexed.numClusters(), pairwise.numClusters());

    // The batch entry points agree with each other too.
    std::vector<std::size_t> viaBatch;
    std::vector<std::size_t> viaScan;
    const BitVec exact(in.universeBits);
    clusterIndexed(in.outputs, exact, params, MinHashParams{},
                   &viaBatch);
    cluster(in.outputs, exact, params, &viaScan);
    PCHECK_MSG(viaBatch == viaScan,
               "clusterIndexed() and cluster() assignments differ");
})

/**
 * Augment-by-intersection monotonicity: a cluster's fingerprint bits
 * only ever shrink, and the cluster stays indexed under the keys of
 * the output that opened it — after every ingest, re-sending any
 * cluster's opening output (to a copy of the clusterer) returns that
 * cluster from the shortlist, with no fallback.
 */
PCHECK_PROPERTY(PropCluster, AugmentOnlyShrinksAndKeepsItsKeys,
                [](Ctx &ctx) {
    const FleetCampaign in = genFleetCampaign(ctx, 3, 5);

    IndexedClusterer indexed(propParams());
    std::vector<BitVec> before; // fingerprint snapshot per cluster
    std::vector<std::size_t> opener; // output that opened each cluster
    for (std::size_t i = 0; i < in.outputs.size(); ++i) {
        const std::size_t c = indexed.addErrorString(in.outputs[i]);
        const BitVec now = indexed.fingerprint(c).bits();
        if (c < before.size()) {
            for (const std::size_t p : now.setBits())
                PCHECK_MSG(before[c].get(p),
                           "augment set a bit that was not already "
                           "in the cluster fingerprint");
            PCHECK_MSG(now.popcount() <= before[c].popcount(),
                       "augment grew the fingerprint weight");
            before[c] = now;
        } else {
            before.push_back(now);
            opener.push_back(i);
        }
        for (std::size_t k = 0; k < opener.size(); ++k) {
            IndexedClusterer copy = indexed;
            PCHECK_EQ(copy.addErrorString(in.outputs[opener[k]]), k);
            PCHECK_MSG(copy.stats().fallbackScans ==
                           indexed.stats().fallbackScans,
                       "a cluster's opening output took the fallback");
        }
    }
})

/**
 * One chip, one cluster: in the separated threshold regime the
 * discovered clusters are the fleet, exactly — purity 1, no chip
 * fragmented across clusters, cluster count equal to the fleet size.
 * Scored with the same purity/ARI oracle the campaign bench gates
 * on.
 */
PCHECK_PROPERTY(PropCluster, OneChipOneCluster, [](Ctx &ctx) {
    const FleetCampaign in = genFleetCampaign(ctx, 5, 5);

    IndexedClusterer indexed(propParams());
    indexed.addBatch(in.outputs);
    PCHECK_EQ(indexed.numClusters(), in.chips);
    const bench::PartitionScore score =
        bench::scorePartition(indexed.assignments(), in.chipOf);
    PCHECK_EQ(score.fragmentedClasses, std::size_t{0});
    PCHECK_MSG(score.purity == 1.0, "impure cluster in the "
                                    "separated regime");
    PCHECK_MSG(score.ari == 1.0, "partition differs from ground "
                                 "truth");
})

/**
 * Reordering the stream permutes cluster labels but cannot change
 * which outputs end up together: the partition is presentation-order
 * invariant in the separated regime.
 */
PCHECK_PROPERTY(PropCluster, ReorderingPermutesLabelsOnly,
                [](Ctx &ctx) {
    const FleetCampaign in = genFleetCampaign(ctx, 4, 4);

    // A second, tape-driven presentation order.
    std::vector<std::size_t> order(in.outputs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[ctx.below(i)]);
    std::vector<BitVec> shuffled;
    shuffled.reserve(order.size());
    for (const std::size_t i : order)
        shuffled.push_back(in.outputs[i]);

    IndexedClusterer first(propParams());
    first.addBatch(in.outputs);
    IndexedClusterer second(propParams());
    second.addBatch(shuffled);

    // Align the original assignments to the shuffled order and
    // compare as partitions (ids may differ, grouping may not).
    std::vector<std::size_t> aligned;
    aligned.reserve(order.size());
    for (const std::size_t i : order)
        aligned.push_back(first.assignments()[i]);
    PCHECK_MSG(samePartition(aligned, second.assignments()),
               "reordering the stream changed the partition");
})

/**
 * Round trip into identification: exporting the discovered clusters
 * as a database and querying every member output through the
 * FingerprintStore (the Algorithm 2 index) attributes each output to
 * its own cluster — the eavesdropper's database is immediately
 * usable for identification.
 */
PCHECK_PROPERTY(PropCluster, DatabaseRoundTripAttributesMembers,
                [](Ctx &ctx) {
    const FleetCampaign in = genFleetCampaign(ctx, 4, 4);

    IndexedClusterer indexed(propParams());
    const std::vector<std::size_t> assigned =
        indexed.addBatch(in.outputs);
    const FingerprintDb db = indexed.toDatabase();

    FingerprintStore store;
    for (std::size_t i = 0; i < db.size(); ++i) {
        const auto &rec = db.record(i);
        store.add(rec.label, rec.fingerprint);
    }

    IdentifyParams params;
    params.threshold = propParams().threshold;
    for (std::size_t i = 0; i < in.outputs.size(); ++i) {
        const IdentifyResult r = store.query(in.outputs[i], params);
        PCHECK_MSG(r.match.has_value(),
                   "a member output failed to identify against the "
                   "discovered database");
        PCHECK_EQ(*r.match, assigned[i]);
    }
})
