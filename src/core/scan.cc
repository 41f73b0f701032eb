#include "core/scan.hh"

#include <limits>

#include "util/thread_pool.hh"

namespace pcause::detail
{

IdentifyResult
sparseScan(const BitVec &es, std::size_t es_weight,
           const SparseFingerprintSource &fps,
           const IdentifyParams &params, ThreadPool *pool,
           AttackStats *stats)
{
    const std::size_t n = fps.count();
    const SparseDistAt distAt{es, es_weight, fps, params.metric};

    // Sharding overhead beats the scan itself on tiny databases.
    if (!pool || pool->size() == 1 || n < 2 * pool->size()) {
        const ScanOutcome out =
            scanRangeT(0, n, params, nullptr, distAt);
        mergeScanCounters(stats, out);
        return outcomeToResult(out, params);
    }

    std::vector<ScanOutcome> shards(pool->size());
    std::atomic<std::size_t> earliest(
        std::numeric_limits<std::size_t>::max());
    pool->parallelChunks(
        0, n,
        [&](std::size_t b, std::size_t e, std::size_t c) {
            shards[c] = scanRangeT(b, e, params,
                                   params.firstMatch ? &earliest
                                                     : nullptr,
                                   distAt);
        });

    for (const auto &s : shards)
        mergeScanCounters(stats, s);

    if (params.firstMatch) {
        // Shards cover ascending index ranges; records below the
        // first shard-local match were all scanned and missed, so
        // the lowest shard's match is exactly serial line 4's hit.
        for (const auto &s : shards) {
            if (s.match) {
                IdentifyResult res;
                res.match = s.match;
                res.nearest = s.match;
                res.bestDistance = s.matchDist;
                return res;
            }
        }
    }

    // Merge shard minima in ascending order with a strict compare,
    // reproducing the serial "first record achieving the minimum".
    ScanOutcome merged;
    for (const auto &s : shards) {
        if (s.nearest &&
            (!merged.nearest || s.nearestDist < merged.nearestDist)) {
            merged.nearest = s.nearest;
            merged.nearestDist = s.nearestDist;
        }
        merged.anyUnderThreshold |= s.anyUnderThreshold;
    }
    return outcomeToResult(merged, params);
}

IdentifyResult
linearQuery(const BitVec &es, const IdentifyParams &params,
            const SparseFingerprintSource &fps, AttackStats *stats)
{
    return timedQuery(stats, [&](AttackStats *local) {
        local->recordsAvailable += fps.count();
        return sparseScan(es, es.popcount(), fps, params, nullptr,
                          local);
    });
}

} // namespace pcause::detail
