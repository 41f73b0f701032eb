/**
 * @file
 * The one exact scan every indexed Algorithm 2 query runs.
 *
 * Both stores keep fingerprints only as sparse position lists
 * (SparseFingerprintSource). Every exact scan over them — the LSH
 * shortlist, the reference linear scan, the mmap backend's
 * pool-sharded fallback and the in-memory store's overlap-count
 * fallback — evaluates one distance (SparseDistAt) and visits
 * records through one step (scanStep), so the bound handed to each
 * distance evaluation, the order the running nearest record moves,
 * and when a scan stops are one definition: the reason their
 * verdicts, distances and kernel counters agree. indexedQuery() is
 * the query body both stores share; they differ only in where
 * candidates come from and which full scan backs a miss. Internal to
 * core/: callers go through FingerprintStore, MappedStore or
 * AttackService.
 */

#ifndef PCAUSE_CORE_SCAN_HH
#define PCAUSE_CORE_SCAN_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/attack_stats.hh"
#include "core/identify.hh"
#include "core/minhash.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace pcause
{

class ThreadPool;

namespace detail
{

/** What one scan over a range (or list) of records learned. */
struct ScanOutcome
{
    /** Lowest record index under threshold, with its distance. */
    std::optional<std::size_t> match;
    double matchDist = 1.0;

    /** First record achieving the scan's minimum distance. */
    std::optional<std::size_t> nearest;
    double nearestDist = 1.0;

    /** Whether any distance fell under the threshold. */
    bool anyUnderThreshold = false;

    std::uint64_t computed = 0;
    std::uint64_t pruned = 0;
};

/**
 * The distance from a query error string to sparse record i, for
 * every metric. ModifiedJaccard runs the bounded sparse Algorithm 3
 * kernel (modifiedJaccardSparseBounded). Jaccard and Hamming count
 * the exact overlap (the miss-count kernel with limit = weight never
 * exits early) and derive the metric with overlapDistance(),
 * bit-identical to the dense metrics; they never prune.
 */
struct SparseDistAt
{
    const BitVec &es;
    /** Must equal es.popcount(): hashed once per query. */
    std::size_t esWeight;
    const SparseFingerprintSource &fps;
    DistanceMetric metric;

    double operator()(std::size_t i, double bound, bool *pruned) const
    {
        const SparseView v = fps.view(i);
        if (metric == DistanceMetric::ModifiedJaccard)
            return modifiedJaccardSparseBounded(es, esWeight, v, bound,
                                                pruned);
        PC_ASSERT(v.universe == es.size(), "distance: size mismatch");
        *pruned = false;
        const std::size_t misses = simd::sparseMissCountBounded(
            es.words().data(), v.positions, v.count, v.count);
        return overlapDistance(metric, esWeight, v.count,
                               v.count - misses, es.size());
    }
};

/**
 * One step of a scan: evaluate record @p i through the bounded
 * kernel @p distAt(i, bound, &pruned) and fold it into @p out. The
 * bound is max(threshold, running nearest distance): any distance
 * the unbounded serial scan would compare against the threshold or
 * use to update the running minimum is therefore computed exactly,
 * and a pruned evaluation returns a value already above both, so
 * verdicts and reported distances match the unbounded scan bit for
 * bit — for every kernel honoring that contract. Returns true when
 * @p i matched under the threshold (first-match scans stop there).
 */
template <typename DistAt>
bool
scanStep(std::size_t i, const IdentifyParams &params,
         const DistAt &distAt, ScanOutcome &out)
{
    const double bound =
        std::max(params.threshold, out.nearest ? out.nearestDist : 1.0);
    bool pruned = false;
    const double d = distAt(i, bound, &pruned);
    ++(pruned ? out.pruned : out.computed);
    if (!out.nearest || d < out.nearestDist) {
        out.nearest = i;
        out.nearestDist = d;
    }
    if (d < params.threshold) {
        out.anyUnderThreshold = true;
        if (!out.match) {
            out.match = i;
            out.matchDist = d;
        }
        return true;
    }
    return false;
}

/**
 * Scan records [begin, end) exactly as serial identify() visits
 * them, one scanStep() each.
 *
 * @p earliest_match, when non-null (first-match mode, sharded
 * scan), carries the lowest match index found by any shard; shards
 * whose remaining records all sit above it stop scanning, and a
 * shard finding a match publishes it.
 */
template <typename DistAt>
ScanOutcome
scanRangeT(std::size_t begin, std::size_t end,
           const IdentifyParams &params,
           std::atomic<std::size_t> *earliest_match,
           const DistAt &distAt)
{
    ScanOutcome out;
    for (std::size_t i = begin; i < end; ++i) {
        if (earliest_match &&
            earliest_match->load(std::memory_order_relaxed) < i)
            break;
        if (scanStep(i, params, distAt, out) && params.firstMatch) {
            if (earliest_match) {
                std::size_t cur =
                    earliest_match->load(std::memory_order_relaxed);
                while (i < cur &&
                       !earliest_match->compare_exchange_weak(
                           cur, i, std::memory_order_relaxed)) {
                }
            }
            break;
        }
    }
    return out;
}

/** Convert a whole-range ScanOutcome to the Algorithm 2 result. */
inline IdentifyResult
outcomeToResult(const ScanOutcome &out, const IdentifyParams &params)
{
    IdentifyResult res;
    if (params.firstMatch && out.match) {
        // Algorithm 2 line 4: the first hit is the verdict.
        res.match = out.match;
        res.nearest = out.match;
        res.bestDistance = out.matchDist;
        return res;
    }
    res.nearest = out.nearest;
    if (out.nearest)
        res.bestDistance = out.nearestDist;
    if (out.anyUnderThreshold)
        res.match = res.nearest;
    return res;
}

/** Add a scan's kernel counters to @p stats (when non-null). */
inline void
mergeScanCounters(AttackStats *stats, const ScanOutcome &out)
{
    if (stats) {
        stats->distancesComputed += out.computed;
        stats->distancesPruned += out.pruned;
    }
}

/**
 * Exact scan of every record of @p fps in id order. Serial when
 * @p pool is null, has one lane, or holds fewer than two records
 * per lane; otherwise sharded into contiguous ranges across
 * @p pool, each shard bounded by its own running nearest distance
 * and first-match shards stopping above the earliest match any
 * shard found. Either way the verdict, nearest record and distance
 * are the serial scan's bit for bit (docs/ALGORITHMS.md); only a
 * sharded scan's kernel counters differ. @p es_weight must equal
 * es.popcount(). Untimed; @p stats receives kernel counters.
 */
IdentifyResult sparseScan(const BitVec &es, std::size_t es_weight,
                          const SparseFingerprintSource &fps,
                          const IdentifyParams &params,
                          ThreadPool *pool, AttackStats *stats);

/**
 * The indexed Algorithm 2 body both stores run: sketch the query,
 * scan the shortlist @p candidates(sketch) returns in the order
 * given, and when it yields no accept return @p fallback(es_weight)
 * — an exact full scan — verbatim, which pins accept/reject to the
 * linear scan. Untimed; @p stats receives index and kernel
 * counters.
 */
template <typename Candidates, typename Fallback>
IdentifyResult
indexedQuery(const BitVec &es, const IdentifyParams &params,
             const MinHashParams &index_params,
             const SparseFingerprintSource &fps, AttackStats *stats,
             const Candidates &candidates, const Fallback &fallback)
{
    if (stats) {
        ++stats->indexQueries;
        stats->recordsAvailable += fps.count();
    }
    const std::vector<std::size_t> cand =
        candidates(minhashSketch(es, index_params));
    if (stats)
        stats->candidatesScanned += cand.size();

    // The query operand is hashed once here, never per candidate.
    const std::size_t es_weight = es.popcount();
    if (!cand.empty()) {
        const SparseDistAt distAt{es, es_weight, fps, params.metric};
        ScanOutcome out;
        for (const std::size_t i : cand) {
            if (scanStep(i, params, distAt, out) && params.firstMatch)
                break;
        }
        mergeScanCounters(stats, out);
        const IdentifyResult res = outcomeToResult(out, params);
        if (res.match)
            return res;
    }
    if (stats)
        ++stats->indexFallbacks;
    return fallback(es_weight);
}

/** Seconds elapsed since @p start. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
}

/**
 * The timing shell of every public store query: run @p body into
 * fresh counters, stamp its wall time as identify time exactly
 * once, and add the counters to @p stats (when non-null).
 */
template <typename Body>
IdentifyResult
timedQuery(AttackStats *stats, const Body &body)
{
    const auto start = std::chrono::steady_clock::now();
    AttackStats local;
    const IdentifyResult res = body(&local);
    local.identifySeconds = secondsSince(start);
    if (stats)
        *stats += local;
    return res;
}

/**
 * queryLinear() of both stores: the timed serial sparseScan() of
 * every record of @p fps, with recordsAvailable counted.
 */
IdentifyResult linearQuery(const BitVec &es,
                           const IdentifyParams &params,
                           const SparseFingerprintSource &fps,
                           AttackStats *stats);

} // namespace detail
} // namespace pcause

#endif // PCAUSE_CORE_SCAN_HH
