/**
 * @file
 * The scan rules every exact Algorithm 2 scan shares.
 *
 * identify.cc's linear, sharded and shortlist scans and the store's
 * overlap-count scan visit records through one loop, so the bound
 * they hand each distance evaluation, the order they update the
 * running nearest record, and when they stop are one definition —
 * the reason their verdicts, distances and kernel counters agree.
 * Internal to core/: callers go through FingerprintStore or
 * AttackService.
 */

#ifndef PCAUSE_CORE_SCAN_HH
#define PCAUSE_CORE_SCAN_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>

#include "core/identify.hh"

namespace pcause::detail
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

} // namespace pcause::detail

#endif // PCAUSE_CORE_SCAN_HH
