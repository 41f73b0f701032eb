/**
 * @file
 * The one query engine: the read half of both stores.
 *
 * QueryEngine<Store> is everything a store answers Algorithm 2 with
 * — candidates(), query(), queryFullScan() and queryLinear() —
 * written once over what each store supplies: its sparse records
 * (sparseFingerprints(), size()), its signature and banding
 * parameters (indexParams()), band b's slot arrays (bandSlots(b)),
 * and the one step that differs between memory and a mapped file,
 * counting every record's overlap with a query from the posting
 * lists (countOverlaps()). FingerprintStore and MappedStore derive
 * from it (CRTP: no virtual call is added), so a probe, a width
 * choice or a timing rule changes in one place for both.
 *
 * A query widens only on a miss: it scans the ids under every band's
 * primary key, then, only when none accepts, the ids under the
 * substitution keys that it has not scanned yet, then, only when
 * none of those accepts, every record (the exact fallback). A known
 * chip's record is nearly always under a primary key, so an accept
 * costs the 16 primary lookups, not all 80, while the fallback still
 * runs exactly when nothing the full multi-probe would shortlist is
 * under the threshold.
 *
 * Both stores keep fingerprints only as sparse position lists
 * (SparseFingerprintSource). Every exact scan over them — the LSH
 * shortlist, the reference linear scan and the overlap-count
 * fallback — visits records through one step (scanStep), so the
 * bound handed to each distance evaluation, the order the running
 * nearest record moves, and when a scan stops are one definition:
 * the reason their verdicts, distances and kernel counters agree.
 * The shortlist and the linear scan evaluate one distance
 * (SparseDistAt); the fallback derives the same distance from each
 * record's overlap count (overlapWalk). The detail helpers are
 * internal to core/: callers go through a store or AttackService.
 */

#ifndef PCAUSE_CORE_SCAN_HH
#define PCAUSE_CORE_SCAN_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/attack_stats.hh"
#include "core/distance.hh"
#include "core/identify.hh"
#include "core/minhash.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace pcause
{
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

/** Panic unless @p es has the bit count of @p fps's records, which
 *  share one: every public query checks it once, so no scan step
 *  checks it per record. */
inline void
checkQueryBits(const BitVec &es, const SparseFingerprintSource &fps)
{
    PC_ASSERT(fps.count() == 0 || fps.view(0).universe == es.size(),
              "distance: size mismatch");
}

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
        *pruned = false;
        const std::size_t misses = simd::sparseMissCountBounded(
            es.words().data(), v.positions, v.count, v.count);
        return overlapDistance(metric, esWeight, v.count,
                               v.count - misses, es.size());
    }
};

/**
 * The bound a scan hands its next distance evaluation:
 * max(threshold, running nearest distance), 1 before any record.
 */
inline double
scanBound(const IdentifyParams &params, const ScanOutcome &out)
{
    return std::max(params.threshold,
                    out.nearest ? out.nearestDist : 1.0);
}

/**
 * One step of a scan: evaluate record @p i through the bounded
 * kernel @p distAt(i, bound, &pruned) and fold it into @p out. The
 * bound is scanBound(): any distance the unbounded serial scan would
 * compare against the threshold or use to update the running
 * minimum is therefore computed exactly, and a pruned evaluation
 * returns a value already above both, so verdicts and reported
 * distances match the unbounded scan bit for bit — for every kernel
 * honoring that contract. Returns true when @p i matched under the
 * threshold (first-match scans stop there).
 */
template <typename DistAt>
bool
scanStep(std::size_t i, const IdentifyParams &params,
         const DistAt &distAt, ScanOutcome &out)
{
    bool pruned = false;
    const double d = distAt(i, scanBound(params, out), &pruned);
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
 * The walk of both stores' overlap-count fallback: every record of
 * @p fps in id order under the linear scan's rules, given
 * @p overlap[i], record i's exact overlap with @p es (whose weight
 * @p es_weight is). A bounded kernel prunes a record exactly when its
 * miss count exceeds boundedCountLimit(bound, lower weight), and
 * overlapDistance() derives the kernel's distance bit for bit, so
 * the verdict, nearest record, distance bits and computed/pruned
 * counters are the linear scan's.
 *
 * Almost every record of a reject sits far above the bound, so each
 * record is screened in fixed point first (PruneScreen) and the
 * screened-out ones count as pruned without a step: the screen only
 * drops records the exact rule prunes, and a pruned step changes
 * nothing but the pruned counter. The screen moves with the bound,
 * after a step; it admits everything while the bound is 1 or more,
 * and always for Jaccard and Hamming, which never prune. A screened
 * record reads only its weight and count (checkQueryBits() ran).
 *
 * @p Source needs count() and view(i), plus an unchecked weight(i)
 * (SparseFingerprintArena, MappedStore). A count above its record's
 * weight, which only a damaged mapped posting list can produce,
 * reads as the weight. Untimed; @p stats receives kernel counters.
 */
template <typename Count, typename Source>
IdentifyResult
overlapWalk(const BitVec &es, std::size_t es_weight, const Source &fps,
            const std::vector<Count> &overlap,
            const IdentifyParams &params, AttackStats *stats)
{
    const std::size_t universe = es.size();
    const bool bounded =
        params.metric == DistanceMetric::ModifiedJaccard;
    const auto distAt = [&](std::size_t i, double bound,
                            bool *pruned) {
        const SparseView v = fps.view(i);
        const std::size_t fp_weight = std::min(es_weight, v.count);
        const std::size_t common =
            std::min<std::size_t>(overlap[i], fp_weight);
        if (bounded && fp_weight > 0) {
            *pruned = fp_weight - common >
                      boundedCountLimit(bound, fp_weight);
            if (*pruned) {
                // Any value above the bound is all a pruned
                // evaluation promises; scanStep reads no more.
                return std::numeric_limits<double>::infinity();
            }
        }
        return overlapDistance(params.metric, es_weight, v.count,
                               common, universe);
    };

    ScanOutcome out;
    PruneScreen screen = pruneScreen(1.0);
    const std::size_t n = fps.count();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t fp_weight = std::min(es_weight, fps.weight(i));
        const std::size_t common =
            std::min<std::size_t>(overlap[i], fp_weight);
        if (screen.prunes(fp_weight - common, fp_weight)) {
            ++out.pruned;
            continue;
        }
        if (scanStep(i, params, distAt, out) && params.firstMatch)
            break;
        screen = pruneScreen(bounded ? scanBound(params, out) : 1.0);
    }
    mergeScanCounters(stats, out);
    return outcomeToResult(out, params);
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
 * queryLinear() of both stores: the timed serial scan of every
 * record of @p fps in id order, one scanStep() of SparseDistAt each,
 * with recordsAvailable counted, after checkQueryBits().
 */
IdentifyResult linearQuery(const BitVec &es,
                           const IdentifyParams &params,
                           const SparseFingerprintSource &fps,
                           AttackStats *stats);

} // namespace detail

/**
 * The read half of a store (see file comment). @p Store derives from
 * QueryEngine<Store> and supplies size(), sparseFingerprints() (a
 * source with the unchecked weight(i) overlapWalk reads),
 * indexParams(), bandSlots(band), and countOverlaps(es, overlap),
 * which adds to overlap[i] record i's exact overlap with @p es, for
 * 16- and 32-bit counters. Every public query is timed once
 * (detail::timedQuery): @p stats, when non-null, accumulates its
 * counters and its wall time. Each panics on an error string of
 * another bit count than the records' (detail::checkQueryBits()).
 */
template <typename Store>
class QueryEngine
{
  public:
    /**
     * Record ids sharing any probe bucket (lshProbeKeys) with
     * @p sketch in any band, ascending and deduplicated: every id
     * query() can scan before it falls back.
     */
    std::vector<std::size_t> candidates(const MinHashSketch &sketch) const;

    /**
     * Indexed Algorithm 2 from a precomputed error string, in three
     * stages, each run only when the one before yields no accept:
     * the exact bounded scan of the ids under every band's primary
     * key; the same scan of the ids under the substitution keys
     * (lshSubstitutionKeys) that the first stage did not scan; and
     * the exact full scan (queryFullScan()), whose result is
     * returned verbatim. So a query falls back exactly when no id of
     * candidates() is under the threshold. @p stats receives index
     * (ids scanned before any fallback, against database size;
     * fallbacks) and kernel counters.
     */
    IdentifyResult query(const BitVec &error_string,
                         const IdentifyParams &params = {},
                         AttackStats *stats = nullptr) const;

    /**
     * The exact full scan query() falls back to, on its own: every
     * record's overlap with the query counted from the posting
     * lists, then walked in id order under the linear scan's rules
     * (detail::overlapWalk). Verdict, nearest record, distance bits
     * and computed/pruned counters equal queryLinear()'s; @p stats
     * accumulates the same fields queryLinear() reports.
     */
    IdentifyResult queryFullScan(const BitVec &error_string,
                                 const IdentifyParams &params = {},
                                 AttackStats *stats = nullptr) const;

    /**
     * Reference linear Algorithm 2: the serial sparse scan over
     * every record, bit-identical in verdict, nearest record and
     * distance to identifyErrorString() — the baseline the index is
     * measured against.
     */
    IdentifyResult queryLinear(const BitVec &error_string,
                               const IdentifyParams &params = {},
                               AttackStats *stats = nullptr) const;

  private:
    const Store &self() const { return static_cast<const Store &>(*this); }

    /** LshIndex::probe() over this store's band tables, with
     *  @p keysOf(band, emit) naming each band's keys. */
    template <typename KeysOf>
    void probe(const KeysOf &keysOf, std::vector<std::size_t> &hits) const
    {
        const Store &s = self();
        LshIndex::probe(
            s.indexParams(), s.size(),
            [&](std::uint32_t band) { return s.bandSlots(band); }, keysOf,
            hits);
    }

    /** queryFullScan() untimed; @p es_weight must equal
     *  error_string.popcount(). */
    IdentifyResult fullScan(const BitVec &error_string,
                            std::size_t es_weight,
                            const IdentifyParams &params,
                            AttackStats *stats) const;
};

template <typename Store>
std::vector<std::size_t>
QueryEngine<Store>::candidates(const MinHashSketch &sketch) const
{
    const MinHashParams &prm = self().indexParams();
    PC_ASSERT(sketch.primary.size() == prm.numHashes &&
                  sketch.second.size() == prm.numHashes,
              "candidates: sketch length mismatch");
    std::vector<std::size_t> hits;
    probe(
        [&](std::uint32_t band, const auto &emit) {
            lshProbeKeys(prm, sketch, band, emit);
        },
        hits);
    return hits;
}

template <typename Store>
IdentifyResult
QueryEngine<Store>::query(const BitVec &error_string,
                          const IdentifyParams &params,
                          AttackStats *stats) const
{
    const auto &fps = self().sparseFingerprints();
    detail::checkQueryBits(error_string, fps);
    return detail::timedQuery(stats, [&](AttackStats *local) {
        const MinHashParams &prm = self().indexParams();
        ++local->indexQueries;
        local->recordsAvailable += fps.count();
        const MinHashSketch sketch = minhashSketch(error_string, prm);

        // The query operand is hashed once here, never per candidate.
        const std::size_t es_weight = error_string.popcount();
        const detail::SparseDistAt distAt{error_string, es_weight, fps,
                                          params.metric};
        detail::ScanOutcome out;
        std::vector<std::size_t> cand;
        cand.reserve(prm.bands);
        // Scan cand[from, end) in ascending id order into out; an id
        // under the threshold (out.anyUnderThreshold) decides the
        // query.
        const auto scanFrom = [&](std::size_t from) {
            local->candidatesScanned += cand.size() - from;
            for (std::size_t k = from; k < cand.size(); ++k) {
                if (detail::scanStep(cand[k], params, distAt, out) &&
                    params.firstMatch)
                    break;
            }
        };

        // Stage 1: the primary keys, which hold a known chip's record
        // on nearly every query.
        probe(
            [&](std::uint32_t band, const auto &emit) {
                emit(lshBandKey(prm, sketch.primary, band));
            },
            cand);
        scanFrom(0);
        if (!out.anyUnderThreshold) {
            // Stage 2: the substitution keys, minus the ids stage 1
            // scanned (a prefix of cand, ascending), so no id is
            // scanned twice.
            const std::size_t seen = cand.size();
            probe(
                [&](std::uint32_t band, const auto &emit) {
                    lshSubstitutionKeys(prm, sketch, band, emit);
                },
                cand);
            const auto scanned = [&](std::size_t id) {
                return std::binary_search(cand.begin(),
                                          cand.begin() + seen, id);
            };
            cand.erase(std::remove_if(cand.begin() + seen, cand.end(),
                                      scanned),
                       cand.end());
            scanFrom(seen);
        }
        detail::mergeScanCounters(local, out);
        if (out.anyUnderThreshold)
            return detail::outcomeToResult(out, params);
        // Stage 3: nothing in candidates() is under the threshold.
        ++local->indexFallbacks;
        return fullScan(error_string, es_weight, params, local);
    });
}

template <typename Store>
IdentifyResult
QueryEngine<Store>::queryFullScan(const BitVec &error_string,
                                  const IdentifyParams &params,
                                  AttackStats *stats) const
{
    detail::checkQueryBits(error_string, self().sparseFingerprints());
    return detail::timedQuery(stats, [&](AttackStats *local) {
        local->recordsAvailable += self().size();
        return fullScan(error_string, error_string.popcount(), params,
                        local);
    });
}

template <typename Store>
IdentifyResult
QueryEngine<Store>::queryLinear(const BitVec &error_string,
                                const IdentifyParams &params,
                                AttackStats *stats) const
{
    return detail::linearQuery(error_string, params,
                               self().sparseFingerprints(), stats);
}

template <typename Store>
IdentifyResult
QueryEngine<Store>::fullScan(const BitVec &error_string,
                             std::size_t es_weight,
                             const IdentifyParams &params,
                             AttackStats *stats) const
{
    const auto walk = [&](auto zero) {
        std::vector<decltype(zero)> overlap(self().size(), zero);
        self().countOverlaps(error_string, overlap);
        return detail::overlapWalk(error_string, es_weight,
                                   self().sparseFingerprints(), overlap,
                                   params, stats);
    };
    // An overlap never exceeds the query's weight, so 16-bit
    // counters serve every realistic query and halve the counting
    // traffic.
    return es_weight <= 0xffff ? walk(std::uint16_t{0})
                               : walk(std::uint32_t{0});
}

} // namespace pcause

#endif // PCAUSE_CORE_SCAN_HH
