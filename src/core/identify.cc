// This TU *is* the deprecated surface.
#define PCAUSE_ALLOW_DEPRECATED_IDENTIFY
#include "core/identify.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/error_string.hh"
#include "core/scan.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

std::size_t
FingerprintDb::add(ChipLabel label, Fingerprint fp)
{
    records.push_back({std::move(label), std::move(fp)});
    return records.size() - 1;
}

const FingerprintRecord &
FingerprintDb::record(std::size_t i) const
{
    PC_ASSERT(i < records.size(), "FingerprintDb index out of range");
    return records[i];
}

FingerprintRecord &
FingerprintDb::record(std::size_t i)
{
    PC_ASSERT(i < records.size(), "FingerprintDb index out of range");
    return records[i];
}

namespace
{

using namespace detail;

/** Wall-clock scope timer accumulating into an AttackStats field. */
class PhaseTimer
{
  public:
    PhaseTimer(AttackStats *stats, double AttackStats::*field)
        : out(stats), member(field),
          start(std::chrono::steady_clock::now())
    {
    }

    ~PhaseTimer()
    {
        if (out) {
            out->*member += std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start).count();
        }
    }

  private:
    AttackStats *out;
    double AttackStats::*member;
    std::chrono::steady_clock::time_point start;
};

/**
 * Distance with the metric-appropriate kernel: the bounded
 * Algorithm 3 scan when the metric supports it, the plain metric
 * otherwise.
 */
double
boundedDistance(const IdentifyParams &params, const BitVec &es,
                std::size_t es_weight, const BitVec &fp, double bound,
                bool *pruned)
{
    if (params.metric == DistanceMetric::ModifiedJaccard)
        return modifiedJaccardBounded(es, es_weight, fp, bound,
                                      pruned);
    *pruned = false;
    return distance(params.metric, es, fp);
}

/**
 * scanRangeT() over an explicit index list instead of a contiguous
 * range: visits @p candidates in order through the same scanStep(),
 * so verdicts match a serial scan of a database containing exactly
 * those records in that order.
 */
template <typename DistAt>
ScanOutcome
scanIndicesT(const std::vector<std::size_t> &candidates,
             const IdentifyParams &params, const DistAt &distAt)
{
    ScanOutcome out;
    for (const std::size_t i : candidates) {
        if (scanStep(i, params, distAt, out) && params.firstMatch)
            break;
    }
    return out;
}

/**
 * Dense bounded kernel bound to a FingerprintDb record. The query
 * operand's popcount is hashed once at construction, not once per
 * candidate (mirroring SparseDistAt).
 */
struct DenseDistAt
{
    const BitVec &es;
    std::size_t esWeight;
    const FingerprintDb &db;
    const IdentifyParams &params;

    DenseDistAt(const BitVec &es_, const FingerprintDb &db_,
                const IdentifyParams &params_)
        : DenseDistAt(es_, es_.popcount(), db_, params_)
    {
    }

    DenseDistAt(const BitVec &es_, std::size_t es_weight,
                const FingerprintDb &db_,
                const IdentifyParams &params_)
        : es(es_), esWeight(es_weight), db(db_), params(params_)
    {
    }

    double operator()(std::size_t i, double bound,
                      bool *pruned) const
    {
        return boundedDistance(params, es, esWeight,
                               db.record(i).fingerprint.bits(),
                               bound, pruned);
    }
};

/** Sparse Algorithm 3 kernel bound to a position-arena record. */
struct SparseDistAt
{
    const BitVec &es;
    std::size_t esWeight;
    const SparseFingerprintSource &fps;

    double operator()(std::size_t i, double bound,
                      bool *pruned) const
    {
        return modifiedJaccardSparseBounded(es, esWeight,
                                            fps.view(i), bound,
                                            pruned);
    }
};

ScanOutcome
scanShard(const BitVec &es, const FingerprintDb &db,
          std::size_t begin, std::size_t end,
          const IdentifyParams &params,
          std::atomic<std::size_t> *earliest_match)
{
    return scanRangeT(begin, end, params, earliest_match,
                      DenseDistAt{es, db, params});
}

/**
 * Sharded full scan over records [0, n) with any bounded kernel:
 * the parallel core of identifyErrorStringParallel() /
 * identifySparseParallel(). Performs no timing of its own — public
 * entry points stamp wall time exactly once.
 */
template <typename DistAt>
IdentifyResult
parallelScanT(std::size_t n, const IdentifyParams &params,
              ThreadPool &pool, AttackStats *stats,
              const DistAt &distAt)
{
    // Sharding overhead beats the scan itself on tiny databases.
    if (pool.size() == 1 || n < 2 * pool.size()) {
        const ScanOutcome out =
            scanRangeT(0, n, params, nullptr, distAt);
        mergeScanCounters(stats, out);
        return outcomeToResult(out, params);
    }

    std::vector<ScanOutcome> shards(pool.size());
    std::atomic<std::size_t> earliest(
        std::numeric_limits<std::size_t>::max());
    pool.parallelChunks(
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

} // anonymous namespace

IdentifyResult
identifyErrorString(const BitVec &error_string, const FingerprintDb &db,
                    const IdentifyParams &params)
{
    IdentifyResult res;
    for (std::size_t i = 0; i < db.size(); ++i) {
        const double d = distance(params.metric, error_string,
                                  db.record(i).fingerprint.bits());
        if (!res.nearest || d < res.bestDistance) {
            res.nearest = i;
            res.bestDistance = d;
        }
        if (d < params.threshold) {
            if (params.firstMatch) {
                // Algorithm 2 line 4: return the first hit.
                res.match = i;
                res.bestDistance = d;
                res.nearest = i;
                return res;
            }
            res.match = res.nearest;
        }
    }
    if (res.match)
        res.match = res.nearest;
    return res;
}

IdentifyResult
identify(const BitVec &approx, const BitVec &exact,
         const FingerprintDb &db, const IdentifyParams &params)
{
    return identifyErrorString(errorString(approx, exact), db, params);
}

IdentifyResult
identifyWithData(const BitVec &approx, const BitVec &exact,
                 const DramConfig &config, const FingerprintDb &db,
                 const IdentifyParams &params)
{
    const BitVec es = errorString(approx, exact);
    const BitVec mask = maskableCells(exact, config);

    IdentifyResult res;
    for (std::size_t i = 0; i < db.size(); ++i) {
        const BitVec masked_fp =
            db.record(i).fingerprint.bits() & mask;
        if (masked_fp.none()) {
            // The data charges none of this fingerprint's cells:
            // the output carries no evidence about this chip either
            // way, so it must not match (an empty-vs-empty compare
            // would report distance zero).
            continue;
        }
        const double d = distance(params.metric, es, masked_fp);
        if (!res.nearest || d < res.bestDistance) {
            res.nearest = i;
            res.bestDistance = d;
        }
        if (d < params.threshold) {
            if (params.firstMatch) {
                res.match = i;
                res.bestDistance = d;
                res.nearest = i;
                return res;
            }
            res.match = res.nearest;
        }
    }
    if (res.match)
        res.match = res.nearest;
    return res;
}

IdentifyResult
identifyAmong(const BitVec &error_string, const FingerprintDb &db,
              const std::vector<std::size_t> &candidates,
              const IdentifyParams &params, AttackStats *stats)
{
    return identifyAmong(error_string, error_string.popcount(), db,
                         candidates, params, stats);
}

IdentifyResult
identifyAmong(const BitVec &error_string, std::size_t es_weight,
              const FingerprintDb &db,
              const std::vector<std::size_t> &candidates,
              const IdentifyParams &params, AttackStats *stats)
{
    const ScanOutcome out = scanIndicesT(
        candidates, params,
        DenseDistAt{error_string, es_weight, db, params});
    mergeScanCounters(stats, out);
    return outcomeToResult(out, params);
}

IdentifyResult
identifySparseAmong(const BitVec &error_string, std::size_t es_weight,
                    const SparseFingerprintSource &fps,
                    const std::vector<std::size_t> &candidates,
                    const IdentifyParams &params, AttackStats *stats)
{
    PC_ASSERT(params.metric == DistanceMetric::ModifiedJaccard,
              "identifySparseAmong: sparse kernel is ModifiedJaccard "
              "only");
    const ScanOutcome out = scanIndicesT(
        candidates, params,
        SparseDistAt{error_string, es_weight, fps});
    mergeScanCounters(stats, out);
    return outcomeToResult(out, params);
}

IdentifyResult
identifySparseBounded(const BitVec &error_string,
                      std::size_t es_weight,
                      const SparseFingerprintSource &fps,
                      const IdentifyParams &params, AttackStats *stats)
{
    PC_ASSERT(params.metric == DistanceMetric::ModifiedJaccard,
              "identifySparseBounded: sparse kernel is "
              "ModifiedJaccard only");
    const ScanOutcome out =
        scanRangeT(0, fps.count(), params, nullptr,
                   SparseDistAt{error_string, es_weight, fps});
    mergeScanCounters(stats, out);
    return outcomeToResult(out, params);
}

IdentifyResult
identifySparseParallel(const BitVec &error_string,
                       std::size_t es_weight,
                       const SparseFingerprintSource &fps,
                       const IdentifyParams &params, ThreadPool &pool,
                       AttackStats *stats)
{
    PC_ASSERT(params.metric == DistanceMetric::ModifiedJaccard,
              "identifySparseParallel: sparse kernel is "
              "ModifiedJaccard only");
    return parallelScanT(fps.count(), params, pool, stats,
                         SparseDistAt{error_string, es_weight, fps});
}

IdentifyResult
identifyErrorStringBounded(const BitVec &error_string,
                           const FingerprintDb &db,
                           const IdentifyParams &params,
                           AttackStats *stats)
{
    const ScanOutcome out =
        scanShard(error_string, db, 0, db.size(), params, nullptr);
    mergeScanCounters(stats, out);
    return outcomeToResult(out, params);
}

IdentifyResult
identifyErrorStringParallel(const BitVec &error_string,
                            const FingerprintDb &db,
                            const IdentifyParams &params,
                            ThreadPool &pool, AttackStats *stats)
{
    PhaseTimer timer(stats, &AttackStats::identifySeconds);
    return parallelScanT(db.size(), params, pool, stats,
                         DenseDistAt{error_string, db, params});
}

std::vector<IdentifyResult>
identifyErrorStringBatch(const std::vector<BitVec> &error_strings,
                         const FingerprintDb &db,
                         const IdentifyParams &params,
                         ThreadPool *pool, AttackStats *stats)
{
    if (!pool)
        pool = &ThreadPool::global();
    std::vector<IdentifyResult> results(error_strings.size());
    if (error_strings.empty())
        return results;

    // Few queries: shard the database scan itself. Many queries:
    // queries are independent, so spread them across the pool and
    // keep each scan serial (better locality, no merge step).
    if (error_strings.size() < pool->size()) {
        for (std::size_t q = 0; q < error_strings.size(); ++q) {
            results[q] = identifyErrorStringParallel(
                error_strings[q], db, params, *pool, stats);
        }
        return results;
    }

    PhaseTimer timer(stats, &AttackStats::identifySeconds);
    std::vector<ScanOutcome> totals(pool->size());
    pool->parallelChunks(
        0, error_strings.size(),
        [&](std::size_t b, std::size_t e, std::size_t c) {
            for (std::size_t q = b; q < e; ++q) {
                const ScanOutcome out = scanShard(
                    error_strings[q], db, 0, db.size(), params,
                    nullptr);
                results[q] = outcomeToResult(out, params);
                totals[c].computed += out.computed;
                totals[c].pruned += out.pruned;
            }
        });
    for (const auto &t : totals)
        mergeScanCounters(stats, t);
    return results;
}

std::vector<IdentifyResult>
identifyBatch(const std::vector<BitVec> &approx_outputs,
              const std::vector<BitVec> &exact_values,
              const FingerprintDb &db, const IdentifyParams &params,
              ThreadPool *pool, AttackStats *stats)
{
    PC_ASSERT(approx_outputs.size() == exact_values.size(),
              "identifyBatch: output/exact count mismatch");
    if (!pool)
        pool = &ThreadPool::global();
    std::vector<BitVec> error_strings(approx_outputs.size());
    pool->parallelFor(0, approx_outputs.size(), [&](std::size_t i) {
        error_strings[i] =
            errorString(approx_outputs[i], exact_values[i]);
    });
    return identifyErrorStringBatch(error_strings, db, params, pool,
                                    stats);
}

double
calibrateThreshold(const std::vector<double> &within_class,
                   const std::vector<double> &between_class)
{
    PC_ASSERT(!within_class.empty() && !between_class.empty(),
              "calibrateThreshold: need both classes");
    const double w_max =
        *std::max_element(within_class.begin(), within_class.end());
    const double b_min =
        *std::min_element(between_class.begin(), between_class.end());
    if (w_max < b_min) {
        // Separable: geometric midpoint keeps equal multiplicative
        // margin on both sides; guard the degenerate all-zero
        // within-class case.
        const double w_floor = std::max(w_max, 1e-9);
        return std::sqrt(w_floor * b_min);
    }

    // Overlapping classes (e.g. under a strong defense): no
    // threshold is clean, so return the one minimizing pooled
    // misclassifications — within-class samples at distance >= t
    // are missed matches, between-class samples at distance < t are
    // spurious matches. The error count is constant between
    // adjacent pooled values, so candidate thresholds are each
    // distinct pooled value plus one sentinel above the maximum.
    std::vector<double> candidates;
    candidates.reserve(within_class.size() + between_class.size() + 1);
    candidates.insert(candidates.end(), within_class.begin(),
                      within_class.end());
    candidates.insert(candidates.end(), between_class.begin(),
                      between_class.end());
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());
    candidates.push_back(candidates.back() * 2.0 + 1e-9);

    const auto errorsAt = [&](double t) {
        std::size_t errors = 0;
        for (double w : within_class)
            errors += w >= t;
        for (double b : between_class)
            errors += b < t;
        return errors;
    };

    double best_t = candidates.front();
    std::size_t best_errors = std::numeric_limits<std::size_t>::max();
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const std::size_t errors = errorsAt(candidates[k]);
        if (errors < best_errors) {
            best_errors = errors;
            // Any threshold in (previous value, candidate] yields
            // the same classification; report the midpoint of that
            // interval (geometric when possible, mirroring the
            // separable case) so the choice is not razor-edged.
            if (k == 0) {
                best_t = candidates[k];
            } else {
                const double lo = candidates[k - 1];
                const double hi = candidates[k];
                best_t = lo > 0.0 ? std::sqrt(lo * hi)
                                  : 0.5 * (lo + hi);
            }
        }
    }
    warn("calibrateThreshold: classes overlap (within max %.4f >= "
         "between min %.4f); best-effort threshold %.4f "
         "misclassifies %zu of %zu pooled samples",
         w_max, b_min, best_t, best_errors,
         within_class.size() + between_class.size());
    return best_t;
}

} // namespace pcause
