#include "core/identify.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error_string.hh"
#include "util/logging.hh"

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

/**
 * Serial, unbounded Algorithm 2 over records [0, n): @p distanceOf(i)
 * is record i's distance, or nullopt to skip the record (a data mask
 * left none of its cells; see identifyWithData()).
 */
template <typename DistanceOf>
IdentifyResult
literalScan(std::size_t n, const IdentifyParams &params,
            const DistanceOf &distanceOf)
{
    IdentifyResult res;
    for (std::size_t i = 0; i < n; ++i) {
        const std::optional<double> d = distanceOf(i);
        if (!d)
            continue;
        if (!res.nearest || *d < res.bestDistance) {
            res.nearest = i;
            res.bestDistance = *d;
        }
        if (*d < params.threshold) {
            if (params.firstMatch) {
                // Algorithm 2 line 4: return the first hit.
                res.match = i;
                res.bestDistance = *d;
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

} // anonymous namespace

IdentifyResult
identifyErrorString(const BitVec &error_string, const FingerprintDb &db,
                    const IdentifyParams &params)
{
    return literalScan(
        db.size(), params, [&](std::size_t i) -> std::optional<double> {
            return distance(params.metric, error_string,
                            db.record(i).fingerprint.bits());
        });
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
    return literalScan(
        db.size(), params, [&](std::size_t i) -> std::optional<double> {
            const BitVec masked_fp =
                db.record(i).fingerprint.bits() & mask;
            if (masked_fp.none()) {
                // The data charges none of this fingerprint's cells:
                // the output carries no evidence about this chip
                // either way, so it must not match (an
                // empty-vs-empty compare would report distance 0).
                return std::nullopt;
            }
            return distance(params.metric, es, masked_fp);
        });
}

IdentifyResult
identifyWithData(const BitVec &approx, const BitVec &exact,
                 const DramConfig &config,
                 const SparseFingerprintSource &fps,
                 const IdentifyParams &params)
{
    const BitVec es = errorString(approx, exact);
    const BitVec mask = maskableCells(exact, config);
    const std::size_t es_weight = es.popcount();
    return literalScan(
        fps.count(), params, [&](std::size_t i) -> std::optional<double> {
            const SparseView v = fps.view(i);
            PC_ASSERT(v.universe == es.size(), "distance: size mismatch");
            std::size_t masked = 0, overlap = 0;
            for (std::size_t k = 0; k < v.count; ++k) {
                if (mask.get(v.positions[k])) {
                    ++masked;
                    overlap += es.get(v.positions[k]);
                }
            }
            if (masked == 0)
                return std::nullopt;
            return overlapDistance(params.metric, es_weight, masked,
                                   overlap, es.size());
        });
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
