#include "core/scan.hh"

namespace pcause::detail
{

IdentifyResult
linearQuery(const BitVec &es, const IdentifyParams &params,
            const SparseFingerprintSource &fps, AttackStats *stats)
{
    checkQueryBits(es, fps);
    return timedQuery(stats, [&](AttackStats *local) {
        local->recordsAvailable += fps.count();
        const SparseDistAt distAt{es, es.popcount(), fps,
                                  params.metric};
        ScanOutcome out;
        const std::size_t n = fps.count();
        for (std::size_t i = 0; i < n; ++i) {
            if (scanStep(i, params, distAt, out) && params.firstMatch)
                break;
        }
        mergeScanCounters(local, out);
        return outcomeToResult(out, params);
    });
}

} // namespace pcause::detail
