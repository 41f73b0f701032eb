/**
 * @file
 * MinHash / LSH layer properties: signatures are pure functions of
 * the bit set and the parameters, the dense and sparse signing walks
 * agree bit for bit, each row agrees between two sets at their
 * Jaccard similarity (densified rows included), similarity
 * is a bounded symmetric estimate that is exactly 1 for identical
 * sets, and the candidate
 * index never loses an exact duplicate — the recall floor the
 * store's accept/reject equivalence stands on. The flat band tables
 * behave as a per-band std::multimap under any sequence of adds and
 * bulk adds.
 */

#include "prop_common.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/minhash.hh"
#include "util/rng.hh"
#include "util/sparse_bitset.hh"
#include "util/thread_pool.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

MinHashParams
genParams(Ctx &ctx)
{
    MinHashParams mh;
    mh.numHashes = static_cast<std::uint32_t>(
        8u << ctx.sizeRange(0, 2, "hashes_log8"));
    const std::uint32_t divisors[] = {1, 2, 4, 8};
    mh.bands = mh.numHashes / divisors[ctx.sizeRange(0, 3, "rows")];
    mh.seed = ctx.bits("seed");
    return mh;
}

} // namespace

PCHECK_PROPERTY(PropMinhash, SignaturePureAndSized, [](Ctx &ctx) {
    const MinHashParams mh = genParams(ctx);
    const std::size_t nbits = ctx.sizeRange(1, 512, "nbits");
    BitVec bits = pcheck::genBitVec(ctx, nbits, 2);
    // The cells either side of a word edge and the last cell, where
    // the dense walk's per-word stream base and the sparse walk's
    // per-position step could part.
    for (const std::size_t p : {std::size_t{63}, std::size_t{64},
                                std::size_t{65}, nbits - 1}) {
        if (p < nbits && ctx.boolean(0.5, "edge_cell"))
            bits.set(p);
    }

    const MinHashSignature sig = minhashSignature(bits, mh);
    PCHECK_EQ(sig.size(), static_cast<std::size_t>(mh.numHashes));
    // Pure: recomputation and copies agree exactly.
    PCHECK(sig == minhashSignature(bits, mh));
    PCHECK(sig == minhashSignature(BitVec(bits), mh));
    // The sparse entry on the same set's positions signs bit for bit
    // as the dense walk.
    const SparseBitset sp = SparseBitset::fromBitVec(bits);
    PCHECK(sig == minhashSignature(SparseView{sp.positions().data(),
                                              sp.count(), sp.universe()},
                                   mh));
    // The sketch's primary is the signature, its second never below.
    const MinHashSketch sk = minhashSketch(bits, mh);
    PCHECK(sk.primary == sig);
    for (std::size_t j = 0; j < sig.size(); ++j)
        PCHECK(sk.second[j] >= sk.primary[j]);
    // The empty set signs to all-ones sentinels.
    if (bits.popcount() == 0)
        PCHECK(sig == MinHashSignature(mh.numHashes, ~std::uint32_t{0}));
})

/**
 * One-permutation signing keeps every row an unbiased estimator of
 * the Jaccard similarity, sparse sets included: with 8 cells in 64
 * bins most rows are densified copies. Over sampled pairs of a known
 * overlap, the mean per-row agreement must lie within a binomial
 * confidence interval of the exact Jaccard J. The sample unit is the
 * signature pair (its rows are not independent); one pair's
 * agreement fraction lies in [0, 1] with mean J, so its variance is
 * at most J(1 - J), the binomial one.
 */
PCHECK_PROPERTY(PropMinhash, RowCollisionRateMatchesJaccard, 8,
                [](Ctx &ctx) {
    constexpr std::size_t universe = 8192;
    constexpr std::size_t pairs = 3000;
    constexpr double z = 4.0;
    MinHashParams mh;
    const std::uint32_t ks[] = {16, 32, 48, 64};
    mh.numHashes = ks[ctx.sizeRange(0, 3, "k")];
    mh.bands = mh.numHashes / 4;
    mh.seed = ctx.bits("seed");
    const std::size_t weights[] = {8, 24, 64, 256};
    const std::size_t weight = weights[ctx.sizeRange(0, 3, "weight")];
    // |A| = |B| = weight around a shared core: J = shared / |A u B|.
    const std::size_t shared =
        ctx.sizeRange(weight / 4, weight - 1, "shared");
    const std::size_t cells = 2 * weight - shared;
    const double j = static_cast<double>(shared) /
                     static_cast<double>(cells);

    Rng rng(ctx.bits("sample_seed"));
    double agree = 0.0;
    for (std::size_t t = 0; t < pairs; ++t) {
        BitVec a(universe), b(universe), taken(universe);
        for (std::size_t drawn = 0; drawn < cells;) {
            const std::size_t p = rng.nextBelow(universe);
            if (taken.get(p))
                continue;
            taken.set(p);
            if (drawn < weight)
                a.set(p);
            if (drawn < shared || drawn >= weight)
                b.set(p);
            ++drawn;
        }
        agree += signatureSimilarity(minhashSignature(a, mh),
                                     minhashSignature(b, mh));
    }
    const double mean = agree / static_cast<double>(pairs);
    const double se =
        std::sqrt(j * (1.0 - j) / static_cast<double>(pairs));
    PCHECK_MSG(std::abs(mean - j) <= z * se,
               "row agreement " + std::to_string(mean) + " vs J " +
                   std::to_string(j) + " (SE " + std::to_string(se) +
                   ", weight " + std::to_string(weight) + ", k " +
                   std::to_string(mh.numHashes) + ")");
})

PCHECK_PROPERTY(PropMinhash, SimilarityIsBoundedAndSymmetric,
                [](Ctx &ctx) {
    const MinHashParams mh = genParams(ctx);
    const std::size_t nbits = ctx.sizeRange(1, 512, "nbits");
    const BitVec a = pcheck::genBitVec(ctx, nbits, 2);
    const BitVec b = pcheck::genBitVec(ctx, nbits, 2);
    const MinHashSignature sa = minhashSignature(a, mh);
    const MinHashSignature sb = minhashSignature(b, mh);

    const double s = signatureSimilarity(sa, sb);
    PCHECK_MSG(s >= 0.0 && s <= 1.0, "similarity out of [0, 1]");
    PCHECK_EQ(s, signatureSimilarity(sb, sa));
    PCHECK_EQ(signatureSimilarity(sa, sa), 1.0);
})

PCHECK_PROPERTY(PropMinhash, DuplicateSetsAlwaysCandidates,
                [](Ctx &ctx) {
    const MinHashParams mh = genParams(ctx);
    LshIndex index(mh);
    const std::size_t nbits = ctx.sizeRange(1, 256, "nbits");
    const std::size_t records = ctx.sizeRange(1, 8, "records");
    std::vector<BitVec> sets;
    for (std::size_t r = 0; r < records; ++r) {
        sets.push_back(pcheck::genBitVec(ctx, nbits, 2));
        index.add(r, minhashSignature(sets.back(), mh));
    }

    const std::size_t probe = ctx.sizeRange(0, records - 1, "probe");
    const std::vector<std::size_t> hits =
        index.candidates(minhashSignature(sets[probe], mh));
    // An identical set shares every band bucket: recall 1 on
    // duplicates, whatever the banding.
    bool found = false;
    for (std::size_t h : hits)
        found = found || h == probe;
    PCHECK_MSG(found, "exact duplicate missing from the shortlist");
    // Shortlists are ascending and deduplicated.
    for (std::size_t i = 1; i < hits.size(); ++i)
        PCHECK(hits[i - 1] < hits[i]);
})

namespace
{

/** Reference model of an LshIndex: one std::multimap per band. */
using BandModel = std::multimap<std::uint64_t, std::uint32_t>;

/** A signature over a tiny value alphabet, so buckets collide. */
MinHashSignature
genCollidingSignature(Ctx &ctx, const MinHashParams &mh)
{
    MinHashSignature sig(mh.numHashes);
    const bool wide = ctx.boolean(0.2, "wide_values");
    for (std::uint32_t &v : sig) {
        v = wide ? static_cast<std::uint32_t>(ctx.bits("value"))
                 : static_cast<std::uint32_t>(ctx.below(3, "value"));
    }
    return sig;
}

std::vector<std::size_t>
modelCandidates(const MinHashParams &mh,
                const std::vector<BandModel> &model,
                const MinHashSketch &sketch, bool multi_probe)
{
    std::vector<std::size_t> ids;
    const std::uint32_t rows = mh.rows();
    for (std::uint32_t band = 0; band < mh.bands; ++band) {
        // The primary key, then (multi-probe) the key of the
        // signature with one row's second minimum in place of its
        // minimum, row by row, where the two differ, up to the probe
        // budget.
        std::vector<std::uint64_t> keys{
            lshBandKey(mh, sketch.primary, band)};
        for (std::uint32_t row = 0;
             multi_probe && row < rows && keys.size() < mh.effectiveProbes();
             ++row) {
            const std::uint32_t at = band * rows + row;
            if (sketch.second[at] == sketch.primary[at])
                continue;
            MinHashSignature substituted = sketch.primary;
            substituted[at] = sketch.second[at];
            keys.push_back(lshBandKey(mh, substituted, band));
        }
        for (const std::uint64_t key : keys) {
            const auto [lo, hi] = model[band].equal_range(key);
            for (auto it = lo; it != hi; ++it)
                ids.push_back(it->second);
        }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

} // namespace

PCHECK_PROPERTY(PropMinhash, FlatIndexMatchesMultimapModel,
                [](Ctx &ctx) {
    static ThreadPool pool(4);
    MinHashParams mh;
    mh.numHashes = 8u << ctx.sizeRange(0, 1, "hashes_log8");
    const std::uint32_t rows[] = {1, 2, 4, 8};
    mh.bands = mh.numHashes / rows[ctx.sizeRange(0, 3, "rows")];
    mh.seed = ctx.bits("seed");
    mh.probes = static_cast<std::uint32_t>(
        ctx.sizeRange(1, 5, "probes"));
    LshIndex index(mh);
    std::vector<BandModel> model(mh.bands);
    std::vector<MinHashSignature> sigs;

    const auto indexModel = [&](std::size_t id,
                                const MinHashSignature &sig) {
        for (std::uint32_t band = 0; band < mh.bands; ++band) {
            model[band].emplace(lshBandKey(mh, sig, band),
                                static_cast<std::uint32_t>(id));
        }
    };

    const std::size_t ops = ctx.sizeRange(1, 24, "ops");
    for (std::size_t op = 0; op < ops; ++op) {
        switch (ctx.sizeRange(0, 1, "op")) {
          case 0: { // add
            sigs.push_back(genCollidingSignature(ctx, mh));
            index.add(sigs.size() - 1, sigs.back());
            indexModel(sigs.size() - 1, sigs.back());
            break;
          }
          default: { // addAll, serial or band-sharded
            const std::size_t first = sigs.size();
            std::vector<MinHashSignature> batch(
                ctx.sizeRange(0, 40, "batch"));
            for (MinHashSignature &sig : batch)
                sig = genCollidingSignature(ctx, mh);
            index.addAll(first, batch,
                         ctx.boolean(0.5, "pool") ? &pool : nullptr);
            for (MinHashSignature &sig : batch) {
                indexModel(sigs.size(), sig);
                sigs.push_back(std::move(sig));
            }
            break;
          }
        }
    }

    PCHECK_EQ(index.size(), sigs.size());
    LshIndex::Occupancy want;
    for (std::uint32_t band = 0; band < mh.bands; ++band) {
        std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted(
            model[band].begin(), model[band].end());
        std::sort(sorted.begin(), sorted.end());
        PCHECK(index.bandEntries(band) == sorted);
        for (auto it = model[band].begin(); it != model[band].end();
             it = model[band].upper_bound(it->first)) {
            ++want.buckets;
            want.largestBucket =
                std::max(want.largestBucket, model[band].count(it->first));
        }
    }
    const LshIndex::Occupancy got = index.occupancy();
    PCHECK_EQ(got.buckets, want.buckets);
    PCHECK_EQ(got.largestBucket, want.largestBucket);

    // Probes: every stored signature, plus fresh ones.
    const std::size_t probes = ctx.sizeRange(1, 4, "probes_run");
    for (std::size_t q = 0; q < probes; ++q) {
        MinHashSketch sketch;
        sketch.primary =
            !sigs.empty() && ctx.boolean(0.5, "stored_probe")
                ? sigs[ctx.below(sigs.size(), "probe_id")]
                : genCollidingSignature(ctx, mh);
        sketch.second = genCollidingSignature(ctx, mh);
        PCHECK(index.candidates(sketch.primary) ==
               modelCandidates(mh, model, sketch, false));
        PCHECK(index.candidates(sketch) ==
               modelCandidates(mh, model, sketch, true));
    }
})
