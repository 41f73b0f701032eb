/**
 * @file
 * The SIMD dispatch layer's bit-exactness contract, pinned per
 * kernel and end to end: every dispatch level this CPU can run must
 * return exactly what the scalar path returns — identical counts,
 * identical bounded sparse-scan early exits (including the partial
 * count a pruned scan reports), identical decay masks. On a machine
 * without AVX the properties degenerate to scalar-vs-scalar and
 * still pass; on AVX hardware they are the differential test that
 * lets every verdict-affecting loop run vectorized (see
 * util/simd.hh).
 */

#include "prop_common.hh"

#include <cstring>

#include "core/distance.hh"
#include "dram/dram_chip.hh"
#include "util/bitvec.hh"
#include "util/simd.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

/** Every dispatch level the running CPU supports (scalar first). */
std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> out;
    for (simd::Level lvl : {simd::Level::Scalar, simd::Level::Avx2,
                            simd::Level::Avx512}) {
        if (simd::levelAvailable(lvl))
            out.push_back(lvl);
    }
    return out;
}

/** Restore the globally active level on scope exit (pcheck failures
 *  throw, and a leaked forced level would poison later tests). */
struct LevelGuard
{
    simd::Level saved = simd::activeLevel();
    ~LevelGuard() { simd::selectLevel(simd::levelName(saved)); }
};

} // anonymous namespace

PCHECK_PROPERTY(PropSimd, CountKernelsAgreeAcrossLevels, [](Ctx &ctx) {
    // Sizes sweep 0..several vector widths so every remainder path
    // (full 512-bit blocks, 256-bit tail, scalar tail) is hit.
    const std::size_t nbits = ctx.sizeRange(0, 2600, "nbits");
    const BitVec a = pcheck::genBitVec(ctx, nbits);
    const BitVec b = pcheck::genBitVec(ctx, nbits, 1);
    const std::uint64_t *wa = a.words().data();
    const std::uint64_t *wb = b.words().data();
    const std::size_t n = a.words().size();

    const std::size_t pop =
        simd::popcountWords(wa, n, simd::Level::Scalar);
    const std::size_t land =
        simd::andCountWords(wa, wb, n, simd::Level::Scalar);
    const std::size_t andnot =
        simd::andNotCountWords(wa, wb, n, simd::Level::Scalar);
    const std::size_t lxor =
        simd::xorCountWords(wa, wb, n, simd::Level::Scalar);

    for (simd::Level lvl : availableLevels()) {
        PCHECK_EQ(simd::popcountWords(wa, n, lvl), pop);
        PCHECK_EQ(simd::andCountWords(wa, wb, n, lvl), land);
        PCHECK_EQ(simd::andNotCountWords(wa, wb, n, lvl), andnot);
        PCHECK_EQ(simd::xorCountWords(wa, wb, n, lvl), lxor);
    }
})

PCHECK_PROPERTY(PropSimd, SparseKernelsAgreeAcrossLevels, [](Ctx &ctx) {
    const std::size_t nbits = ctx.sizeRange(64, 4096, "nbits");
    const BitVec dense = pcheck::genBitVec(ctx, nbits, 1);
    const std::size_t weight =
        ctx.sizeRange(0, std::min<std::size_t>(nbits, 600), "weight");
    const BitVec sparse_bits =
        pcheck::genSparseBitVec(ctx, nbits, weight);
    std::vector<std::uint32_t> pos;
    pos.reserve(weight);
    for (std::size_t p : sparse_bits.setBits())
        pos.push_back(static_cast<std::uint32_t>(p));

    const std::uint64_t *words = dense.words().data();
    const std::size_t n = pos.size();
    const std::size_t es_weight = dense.popcount();
    const std::vector<simd::Level> levels = availableLevels();

    const auto checkLimit = [&](std::size_t limit) {
        const std::size_t miss_ref = simd::sparseMissCountBounded(
            words, pos.data(), n, limit, simd::Level::Scalar);
        const simd::SparseInterScan inter_ref =
            simd::sparseInterCountBounded(words, pos.data(), n,
                                          es_weight, limit,
                                          simd::Level::Scalar);
        for (simd::Level lvl : levels) {
            PCHECK_EQ(simd::sparseMissCountBounded(words, pos.data(),
                                                   n, limit, lvl),
                      miss_ref);
            const simd::SparseInterScan got =
                simd::sparseInterCountBounded(words, pos.data(), n,
                                              es_weight, limit, lvl);
            PCHECK_EQ(got.inter, inter_ref.inter);
            PCHECK_EQ(got.scanned, inter_ref.scanned);
        }
    };

    checkLimit(ctx.sizeRange(0, nbits, "limit"));
    // Pin the block-boundary decisions: the running miss count at
    // every bound-check edge, +-1.
    std::size_t miss_prefix = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % simd::boundedBlock == 0) {
            for (std::size_t limit :
                 {miss_prefix - std::min<std::size_t>(miss_prefix, 1),
                  miss_prefix, miss_prefix + 1})
                checkLimit(limit);
        }
        miss_prefix += !dense.get(pos[i]);
    }
    checkLimit(miss_prefix - std::min<std::size_t>(miss_prefix, 1));
    checkLimit(miss_prefix);
    checkLimit(miss_prefix + 1);
})

PCHECK_PROPERTY(PropSimd, ChargedWordsAgreeAcrossLevels, [](Ctx &ctx) {
    const std::size_t n = ctx.sizeRange(0, 300, "n");
    std::vector<std::uint64_t> content(n);
    std::vector<float> word_min(n);
    // Retentions drawn from a tiny discrete set and the stress drawn
    // from the same set: the stress == word-min equality edge (kept
    // by the >= compare) actually occurs instead of never.
    const std::vector<float> ticks{0.0f, 0.5f, 1.0f, 1.5f, 2.0f};
    for (std::size_t i = 0; i < n; ++i) {
        content[i] = ctx.bits();
        word_min[i] = ctx.element(ticks);
    }
    const double stress = ctx.element(ticks, "stress");
    const std::uint64_t defw = ctx.boolean(0.5, "defw") ? ~0ull : 0ull;

    std::vector<std::uint64_t> ref(n, 0xdeadbeefull);
    const std::size_t ref_nonzero = simd::buildChargedWords(
        content.data(), n, defw, word_min.data(), stress, ref.data(),
        simd::Level::Scalar);

    for (simd::Level lvl : availableLevels()) {
        std::vector<std::uint64_t> out(n, 0xfeedfaceull);
        const std::size_t nonzero = simd::buildChargedWords(
            content.data(), n, defw, word_min.data(), stress,
            out.data(), lvl);
        PCHECK_EQ(nonzero, ref_nonzero);
        PCHECK(std::memcmp(out.data(), ref.data(),
                           n * sizeof(std::uint64_t)) == 0);
    }
})

PCHECK_PROPERTY(PropSimd, DistancePipelineAgreesAcrossLevels,
                [](Ctx &ctx) {
    // End to end through the public Algorithm 3 entry points: the
    // dispatch level must not move a distance or a prune flag, and
    // every level must honor the bounded contract against the
    // unbounded dense reference.
    const std::size_t nbits = ctx.sizeRange(64, 2048, "nbits");
    const BitVec es = pcheck::genBitVec(ctx, nbits, 1);
    const std::size_t weight =
        ctx.sizeRange(1, std::min<std::size_t>(nbits, 400), "weight");
    const BitVec fp = pcheck::genSparseBitVec(ctx, nbits, weight);
    const double bound = ctx.unit("bound");

    std::vector<std::uint32_t> pos;
    for (std::size_t p : fp.setBits())
        pos.push_back(static_cast<std::uint32_t>(p));
    const SparseView view{pos.data(), pos.size(),
                          static_cast<std::uint64_t>(nbits)};

    LevelGuard guard;
    const double exact = modifiedJaccard(es, fp);
    double sparse_ref = 0.0;
    bool sparse_pruned_ref = false;
    bool first = true;
    for (simd::Level lvl : availableLevels()) {
        PCHECK(simd::selectLevel(simd::levelName(lvl)).empty());
        bool sparse_pruned = false;
        const double sparse = modifiedJaccardSparseBounded(
            es, es.popcount(), view, bound, &sparse_pruned);
        if (first) {
            sparse_ref = sparse;
            sparse_pruned_ref = sparse_pruned;
            first = false;
            // The scalar reference itself against the unbounded
            // metric: exact within the bound, certified above it.
            if (exact <= bound) {
                PCHECK(!sparse_pruned);
                PCHECK_EQ(sparse, exact);
            } else {
                PCHECK(sparse > bound && sparse <= exact);
            }
        } else {
            PCHECK_EQ(sparse, sparse_ref);
            PCHECK_EQ(sparse_pruned, sparse_pruned_ref);
        }
    }
})

PCHECK_PROPERTY(PropSimd, DecayEngineAgreesAcrossLevels, [](Ctx &ctx) {
    // The chip's decay masks route interior words through
    // buildChargedWords; a forced level must reproduce the scalar
    // peek bit for bit.
    DramChip chip = pcheck::genChip(ctx);
    const BitVec pattern =
        pcheck::genBitVec(ctx, chip.size(), ctx.boolean() ? 0 : 1);
    const std::uint64_t trial_key = ctx.bits("trial_key");
    const Seconds dt = ctx.range(0.0, 4.0, "dt");

    LevelGuard guard;
    PCHECK(simd::selectLevel("scalar").empty());
    const BitVec ref = chip.trialPeek(pattern, trial_key, dt, 45.0);
    for (simd::Level lvl : availableLevels()) {
        PCHECK(simd::selectLevel(simd::levelName(lvl)).empty());
        const BitVec got =
            chip.trialPeek(pattern, trial_key, dt, 45.0);
        PCHECK_MSG(got == ref,
                   std::string("trialPeek diverged at level ") +
                       simd::levelName(lvl));
    }
})
