/**
 * @file
 * Algorithm 3 (modified Jaccard) properties: metric axioms over the
 * full input space, agreement between the dense and sparse unbounded
 * metrics, and the bounded sparse kernel's contract against the
 * unbounded dense metric — exact at or below the bound, a certified
 * lower bound above it, pruned only when the distance exceeds it.
 * That contract is what keeps every pruned fast path (store queries,
 * the indexed clusterer) honest.
 */

#include "prop_common.hh"

#include <cmath>
#include <string>

#include "core/distance.hh"
#include "core/fingerprint.hh"
#include "util/sparse_bitset.hh"

using namespace pcause;
using pcheck::Ctx;

PCHECK_PROPERTY(PropDistance, MetricAxioms, [](Ctx &ctx) {
    const std::size_t nbits = ctx.sizeRange(1, 256, "nbits");
    const BitVec es = pcheck::genBitVec(ctx, nbits, 1);
    const BitVec fp = pcheck::genBitVec(ctx, nbits, 1);

    const double d = modifiedJaccard(es, fp);
    PCHECK_MSG(d >= 0.0 && d <= 1.0, "distance out of [0, 1]");
    // Footnote-2 swap rule makes the metric symmetric.
    PCHECK_EQ(d, modifiedJaccard(fp, es));
    PCHECK_EQ(modifiedJaccard(es, es), 0.0);
    PCHECK_EQ(modifiedJaccard(fp, fp), 0.0);

    const BitVec empty(nbits);
    PCHECK_EQ(modifiedJaccard(empty, empty), 0.0);
})

PCHECK_PROPERTY(PropDistance, BoundedConsistentWithExact,
                [](Ctx &ctx) {
    // Independent densities put either operand in the fingerprint
    // role, so both of the sparse kernel's branches run.
    const std::size_t nbits = ctx.sizeRange(1, 256, "nbits");
    const auto es_sparsity =
        static_cast<unsigned>(ctx.sizeRange(0, 3, "es_sparsity"));
    const BitVec es = pcheck::genBitVec(ctx, nbits, es_sparsity);
    const auto fp_sparsity =
        static_cast<unsigned>(ctx.sizeRange(0, 3, "fp_sparsity"));
    const BitVec fp = pcheck::genBitVec(ctx, nbits, fp_sparsity);
    const double d = modifiedJaccard(es, fp);
    ctx.note("exact", d);

    SparseFingerprintArena arena;
    arena.add(fp);
    const auto checkBound = [&](double bound) {
        bool pruned = false;
        const double bd = modifiedJaccardSparseBounded(
            es, es.popcount(), arena.view(0), bound, &pruned);
        const std::string at = "bound " + std::to_string(bound) +
                               ": bounded " + std::to_string(bd);
        if (d <= bound) {
            // Any threshold comparison at or below the bound must see
            // the same number the unbounded metric produces.
            PCHECK_MSG(bd == d, at + " != exact");
        } else {
            PCHECK_MSG(bd > bound,
                       at + " failed to certify > bound");
            PCHECK_MSG(bd <= d, at + " exceeded the exact value");
        }
        // Pruned only above the bound, and (an empty operand returns
        // 1 without scanning) exactly there: the one early-exit
        // decision boundedCountLimit() defines.
        if (pruned)
            PCHECK_MSG(d > bound, at + " pruned within the bound");
        else if (!es.none() && !fp.none())
            PCHECK_MSG(d <= bound, at + " not pruned above the bound");
    };
    // One arbitrary bound, plus the decision edge a uniform draw
    // almost never lands on: the exact distance and the double just
    // below it.
    checkBound(ctx.unit("bound"));
    checkBound(d);
    if (d > 0.0)
        checkBound(std::nextafter(d, 0.0));
})

PCHECK_PROPERTY(PropDistance, SparseAgreesWithDense, [](Ctx &ctx) {
    const std::size_t nbits = ctx.sizeRange(1, 256, "nbits");
    const BitVec es = pcheck::genBitVec(ctx, nbits, 2);
    const BitVec fp = pcheck::genBitVec(ctx, nbits, 2);
    const double dense = modifiedJaccard(es, fp);
    const double sparse = modifiedJaccard(SparseBitset::fromBitVec(es),
                                          SparseBitset::fromBitVec(fp));
    PCHECK_EQ(dense, sparse);
})
