/**
 * @file
 * Properties of the BitVec word-level kernels every distance and
 * decay fast path is built on: slice/blit round trips, popcount
 * against the set-bit list, and the AND-NOT count behind the dense
 * Algorithm 3 reference against its per-bit definition.
 */

#include "prop_common.hh"

#include "util/bitvec.hh"

using namespace pcause;
using pcheck::Ctx;

PCHECK_PROPERTY(PropBitVec, SliceBlitRoundTrip, [](Ctx &ctx) {
    const std::size_t nbits = ctx.sizeRange(1, 300, "nbits");
    const BitVec v = pcheck::genBitVec(ctx, nbits);
    const std::size_t start = ctx.sizeRange(0, nbits - 1, "start");
    const std::size_t len = ctx.sizeRange(0, nbits - start, "len");

    const BitVec cut = v.slice(start, len);
    PCHECK_EQ(cut.size(), len);
    for (std::size_t i = 0; i < len; ++i)
        PCHECK_EQ(cut.get(i), v.get(start + i));

    // Blitting a slice back where it came from is a no-op...
    BitVec same = v;
    same.blit(start, cut);
    PCHECK(same == v);

    // ...and blitting it into a zero vector reproduces it exactly.
    BitVec zero(nbits);
    zero.blit(start, cut);
    PCHECK_EQ(zero.popcount(), cut.popcount());
    PCHECK(zero.slice(start, len) == cut);
})

PCHECK_PROPERTY(PropBitVec, PopcountAgreesWithSetBits, [](Ctx &ctx) {
    const std::size_t nbits = ctx.sizeRange(1, 300, "nbits");
    const BitVec v = pcheck::genBitVec(ctx, nbits, 1);
    const std::vector<std::size_t> on = v.setBits();
    PCHECK_EQ(v.popcount(), on.size());
    for (std::size_t pos : on) {
        PCHECK(pos < nbits);
        PCHECK(v.get(pos));
    }
    // setBits is ascending, so it doubles as an ordering check.
    for (std::size_t i = 1; i < on.size(); ++i)
        PCHECK(on[i - 1] < on[i]);
})

PCHECK_PROPERTY(PropBitVec, AndNotCountDefinitional, [](Ctx &ctx) {
    const std::size_t nbits = ctx.sizeRange(1, 300, "nbits");
    const BitVec a = pcheck::genBitVec(ctx, nbits);
    const BitVec b = pcheck::genBitVec(ctx, nbits);
    std::size_t naive = 0;
    for (std::size_t i = 0; i < nbits; ++i)
        naive += a.get(i) && !b.get(i);
    PCHECK_EQ(a.andNotCount(b), naive);
    PCHECK_EQ(a.isSubsetOf(b), naive == 0);
})
