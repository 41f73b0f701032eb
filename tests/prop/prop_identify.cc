/**
 * @file
 * Algorithm 2 (IDENTIFY) invariances. The attack's verdict must be
 * a function of the *sets* involved, not of incidental ordering:
 * permuting the database cannot change accept/reject or the best
 * distance (best-match mode), a pool-batched AttackService
 * identifyBatch keeps the serial reference's verdicts, and permuting
 * a batch permutes its results and nothing else. (The store's scans
 * against the reference, linear and sharded, are pinned in
 * prop_store.)
 */

#include "prop_common.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/distance.hh"
#include "core/identify.hh"
#include "core/service.hh"
#include "core/store.hh"
#include "util/thread_pool.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

/** Database + an error string aimed at one of its records. */
struct Scenario
{
    FingerprintDb db;
    BitVec probe;
    std::size_t target = 0;
};

Scenario
genScenario(Ctx &ctx)
{
    Scenario s;
    const std::size_t records = ctx.sizeRange(1, 6, "records");
    s.db = pcheck::genDb(ctx, 64 * records, records);
    s.target = ctx.sizeRange(0, records - 1, "target");
    // Half the trials probe with a matching observation, half with
    // an arbitrary pattern that usually matches nothing.
    if (ctx.boolean(0.5, "matching_probe"))
        s.probe = pcheck::genMatchingErrorString(ctx, s.db, s.target);
    else
        s.probe = pcheck::genBitVec(ctx, 64 * records, 2);
    return s;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** A random permutation of [0, n) driven by the tape. */
std::vector<std::size_t>
genPermutation(Ctx &ctx, std::size_t n)
{
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[ctx.below(i)]);
    return perm;
}

} // namespace

PCHECK_PROPERTY(PropIdentify, DbAddOrderInvariant, [](Ctx &ctx) {
    const Scenario s = genScenario(ctx);
    const std::vector<std::size_t> perm =
        genPermutation(ctx, s.db.size());
    FingerprintDb shuffled;
    for (std::size_t i : perm)
        shuffled.add(s.db.record(i).label,
                     s.db.record(i).fingerprint);

    // Best-match mode: the verdict depends only on the set of
    // fingerprints, so it must survive any database ordering.
    IdentifyParams p;
    p.firstMatch = false;
    const IdentifyResult a = identifyErrorString(s.probe, s.db, p);
    const IdentifyResult b = identifyErrorString(s.probe, shuffled, p);
    PCHECK_EQ(a.match.has_value(), b.match.has_value());
    PCHECK_EQ(a.bestDistance, b.bestDistance);
    if (a.match && b.match) {
        // Ties may legitimately resolve to different records; both
        // picks must sit at exactly the reported best distance.
        PCHECK_EQ(modifiedJaccard(
                      s.probe, s.db.record(*a.match)
                                   .fingerprint.bits()),
                  a.bestDistance);
        PCHECK_EQ(modifiedJaccard(
                      s.probe, shuffled.record(*b.match)
                                   .fingerprint.bits()),
                  a.bestDistance);
    }
})

PCHECK_PROPERTY(PropIdentify, BatchEqualsSerialEverywhere,
                [](Ctx &ctx) {
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const FingerprintDb db =
        pcheck::genDb(ctx, 64 * records, records);
    const std::size_t queries = ctx.sizeRange(1, 8, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q) {
        if (ctx.boolean(0.6, "matching_probe")) {
            // Sequence the draws: argument evaluation order is
            // unspecified and the tape must be stable.
            const std::size_t target = ctx.below(records, "target");
            probes.push_back(
                pcheck::genMatchingErrorString(ctx, db, target));
        } else
            probes.push_back(
                pcheck::genBitVec(ctx, 64 * records, 2));
    }
    QueryOptions options;
    options.firstMatch = ctx.boolean(0.5, "first_match");
    const IdentifyParams p = options.identifyParams();

    AttackService svc(FingerprintStore::fromDb(db));
    svc.setThreadPool(&pool);
    const std::vector<IdentifyVerdict> batch =
        svc.identifyBatch(probes, options);
    PCHECK_EQ(batch.size(), probes.size());
    for (std::size_t q = 0; q < queries; ++q) {
        // The indexed contract: the serial reference's verdict; on a
        // reject its nearest record and distance bits; in best-match
        // mode its record and distance (genDb's records are far
        // apart, so at most one sits under the threshold).
        const IdentifyResult one =
            identifyErrorString(probes[q], db, p);
        PCHECK_EQ(batch[q].record.has_value(), one.match.has_value());
        if (!one.match || !p.firstMatch) {
            PCHECK(batch[q].record == one.match);
            PCHECK(batch[q].nearest == one.nearest);
            PCHECK(sameBits(batch[q].distance, one.bestDistance));
        }
    }
})

PCHECK_PROPERTY(PropIdentify, QueryPermutationInvariant,
                [](Ctx &ctx) {
    // Permuting a batch permutes its results and nothing else:
    // queries are independent.
    static ThreadPool pool(4);
    const std::size_t records = ctx.sizeRange(1, 4, "records");
    const FingerprintDb db =
        pcheck::genDb(ctx, 64 * records, records);
    const std::size_t queries = ctx.sizeRange(2, 6, "queries");
    std::vector<BitVec> probes;
    for (std::size_t q = 0; q < queries; ++q)
        probes.push_back(pcheck::genBitVec(ctx, 64 * records, 2));
    const std::vector<std::size_t> perm = genPermutation(ctx, queries);
    std::vector<BitVec> shuffled;
    for (std::size_t i : perm)
        shuffled.push_back(probes[i]);

    AttackService svc(FingerprintStore::fromDb(db));
    svc.setThreadPool(&pool);
    const std::vector<IdentifyVerdict> base =
        svc.identifyBatch(probes, QueryOptions{});
    const std::vector<IdentifyVerdict> moved =
        svc.identifyBatch(shuffled, QueryOptions{});
    for (std::size_t q = 0; q < queries; ++q) {
        const IdentifyVerdict &x = base[perm[q]];
        const IdentifyVerdict &y = moved[q];
        PCHECK(x.record == y.record);
        PCHECK(x.nearest == y.nearest);
        PCHECK(sameBits(x.distance, y.distance));
    }
})
