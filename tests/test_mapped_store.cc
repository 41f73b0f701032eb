/**
 * @file
 * Unit tests for core/mapped_store — querying a v5 database file in
 * place: verdict equivalence with the in-memory FingerprintStore
 * and accessor fidelity. Damaged files are rejected by the check
 * MappedStore::open shares with loadStore; test_serialize sweeps
 * both readers with one corruption table and one prefix sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "util/rng.hh"

namespace pcause
{
namespace
{

constexpr std::size_t universeBits = 4096;
constexpr std::size_t fingerprintWeight = 64;
constexpr std::size_t noiseBits = 16;

/** Random weight-fingerprintWeight pattern. */
BitVec
randomFingerprint(Rng &rng)
{
    BitVec v(universeBits);
    while (v.popcount() < fingerprintWeight)
        v.set(rng.nextBelow(universeBits));
    return v;
}

/** @p base with noiseBits extra random bits (a noisy observation). */
BitVec
noisyObservation(const BitVec &base, Rng &rng)
{
    BitVec v = base;
    for (std::size_t i = 0; i < noiseBits; ++i)
        v.set(rng.nextBelow(universeBits));
    return v;
}

/** A small indexed population with deterministic contents. */
FingerprintStore
makeStore(std::size_t n, std::uint64_t seed = 42)
{
    Rng rng(seed);
    FingerprintStore store;
    for (std::size_t i = 0; i < n; ++i) {
        store.add("chip-" + std::to_string(i),
                  Fingerprint(randomFingerprint(rng)));
    }
    return store;
}

/** Save @p store to a fresh temp v5 file; returns the path. */
std::string
saveTemp(const FingerprintStore &store, const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    EXPECT_TRUE(saveStore(store, path));
    return path;
}

TEST(MappedStore, ServesRecordsInPlace)
{
    const FingerprintStore store = makeStore(10);
    const std::string path = saveTemp(store, "pc_mapped_basic.pcdb");

    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;
    EXPECT_EQ(mapped->size(), store.size());
    EXPECT_EQ(mapped->indexParams(), store.indexParams());

    for (std::size_t i = 0; i < store.size(); ++i) {
        EXPECT_EQ(mapped->label(i), store.record(i).label);
        EXPECT_EQ(mapped->sources(i),
                  store.record(i).fingerprint.sources());

        const SparseView mv = mapped->view(i);
        const SparseView sv = store.sparseFingerprints().view(i);
        ASSERT_EQ(mv.count, sv.count);
        EXPECT_EQ(mv.universe, sv.universe);
        for (std::size_t p = 0; p < mv.count; ++p)
            EXPECT_EQ(mv.positions[p], sv.positions[p]);
    }
    std::remove(path.c_str());
}

TEST(MappedStore, VerdictsMatchInMemoryStore)
{
    const FingerprintStore store = makeStore(50);
    const std::string path = saveTemp(store, "pc_mapped_query.pcdb");
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;

    Rng rng(7);
    for (std::size_t i = 0; i < store.size(); i += 7) {
        const BitVec es = noisyObservation(
            store.record(i).fingerprint.bits(), rng);
        const IdentifyResult want = store.query(es);
        const IdentifyResult got = mapped->query(es);
        ASSERT_EQ(got.match.has_value(), want.match.has_value());
        if (want.match) {
            EXPECT_EQ(*got.match, *want.match);
            EXPECT_EQ(got.bestDistance, want.bestDistance);
        }
    }

    // An unknown chip must be rejected by both paths.
    const BitVec stranger = randomFingerprint(rng);
    EXPECT_FALSE(mapped->query(stranger).match.has_value());
    EXPECT_FALSE(store.query(stranger).match.has_value());

    // queryLinear agrees too (and reports database-size counters).
    AttackStats stats;
    const BitVec es0 =
        noisyObservation(store.record(0).fingerprint.bits(), rng);
    const IdentifyResult lin = mapped->queryLinear(es0, {}, &stats);
    ASSERT_TRUE(lin.match.has_value());
    EXPECT_EQ(*lin.match, *store.queryLinear(es0).match);
    EXPECT_EQ(stats.recordsAvailable, store.size());

    std::remove(path.c_str());
}

TEST(MappedStore, CandidatesMatchInMemoryIndex)
{
    const FingerprintStore store = makeStore(40);
    const std::string path = saveTemp(store, "pc_mapped_cand.pcdb");
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;

    Rng rng(11);
    for (std::size_t i = 0; i < store.size(); i += 5) {
        const BitVec es = noisyObservation(
            store.record(i).fingerprint.bits(), rng);
        const MinHashSketch sketch =
            minhashSketch(es, store.indexParams());
        EXPECT_EQ(mapped->candidates(sketch),
                  store.index().candidates(sketch));
    }
    std::remove(path.c_str());
}

TEST(MappedStore, SubstitutionKeysFindWhatPrimaryKeysMiss)
{
    // A query first scans the ids under its primary keys and widens
    // to the substitution keys only when none accepts. Find a noisy
    // superset of a record that shares no primary bucket with it but
    // a substitution bucket: both stores accept it without falling
    // back.
    const FingerprintStore store = makeStore(64);
    const std::string path = saveTemp(store, "pc_mapped_widen.pcdb");
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;

    std::optional<BitVec> query;
    std::size_t target = 0;
    for (std::uint64_t seed = 0; seed < 4096 && !query; ++seed) {
        Rng rng(seed);
        target = seed % store.size();
        BitVec es = store.record(target).fingerprint.bits();
        for (int b = 0; b < 48; ++b)
            es.set(rng.nextBelow(universeBits));
        const MinHashSketch sketch =
            minhashSketch(es, store.indexParams());
        const auto primary = store.index().candidates(sketch.primary);
        const auto widened = store.index().candidates(sketch);
        if (!std::binary_search(primary.begin(), primary.end(), target) &&
            std::binary_search(widened.begin(), widened.end(), target))
            query = es;
    }
    ASSERT_TRUE(query) << "no noise seed hid a record from its primary "
                          "keys alone";

    AttackStats in_memory, in_file;
    const IdentifyResult a = store.query(*query, {}, &in_memory);
    const IdentifyResult b = mapped->query(*query, {}, &in_file);
    for (const auto &[res, stats] :
         {std::pair{a, in_memory}, std::pair{b, in_file}}) {
        ASSERT_TRUE(res.match.has_value());
        EXPECT_EQ(*res.match, target);
        EXPECT_EQ(stats.indexFallbacks, 0u);
        EXPECT_GE(stats.candidatesScanned, 1u);
    }
    std::remove(path.c_str());
}

TEST(MappedStore, EmptyStoreMapsAndRejectsEverything)
{
    const FingerprintStore store;
    const std::string path = saveTemp(store, "pc_mapped_empty.pcdb");
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;
    EXPECT_EQ(mapped->size(), 0u);

    BitVec es(universeBits);
    es.set(1);
    EXPECT_FALSE(mapped->query(es).match.has_value());
    std::remove(path.c_str());
}

TEST(MappedStore, MissingFileIsRecoverable)
{
    const LoadResult<MappedStore> r =
        MappedStore::open("/no/such/file.pcdb");
    EXPECT_FALSE(r);
    EXPECT_FALSE(r.error.empty());
}

} // anonymous namespace
} // namespace pcause
