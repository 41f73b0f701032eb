/**
 * @file
 * Unit tests for core/serialize — attacker database persistence:
 * the v4 round trip, a v4 load equal to a rebuild at one lane and at
 * four, the structural check both readers share (loadStore and
 * MappedStore::open reject a damaged file with the same reason) and
 * the payload checks only the loader makes, the first failure in
 * file order reported whichever task finds its own first, no thread
 * left running after a load, v3 files (a fixture written by the v3
 * writer) and the re-sign of retired-scheme ones on load, the
 * disk-size estimate, and the recoverable LoadResult error
 * reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include <unistd.h>

#include "core/mapped_store.hh"
#include "core/pcdb_format.hh"
#include "core/serialize.hh"
#include "core/service.hh"
#include "core/store.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace pcause
{
namespace
{

Fingerprint
makeFingerprint(std::initializer_list<std::size_t> bits,
                unsigned sources = 1, std::size_t size = 32768)
{
    BitVec v(size);
    for (auto b : bits)
        v.set(b);
    Fingerprint fp(v);
    for (unsigned s = 1; s < sources; ++s)
        fp.augment(v);
    return fp;
}

/** Raw bytes of file @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Write @p bytes to @p path (truncating). */
void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Overwrite the little-endian @p T at @p off of @p bytes. */
template <typename T>
void
patch(std::string &bytes, std::size_t off, T value)
{
    ASSERT_LE(off + sizeof(value), bytes.size());
    std::memcpy(&bytes[off], &value, sizeof(value));
}

/** tests/data/pcdb_v3_small.pcdb: a PCDB v3 file. */
const std::string v3FixturePath =
    std::string(PCAUSE_TEST_DATA) + "/pcdb_v3_small.pcdb";

/**
 * The store the v3 fixture holds. The fixture was written by the v3
 * writer (saveStore before PCDB v4) from exactly this function;
 * V3FixtureLoadsAsItsStore pins the two together.
 */
FingerprintStore
v3FixtureStore()
{
    MinHashParams custom;
    custom.numHashes = 48;
    custom.bands = 12;
    custom.seed = 0x5eedull;
    FingerprintStore store(custom);
    Rng rng(0x7633666978747572ull);
    for (std::size_t r = 0; r < 24; ++r) {
        BitVec bits(256);
        while (bits.popcount() < 12)
            bits.set(rng.nextBelow(bits.size()));
        Fingerprint fp(bits);
        for (std::size_t s = 1; s < 1 + r % 3; ++s)
            fp.augment(bits);
        store.add("chip-" + std::to_string(r), fp);
    }
    return store;
}

/**
 * A store of @p n records of 400 positions over 8192 bits, built on
 * a four-lane pool of its own: its v4 file runs to megabytes, so a
 * four-lane load splits the records and the posting lists into
 * several tasks each.
 */
FingerprintStore
largeStore(std::size_t n)
{
    Rng rng(0x6c61726765ull);
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    for (std::size_t r = 0; r < n; ++r) {
        BitVec bits(8192);
        for (int k = 0; k < 400; ++k)
            bits.set(rng.nextBelow(bits.size()));
        labels.push_back("chip-" + std::to_string(r));
        fps.emplace_back(bits, static_cast<unsigned>(1 + r % 3));
    }
    ThreadPool pool(4); // joined here: death tests fork later
    FingerprintStore store;
    store.setThreadPool(&pool);
    store.addBatch(std::move(labels), std::move(fps));
    store.setThreadPool(nullptr);
    return store;
}

/** The band slot arrays of @p got and @p want are the same. */
void
expectSameSlots(const FingerprintStore &got, const FingerprintStore &want)
{
    for (std::uint32_t b = 0; b < want.indexParams().bands; ++b) {
        const LshIndex::BandSlots w = want.index().bandSlots(b);
        const LshIndex::BandSlots g = got.index().bandSlots(b);
        ASSERT_EQ(g.slots, w.slots);
        EXPECT_TRUE(std::equal(g.ids, g.ids + g.slots, w.ids));
        for (std::size_t k = 0; k < g.slots; ++k) {
            if (w.ids[k] != LshIndex::emptySlot) {
                EXPECT_EQ(g.keys[k], w.keys[k]);
            }
        }
    }
}

/** @p got holds exactly @p want's records, parameters, signatures,
 *  band table contents and position index. */
void
expectSameStore(const FingerprintStore &got, const FingerprintStore &want)
{
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.indexParams(), want.indexParams());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.label(i), want.label(i));
        EXPECT_EQ(got.sources(i), want.sources(i));
        EXPECT_EQ(got.signature(i), want.signature(i));
        EXPECT_EQ(got.record(i).fingerprint.bits(),
                  want.record(i).fingerprint.bits());
    }
    for (std::uint32_t b = 0; b < want.indexParams().bands; ++b)
        EXPECT_EQ(got.index().bandEntries(b), want.index().bandEntries(b))
            << "band " << b;
    EXPECT_EQ(got.positionIndex(), want.positionIndex());
}

/** The v4 image of @p store, read back from a file. */
std::string
v4Bytes(const FingerprintStore &store, const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    EXPECT_TRUE(saveStore(store, path));
    const std::string bytes = slurp(path);
    std::remove(path.c_str());
    return bytes;
}

/** An error's reason: the text after the reader's "name: " prefix. */
std::string
reasonOf(const std::string &error)
{
    const std::size_t colon = error.find(": ");
    return colon == std::string::npos ? error : error.substr(colon + 2);
}

/** Offset of record @p i's table entry field at @p field. */
std::size_t
entryOff(std::size_t i, std::size_t field)
{
    return pcdb::v4HeaderBytes + i * pcdb::recordEntryBytes + field;
}

std::uint32_t
u32At(const std::string &b, std::size_t off)
{
    return pcdb::loadU32(
        reinterpret_cast<const std::uint8_t *>(b.data() + off));
}

std::uint64_t
u64At(const std::string &b, std::size_t off)
{
    return pcdb::loadU64(
        reinterpret_cast<const std::uint8_t *>(b.data() + off));
}

/** Where a v4 image's index sections sit. */
struct V4Sections
{
    std::uint64_t slots = 0;   //!< per band
    std::uint64_t band0Ids = 0; //!< band 0's id array
    std::uint64_t lists = 0;
    std::uint64_t byteOffs = 0; //!< byte offset array
    std::uint64_t idOffs = 0;   //!< id offset array
    std::uint64_t bytes = 0;    //!< the gap-coded lists

    explicit V4Sections(const std::string &b)
        : slots(u64At(b, 104)),
          band0Ids(u64At(b, 96) + slots * 8),
          lists(u64At(b, 112)),
          byteOffs(u64At(b, 128)),
          idOffs(byteOffs + (lists + 1) * 8),
          bytes(idOffs + (lists + 1) * 8)
    {
    }

    /** Band 0's first slot that is (@p used) or is not occupied. */
    std::uint64_t band0Slot(const std::string &b, bool used) const
    {
        for (std::uint64_t s = 0; s < slots; ++s) {
            if ((u32At(b, band0Ids + s * 4) != LshIndex::emptySlot) ==
                used)
                return s;
        }
        ADD_FAILURE() << "no such slot";
        return 0;
    }

    /** First byte of posting list @p p. */
    std::uint64_t list(const std::string &b, std::uint64_t p) const
    {
        return bytes + u64At(b, byteOffs + p * 8);
    }
};

TEST(Serialize, StoreRoundTripKeepsSignaturesAndParams)
{
    MinHashParams custom;
    custom.numHashes = 48;
    custom.bands = 16;
    custom.seed = 0xfeedbeefull;

    FingerprintStore store(custom);
    store.add("alpha", makeFingerprint({1, 100, 32767}, 3));
    store.add("beta", makeFingerprint({5, 6}, 2));

    const std::string path =
        ::testing::TempDir() + "pcause_store_rt.pcdb";
    ASSERT_TRUE(saveStore(store, path));
    const StoreLoadResult loaded = loadStore(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded) << loaded.error;
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ(loaded->indexParams(), custom);
    for (std::size_t i = 0; i < store.size(); ++i) {
        EXPECT_EQ(loaded->record(i).label, store.record(i).label);
        EXPECT_EQ(loaded->record(i).fingerprint.bits(),
                  store.record(i).fingerprint.bits());
        EXPECT_EQ(loaded->record(i).fingerprint.sources(),
                  store.record(i).fingerprint.sources());
        EXPECT_EQ(loaded->signature(i), store.signature(i));
    }
}

TEST(Serialize, V4LoadEqualsRebuild)
{
    // The loader adopts the stored band tables and position index
    // instead of rebuilding them: what it adopts must be what a
    // rebuild from the same records makes, for stores grown by
    // addBatch and by single adds (whose tables size differently),
    // and it must be the same store at one lane and at four, for a
    // file small enough to be one task per section and one large
    // enough to split.
    Rng rng(0x6c6f6164ull);
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    for (std::size_t r = 0; r < 300; ++r) {
        BitVec bits(2048);
        while (bits.popcount() < 40)
            bits.set(rng.nextBelow(bits.size()));
        labels.push_back("chip-" + std::to_string(r));
        fps.emplace_back(bits, static_cast<unsigned>(1 + r % 3));
    }
    ThreadPool pool(2); // joined here: death tests fork later
    FingerprintStore batch;
    batch.setThreadPool(&pool);
    batch.addBatch(labels, fps);
    FingerprintStore single;
    for (std::size_t r = 0; r < labels.size(); ++r)
        single.add(labels[r], fps[r]);
    const FingerprintStore large = largeStore(2500);

    ThreadPool one(1), four(4);
    const std::vector<const FingerprintStore *> stores = {&batch, &single,
                                                          &large};
    for (const FingerprintStore *store : stores) {
        const std::string path =
            ::testing::TempDir() + "pcause_rebuild.pcdb";
        ASSERT_TRUE(saveStore(*store, path));
        std::uint32_t version = 0;
        const StoreLoadResult loaded =
            loadStore(path, one, nullptr, &version);
        const StoreLoadResult pooled = loadStore(path, four);
        std::remove(path.c_str());
        ASSERT_TRUE(loaded) << loaded.error;
        ASSERT_TRUE(pooled) << pooled.error;
        EXPECT_EQ(version, pcdb::versionV4);

        // A rebuild: the same records added again to a new store.
        FingerprintStore rebuilt(store->indexParams());
        for (std::size_t i = 0; i < store->size(); ++i)
            rebuilt.add(store->label(i), store->record(i).fingerprint);
        expectSameStore(*loaded, rebuilt);
        expectSameStore(*loaded, *store);
        expectSameStore(*pooled, *loaded);

        // The slot arrays themselves come back as they were held.
        expectSameSlots(*loaded, *store);
        expectSameSlots(*pooled, *store);
    }
}

TEST(Serialize, EveryV3PrefixIsRejected)
{
    // Exhaustive prefix sweep over a small v4 file: no strict prefix
    // may load, crash, or loop in either reader — each must fail
    // with a clean error. The same over the v3 fixture in loadStore,
    // its one reader.
    FingerprintStore store;
    store.add("chip-a", makeFingerprint({1, 2, 3}, 2, 256));
    store.add("chip-b", makeFingerprint({9, 200}, 1, 256));
    const std::string v4 = v4Bytes(store, "pcause_prefix.pcdb");
    const std::string v3 = slurp(v3FixturePath);
    ASSERT_FALSE(v3.empty());
    const std::string path =
        ::testing::TempDir() + "pcause_prefix_cut.pcdb";
    for (const std::string *bytes : {&v4, &v3}) {
        for (std::size_t cut = 0; cut < bytes->size(); ++cut) {
            spit(path, bytes->substr(0, cut));
            const StoreLoadResult r = loadStore(path);
            ASSERT_FALSE(r) << "prefix of " << cut << " of "
                            << bytes->size() << " bytes loaded";
            ASSERT_FALSE(r.error.empty());
            if (bytes == &v3)
                continue;
            const LoadResult<MappedStore> m = MappedStore::open(path);
            ASSERT_FALSE(m) << "prefix of " << cut << " of "
                            << bytes->size() << " bytes opened";
            ASSERT_FALSE(m.error.empty());
        }
    }
    // ... and the full files load.
    spit(path, v4);
    const StoreLoadResult full = loadStore(path);
    ASSERT_TRUE(full) << full.error;
    EXPECT_EQ(full->size(), 2u);
    EXPECT_TRUE(MappedStore::open(path));
    spit(path, v3);
    EXPECT_TRUE(loadStore(path));
    std::remove(path.c_str());
}

/** What the mmap reader must do with a damaged file. */
enum class Mapped
{
    SameReason,      //!< refuse it with the loader's reason
    OpensAndAnswers, //!< index payload it bounds instead of checking
    NotTried,        //!< positions, which it trusts
};

/** One damaged file and the reason the loader must give. */
struct CorruptRow
{
    const char *what;
    const std::string *good; //!< the undamaged image
    std::function<void(std::string &)> damage;
    const char *reason;
    Mapped mapped = Mapped::SameReason;
};

TEST(Serialize, CorruptFilesAreRejectedByBothReaders)
{
    FingerprintStore one;
    one.add("solo", makeFingerprint({1, 2, 3}, 2, 256));
    FingerprintStore three;
    three.add("chip-a", makeFingerprint({1, 2, 3}, 2, 256));
    three.add("chip-b", makeFingerprint({9, 200}, 1, 256));
    three.add("chip-c", makeFingerprint({7, 70, 170}, 3, 256));
    const std::string g0 = v4Bytes(FingerprintStore(), "pcause_zero.pcdb");
    const std::string g1 = v4Bytes(one, "pcause_one.pcdb");
    const std::string g3 = v4Bytes(three, "pcause_three.pcdb");
    const std::string gv3 = slurp(v3FixturePath);
    // Sections of the one- and three-record files.
    const std::uint64_t pos_off = u64At(g1, 80);
    const V4Sections s1(g1), s3(g3);
    const std::uint64_t used = s1.band0Slot(g1, true);
    const std::uint64_t free_slot = s1.band0Slot(g1, false);

    const std::vector<CorruptRow> rows = {
        {"bad magic", &g1, [](std::string &b) { b[0] = 'X'; },
         "not a Probable Cause database"},
        {"a v2 file", &g1,
         [](std::string &b) { patch<std::uint32_t>(b, 4, 2); },
         "unsupported version 2"},
        {"an unknown version", &g1,
         [](std::string &b) { patch<std::uint32_t>(b, 4, 99); },
         "unsupported version 99"},
        {"bands not dividing the hashes", &g1,
         [](std::string &b) { patch<std::uint32_t>(b, 12, 7); },
         "invalid minhash parameters"},
        {"2^24 hashes in an empty file", &g0,
         [](std::string &b) {
             patch<std::uint32_t>(b, 8, 1u << 24);
             patch<std::uint32_t>(b, 12, 1u << 20);
         },
         "invalid minhash parameters"},
        {"unknown signature scheme", &g1,
         [](std::string &b) { patch<std::uint32_t>(b, 20, 2); },
         "unknown signature scheme 2"},
        {"a v4 file of the retired scheme", &g1,
         [](std::string &b) {
             patch<std::uint32_t>(b, 20, pcdb::schemeRetired);
         },
         "a v4 file signed under the retired scheme"},
        {"record count 2^64-1", &g1,
         [](std::string &b) {
             patch<std::uint64_t>(b, 32, ~std::uint64_t{0});
         },
         "header counts exceed the file size"},
        {"inflated record count", &g3,
         [](std::string &b) { patch<std::uint64_t>(b, 32, 4); },
         "non-canonical section layout"},
        {"file size field off by one", &g1,
         [&](std::string &b) {
             patch<std::uint64_t>(b, 56, b.size() + 1);
         },
         "header file size does not match the file"},
        {"trailing garbage", &g1,
         [](std::string &b) { b += "garbage"; },
         "header file size does not match the file"},
        {"moved signature arena", &g1,
         [&](std::string &b) {
             patch<std::uint64_t>(b, 72, u64At(b, 72) + 8);
         },
         "non-canonical section layout"},
        {"label length 2^32-1", &g1,
         [](std::string &b) {
             patch<std::uint32_t>(b, entryOff(0, 24),
                                  ~std::uint32_t{0});
         },
         "implausible label length"},
        {"label offset off by one", &g3,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(1, 0), 1);
         },
         "non-canonical record table"},
        {"nonzero reserved entry field", &g3,
         [](std::string &b) {
             patch<std::uint32_t>(b, entryOff(2, 36), 1);
         },
         "non-canonical record table"},
        {"zero sources", &g3,
         [](std::string &b) {
             patch<std::uint32_t>(b, entryOff(1, 32), 0);
         },
         "record with zero sources"},
        {"universe 2^40+256", &g1,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(0, 16),
                                  (std::uint64_t{1} << 40) + 256);
         },
         "universe exceeds 2^32 bits"},
        {"a second universe", &g3,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(2, 16), 512);
         },
         "universe differs from record 0's"},
        {"more positions than universe bits", &g1,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(0, 16), 2);
         },
         "more positions than universe bits"},
        {"last label one byte longer", &g3,
         [&](std::string &b) {
             patch<std::uint32_t>(b, entryOff(2, 24),
                                  u32At(b, entryOff(2, 24)) + 1);
         },
         "label arena size mismatch"},
        {"last position count one higher", &g3,
         [&](std::string &b) {
             patch<std::uint32_t>(b, entryOff(2, 28),
                                  u32At(b, entryOff(2, 28)) + 1);
         },
         "position arena size mismatch"},

        // v4 header fields and index sections.
        {"slot count equal to the record count", &g1,
         [](std::string &b) { patch<std::uint64_t>(b, 104, 1); },
         "band slot count not above the record count"},
        {"posting byte count 2^64-1", &g1,
         [](std::string &b) {
             patch<std::uint64_t>(b, 120, ~std::uint64_t{0});
         },
         "header counts exceed the file size"},
        {"posting list count one higher", &g1,
         [&](std::string &b) {
             patch<std::uint64_t>(b, 112, s1.lists + 1);
         },
         "non-canonical section layout"},
        {"moved postings section", &g1,
         [](std::string &b) {
             patch<std::uint64_t>(b, 128, u64At(b, 128) + 8);
         },
         "non-canonical section layout"},
        {"byte offsets not starting at 0", &g1,
         [&](std::string &b) { patch<std::uint64_t>(b, s1.byteOffs, 1); },
         "posting list offsets do not start at 0"},
        {"non-monotone byte offsets", &g3,
         [&](std::string &b) {
             patch<std::uint64_t>(b, s3.byteOffs + 2 * 8, 5);
         },
         "non-monotone posting list offsets"},
        {"non-monotone id offsets", &g3,
         [&](std::string &b) {
             patch<std::uint64_t>(b, s3.idOffs + 2 * 8, 5);
         },
         "non-monotone posting list offsets"},
        {"byte offsets past the section", &g3,
         [&](std::string &b) {
             patch<std::uint64_t>(b, s3.byteOffs + s3.lists * 8,
                                  u64At(b, 120) + 1);
         },
         "posting list offsets outside the section"},
        {"id offsets not ending at P", &g3,
         [&](std::string &b) {
             patch<std::uint64_t>(b, s3.idOffs + s3.lists * 8, 9);
         },
         "posting id offsets do not end at the position count"},
        {"band slot id of N", &g1,
         [&](std::string &b) {
             patch<std::uint32_t>(b, s1.band0Ids + used * 4, 1);
         },
         "band slot id out of range", Mapped::OpensAndAnswers},
        {"a free slot occupied", &g1,
         [&](std::string &b) {
             patch<std::uint32_t>(b, s1.band0Ids + free_slot * 4, 0);
         },
         "band occupied slot count mismatch", Mapped::OpensAndAnswers},
        {"a zero gap", &g1,
         [&](std::string &b) { b[s1.list(b, 1)] = 0; },
         "zero or malformed posting gap", Mapped::OpensAndAnswers},
        {"a decoded id of N", &g1,
         [&](std::string &b) { b[s1.list(b, 1)] = 2; },
         "posting id out of range", Mapped::OpensAndAnswers},
        {"a list's bytes holding another id", &g3,
         [&](std::string &b) {
             patch<std::uint64_t>(b, s3.byteOffs + 2 * 8, 2);
         },
         "posting list bytes do not match its id count",
         Mapped::OpensAndAnswers},
        {"a list longer than its position's records", &g3,
         [&](std::string &b) {
             patch<std::uint64_t>(b, s3.idOffs + 2 * 8, 2);
         },
         "posting lists do not match the position arena",
         Mapped::OpensAndAnswers},
        {"a changed band key", &g1,
         [&](std::string &b) {
             const std::uint64_t key = u64At(b, 96) + used * 8;
             b[key] = static_cast<char>(b[key] ^ 0x40);
         },
         "band section CRC mismatch", Mapped::OpensAndAnswers},
        {"band CRC field", &g1,
         [](std::string &b) {
             patch<std::uint32_t>(b, pcdb::bandCrcOff,
                                  u32At(b, pcdb::bandCrcOff) ^ 1);
         },
         "band section CRC mismatch", Mapped::OpensAndAnswers},
        {"a changed id in range", &g3,
         [&](std::string &b) { b[s3.list(b, 1)] = 2; },
         "postings section CRC mismatch", Mapped::OpensAndAnswers},
        {"postings CRC field", &g3,
         [](std::string &b) {
             patch<std::uint32_t>(b, pcdb::postingsCrcOff,
                                  u32At(b, pcdb::postingsCrcOff) ^ 1);
         },
         "postings section CRC mismatch", Mapped::OpensAndAnswers},

        // v3 (the fixture), which both readers check.
        {"v3 band entry count", &gv3,
         [](std::string &b) { patch<std::uint64_t>(b, u64At(b, 96), 2); },
         "lsh band entry count mismatch"},
        {"v3 record count one higher", &gv3,
         [](std::string &b) {
             patch<std::uint64_t>(b, 32, u64At(b, 32) + 1);
         },
         "non-canonical section layout"},

        // Positions, which only the loader reads.
        {"position past the universe", &g1,
         [&](std::string &b) {
             patch<std::uint32_t>(b, pos_off + 8, 256);
         },
         "position beyond universe", Mapped::NotTried},
        {"repeated position", &g1,
         [&](std::string &b) {
             patch<std::uint32_t>(b, pos_off + 4, 1);
         },
         "positions not strictly ascending", Mapped::NotTried},
        {"position moved past the last list", &g1,
         [&](std::string &b) {
             patch<std::uint32_t>(b, pos_off + 8, 4);
         },
         "posting lists do not match the position arena",
         Mapped::NotTried},
    };

    const std::string path =
        ::testing::TempDir() + "pcause_corrupt.pcdb";
    ThreadPool one_lane(1), four(4);
    for (const CorruptRow &row : rows) {
        std::string bytes = *row.good;
        row.damage(bytes);
        spit(path, bytes);

        // The same reason at any lane count, whichever task ends
        // first (a damaged list also breaks the postings CRC).
        const StoreLoadResult loaded = loadStore(path, four);
        EXPECT_FALSE(loaded) << row.what;
        EXPECT_NE(loaded.error.find(row.reason), std::string::npos)
            << row.what << ": " << loaded.error;
        const StoreLoadResult inline_load = loadStore(path, one_lane);
        EXPECT_EQ(inline_load.error, loaded.error) << row.what;
        const LoadResult<MappedStore> mapped = MappedStore::open(path);
        switch (row.mapped) {
          case Mapped::SameReason:
            EXPECT_FALSE(mapped) << row.what;
            // One check, one reason.
            EXPECT_EQ(reasonOf(mapped.error), reasonOf(loaded.error))
                << row.what;
            break;
          case Mapped::OpensAndAnswers: {
            // The mapped reader checks no index payload at open (nor
            // any CRC, ROADMAP item 6): it opens the file and every
            // query answers, shortlist and fallback alike.
            ASSERT_TRUE(mapped) << row.what << ": " << mapped.error;
            for (std::size_t i = 0; i < mapped->size(); ++i) {
                const BitVec es = denseBits(mapped->view(i));
                mapped->query(es);
                mapped->queryFullScan(es);
            }
            break;
          }
          case Mapped::NotTried:
            break;
        }
    }

    // The undamaged files load in both readers (v3 in the loader).
    for (const std::string *bytes : {&g0, &g1, &g3, &gv3}) {
        spit(path, *bytes);
        EXPECT_TRUE(loadStore(path));
        EXPECT_EQ(static_cast<bool>(MappedStore::open(path)),
                  bytes != &gv3);
    }
    std::remove(path.c_str());
}

TEST(Serialize, FirstFailureInFileOrderAtAnyLaneCount)
{
    // A file damaged in several sections at once fails with the
    // reason a serial read of it would reach first: the payload
    // sections in file order, then the postings CRC. The file is
    // large enough that four lanes check its parts in several tasks
    // at once, and the damages sit in different ones.
    const FingerprintStore store = largeStore(2500);
    const std::string good = v4Bytes(store, "pcause_order.pcdb");
    const std::uint64_t n = store.size();
    const std::uint64_t pos_off = u64At(good, 80);
    const V4Sections sec(good);
    const std::uint64_t band_bytes =
        sec.slots * 8 + pcdb::align8(sec.slots * 4);
    // Position k of record r, and the slot arrays of band 9.
    const auto position = [&](std::uint64_t r, std::uint64_t k) {
        return pos_off + 4 * (u64At(good, entryOff(r, 8)) + k);
    };
    const std::uint64_t band9 = u64At(good, 96) + 9 * band_bytes;
    std::uint64_t used = 0;
    while (u32At(good, band9 + sec.slots * 8 + used * 4) ==
           LshIndex::emptySlot)
        ++used;

    using Damage = std::function<void(std::string &)>;
    const Damage first_position_past_universe = [&](std::string &b) {
        patch<std::uint32_t>(b, position(0, 0), 8192);
    };
    const Damage last_position_repeated = [&](std::string &b) {
        patch<std::uint32_t>(b, position(n - 1, 1),
                             u32At(b, position(n - 1, 0)));
    };
    const Damage band_id_out_of_range = [&](std::string &b) {
        patch<std::uint32_t>(b, band9 + sec.slots * 8 + used * 4,
                             static_cast<std::uint32_t>(n));
    };
    const Damage band_key_changed = [&](std::string &b) {
        b[band9 + used * 8] ^= 0x40;
    };
    const Damage zero_gap = [&](std::string &b) {
        b[sec.list(b, sec.lists * 3 / 4)] = 0;
    };
    const struct
    {
        std::vector<Damage> damages;
        const char *reason;
    } cases[] = {
        {{zero_gap, band_key_changed, band_id_out_of_range,
          last_position_repeated, first_position_past_universe},
         "position beyond universe"},
        {{zero_gap, band_key_changed, band_id_out_of_range,
          last_position_repeated},
         "positions not strictly ascending"},
        {{zero_gap, band_key_changed, band_id_out_of_range},
         "band slot id out of range"},
        {{zero_gap, band_key_changed}, "band section CRC mismatch"},
        {{zero_gap}, "zero or malformed posting gap"},
    };
    const std::string path = ::testing::TempDir() + "pcause_order.pcdb";
    ThreadPool one(1), four(4);
    for (const auto &c : cases) {
        std::string bytes = good;
        for (const Damage &d : c.damages)
            d(bytes);
        spit(path, bytes);
        for (ThreadPool *pool : {&one, &four}) {
            const StoreLoadResult r = loadStore(path, *pool);
            EXPECT_FALSE(r);
            EXPECT_EQ(reasonOf(r.error), c.reason)
                << pool->size() << " lanes, " << c.damages.size()
                << " damages";
        }
    }
    std::remove(path.c_str());
}

/** The process's thread count, as the kernel reports it. */
int
threadCount()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    }
    return -1;
}

/** The thread count once it is back to @p before, or after a second:
 *  a joined thread may still be counted while its exit finishes. */
int
settledThreadCount(int before)
{
    int now = threadCount();
    for (int i = 0; i < 100 && now != before; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        now = threadCount();
    }
    return now;
}

TEST(Serialize, LoadLeavesNoThreadRunning)
{
    // A load with no pool of the caller's runs on one of its own,
    // sized to the file (a file of megabytes gets several lanes),
    // and joins it before returning: the service's open and durable
    // open, and the tools, load this way.
    const std::string path = ::testing::TempDir() + "pcause_threads.pcdb";
    ASSERT_TRUE(saveStore(largeStore(2500), path));
    const int before = threadCount();
    ASSERT_GT(before, 0);

    const StoreLoadResult loaded = loadStore(path);
    ASSERT_TRUE(loaded) << loaded.error;
    EXPECT_EQ(settledThreadCount(before), before) << "loadStore";

    const LoadResult<AttackService> opened = AttackService::open(path);
    ASSERT_TRUE(opened) << opened.error;
    EXPECT_EQ(settledThreadCount(before), before) << "AttackService::open";

    AttackService::DurabilityConfig durable;
    durable.dbPath = path;
    durable.walPath = path + ".wal";
    const LoadResult<AttackService> reopened =
        AttackService::openDurable(durable);
    ASSERT_TRUE(reopened) << reopened.error;
    EXPECT_EQ(settledThreadCount(before), before)
        << "AttackService::openDurable";
    std::remove(path.c_str());
    std::remove(durable.walPath.c_str());
}

TEST(Serialize, V3FixtureLoadsAsItsStore)
{
    // The fixture holds v3FixtureStore(): loadStore rebuilds its
    // index, the mmap reader refuses it naming the upgrade, and a
    // save writes it as v4, which maps.
    const FingerprintStore want = v3FixtureStore();
    std::uint32_t version = 0, scheme = 0;
    const StoreLoadResult loaded =
        loadStore(v3FixturePath, &scheme, &version);
    ASSERT_TRUE(loaded) << loaded.error;
    EXPECT_EQ(version, pcdb::versionV3);
    EXPECT_EQ(scheme, pcdb::schemeOnePermutation);
    expectSameStore(*loaded, want);

    const LoadResult<MappedStore> refused =
        MappedStore::open(v3FixturePath);
    EXPECT_FALSE(refused);
    EXPECT_NE(refused.error.find("pcause db reindex"), std::string::npos)
        << refused.error;

    const std::string path = ::testing::TempDir() + "pcause_upgrade.pcdb";
    ASSERT_TRUE(saveStore(*loaded, path));
    const StoreLoadResult upgraded = loadStore(path, nullptr, &version);
    ASSERT_TRUE(upgraded) << upgraded.error;
    EXPECT_EQ(version, pcdb::versionV4);
    expectSameStore(*upgraded, want);
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    ASSERT_TRUE(mapped) << mapped.error;
    EXPECT_EQ(mapped->size(), want.size());
    std::remove(path.c_str());
}

TEST(Serialize, RetiredSchemeIsResignedOnLoadAndRefusedByMmap)
{
    const FingerprintStore store = v3FixtureStore();
    const MinHashParams custom = store.indexParams();

    // A retired-scheme file: the v3 fixture marked scheme 0, its
    // signature arena overwritten as an old signer's values would
    // differ from today's.
    std::string bytes = slurp(v3FixturePath);
    ASSERT_EQ(u32At(bytes, 20), pcdb::schemeOnePermutation);
    patch<std::uint32_t>(bytes, 20, pcdb::schemeRetired);
    std::memset(&bytes[u64At(bytes, 72)], 0xa5,
                store.size() * custom.numHashes * sizeof(std::uint32_t));
    const std::string path =
        ::testing::TempDir() + "pcause_scheme0.pcdb";
    spit(path, bytes);

    std::uint32_t scheme = pcdb::schemeOnePermutation;
    const StoreLoadResult loaded = loadStore(path, &scheme);
    ASSERT_TRUE(loaded) << loaded.error;
    EXPECT_EQ(scheme, pcdb::schemeRetired);
    ASSERT_EQ(loaded->size(), store.size());
    EXPECT_EQ(loaded->indexParams(), custom);
    for (std::size_t i = 0; i < store.size(); ++i) {
        EXPECT_EQ(loaded->signature(i),
                  minhashSignature(loaded->record(i).fingerprint.bits(),
                                   custom))
            << "record " << i;
    }

    // Same verdicts and shortlists as the store the file came from:
    // noisy supersets of stored records, and foreign sets.
    Rng rng(0x736368656d65ull);
    for (std::size_t q = 0; q < 2 * store.size(); ++q) {
        BitVec es(256);
        if (q < store.size())
            es = store.record(q).fingerprint.bits();
        while (es.popcount() < (q < store.size() ? 14u : 12u))
            es.set(rng.nextBelow(es.size()));
        AttackStats want_stats, got_stats;
        const IdentifyResult want = store.query(es, {}, &want_stats);
        const IdentifyResult got = loaded->query(es, {}, &got_stats);
        EXPECT_EQ(got.match, want.match) << "query " << q;
        EXPECT_EQ(got.nearest, want.nearest) << "query " << q;
        EXPECT_EQ(got.bestDistance, want.bestDistance) << "query " << q;
        EXPECT_EQ(got_stats.candidatesScanned,
                  want_stats.candidatesScanned)
            << "query " << q;
        EXPECT_EQ(got_stats.indexFallbacks, want_stats.indexFallbacks)
            << "query " << q;
    }

    // The mmap reader maps v4 only, and names the upgrade.
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    EXPECT_FALSE(mapped);
    EXPECT_NE(mapped.error.find("pcause db reindex"), std::string::npos)
        << mapped.error;
    std::remove(path.c_str());
}

TEST(Serialize, DiskSizeEstimateTracksTheFile)
{
    // The estimate `db stats` and the DbStats reply report, summed
    // over a 10k-record store of the bench's shape (8192-bit chips,
    // ~256 volatile cells), must land within 2% of the file.
    Rng rng(0x6469736bull);
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    for (std::size_t r = 0; r < 10000; ++r) {
        BitVec bits(8192);
        for (int k = 0; k < 256; ++k)
            bits.set(rng.nextBelow(bits.size()));
        labels.push_back("chip-" + std::to_string(r));
        fps.emplace_back(bits, 3u);
    }
    ThreadPool pool(2); // joined here: death tests fork later
    FingerprintStore store;
    store.setThreadPool(&pool);
    store.addBatch(std::move(labels), std::move(fps));
    std::size_t estimate = 0;
    for (std::size_t i = 0; i < store.size(); ++i) {
        estimate += recordDiskSize(
            store.sparseFingerprints().view(i).count,
            store.label(i).size(), store.indexParams().numHashes,
            store.indexParams().bands);
    }
    const std::string path = ::testing::TempDir() + "pcause_size.pcdb";
    ASSERT_TRUE(saveStore(store, path));
    const double file = static_cast<double>(slurp(path).size());
    std::remove(path.c_str());
    EXPECT_NEAR(static_cast<double>(estimate) / file, 1.0, 0.02)
        << "estimate " << estimate << " bytes, file " << file;
}

TEST(Serialize, EmptyStoreRoundTripsWithCustomParams)
{
    MinHashParams params;
    params.numHashes = 16;
    params.bands = 4;
    params.seed = 0xfeedbeef;
    const FingerprintStore store(params);
    const std::string path =
        ::testing::TempDir() + "pcause_empty_store.pcdb";
    ASSERT_TRUE(saveStore(store, path));
    const StoreLoadResult r = loadStore(path);
    std::remove(path.c_str());
    ASSERT_TRUE(r) << r.error;
    EXPECT_EQ(r->size(), 0u);
    EXPECT_TRUE(r->indexParams() == params);
}

TEST(Serialize, MissingFileIsRecoverable)
{
    const StoreLoadResult r = loadStore("/no/such/file.pcdb");
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(Serialize, SaveReportsAFullDevice)
{
    // A small payload fits the stream buffer, so the only failing
    // write is the flush at close.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full";
    FingerprintStore store;
    store.add("chip", makeFingerprint({1, 2, 3}, 1, 256));
    EXPECT_FALSE(saveStore(store, "/dev/full"));
    EXPECT_FALSE(saveBitVec(BitVec(64, true), "/dev/full"));
}

TEST(Serialize, BitVecRoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_test.pcbv";
    BitVec bits(1000);
    bits.set(0);
    bits.set(7);
    bits.set(8);
    bits.set(999);
    ASSERT_TRUE(saveBitVec(bits, path));
    EXPECT_EQ(loadBitVec(path), bits);
    std::remove(path.c_str());
}

TEST(Serialize, EmptyBitVecRoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_empty.pcbv";
    ASSERT_TRUE(saveBitVec(BitVec(0), path));
    EXPECT_EQ(loadBitVec(path).size(), 0u);
    std::remove(path.c_str());
}

TEST(Serialize, BitVecBadMagicIsFatal)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_bad.pcbv";
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOPE data";
    }
    EXPECT_EXIT(loadBitVec(path), ::testing::ExitedWithCode(1), "");
    std::remove(path.c_str());
}

TEST(Serialize, BitVecTruncationIsFatal)
{
    const std::string path =
        ::testing::TempDir() + "pcause_bv_cut.pcbv";
    BitVec bits(64, true);
    ASSERT_TRUE(saveBitVec(bits, path));
    std::ifstream in(path, std::ios::binary);
    const std::string data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    in.close();
    // The payload chopped in half, and a header claiming 2^62 bits
    // over the same 8 payload bytes: both refused before the vector
    // is sized, never an allocation failure.
    std::string oversized = data;
    const std::uint64_t claimed = std::uint64_t{1} << 62;
    oversized.replace(8, sizeof(claimed),
                      reinterpret_cast<const char *>(&claimed),
                      sizeof(claimed));
    for (const std::string &cut : {data.substr(0, data.size() - 4),
                                   oversized}) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(cut.data(), static_cast<std::streamsize>(cut.size()));
        out.close();
        EXPECT_EXIT(loadBitVec(path), ::testing::ExitedWithCode(1),
                    "truncated");
    }
    std::remove(path.c_str());
}

TEST(Serialize, DurableSaveRoundTrips)
{
    const std::string path = "serialize_durable_test.pcdb";
    std::remove(path.c_str());
    FingerprintStore store;
    store.add("only", makeFingerprint({1, 5, 9}, 2));
    std::string err;
    ASSERT_TRUE(saveStoreDurable(store, path, &err)) << err;
    StoreLoadResult back = loadStore(path);
    ASSERT_TRUE(back) << back.error;
    EXPECT_EQ(back->size(), 1u);
    EXPECT_EQ(back->record(0).label, "only");
    std::remove(path.c_str());
}

TEST(Serialize, FailedDurableSaveLeavesTheOldSnapshotIntact)
{
    // The crash-safety contract of temp + rename: a save that dies
    // before the rename never damages the file being replaced.
    const std::string path = "serialize_durable_keep_test.pcdb";
    std::remove(path.c_str());
    FingerprintStore v1;
    v1.add("original", makeFingerprint({2, 4}, 1));
    ASSERT_TRUE(saveStoreDurable(v1, path));

    FingerprintStore v2;
    v2.add("replacement", makeFingerprint({8, 16}, 1));
    for (const char *point :
         {"store.save.write", "store.save.fsync",
          "store.save.rename"}) {
        pcause::failpoint::arm(point,
                               pcause::failpoint::Action::Oneshot);
        std::string err;
        EXPECT_FALSE(saveStoreDurable(v2, path, &err)) << point;
        EXPECT_FALSE(err.empty()) << point;
        pcause::failpoint::disarmAll();

        StoreLoadResult kept = loadStore(path);
        ASSERT_TRUE(kept) << point << ": " << kept.error;
        EXPECT_EQ(kept->record(0).label, "original") << point;
    }
    std::remove(path.c_str());
}

TEST(Serialize, InjectedLoadFailureIsACleanError)
{
    const std::string path = "serialize_loadfp_test.pcdb";
    FingerprintStore store;
    store.add("x", makeFingerprint({3}, 1));
    ASSERT_TRUE(saveStore(store, path));
    pcause::failpoint::arm("store.load",
                           pcause::failpoint::Action::Oneshot);
    StoreLoadResult r = loadStore(path);
    pcause::failpoint::disarmAll();
    EXPECT_FALSE(static_cast<bool>(r));
    EXPECT_NE(r.error.find("injected"), std::string::npos);
    // Next load (failpoint spent) succeeds.
    StoreLoadResult ok = loadStore(path);
    EXPECT_TRUE(static_cast<bool>(ok)) << ok.error;
    std::remove(path.c_str());
}

TEST(Serialize, SparseFormatBeatsRawDump)
{
    // The paper's storage claim: tracking only the ~1% volatile
    // bits. A 32 KB chip's record must be far below the 32 KB a raw
    // bitmap would cost, even with the signature trailer.
    const std::size_t weight = 2621; // 1% of 262144
    const std::size_t disk = recordDiskSize(weight, 16);
    EXPECT_LT(disk, 262144 / 8 / 2);
    EXPECT_GT(disk, weight * sizeof(std::uint32_t));

    // The trailer itself is the signature, a fixed k words.
    EXPECT_EQ(recordDiskSize(weight, 16) - recordDiskSize(weight, 16, 0),
              MinHashParams{}.numHashes * sizeof(std::uint32_t));
}

} // anonymous namespace
} // namespace pcause
