/**
 * @file
 * Unit tests for core/serialize — attacker database persistence:
 * the v3 round trip, the structural check both v3 readers share
 * (loadStore and MappedStore::open reject a damaged file with the
 * same reason), the re-sign of retired-scheme files on load, and the
 * recoverable LoadResult error reporting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/mapped_store.hh"
#include "core/pcdb_format.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"

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

/** The v3 image of @p store, read back from a file. */
std::string
v3Bytes(const FingerprintStore &store, const std::string &name)
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
    return pcdb::v3HeaderBytes + i * pcdb::v3RecordEntryBytes + field;
}

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

TEST(Serialize, EveryV3PrefixIsRejected)
{
    // Exhaustive prefix sweep over a small v3 file: no strict
    // prefix may load, crash, or loop in either reader — each must
    // fail with a clean error.
    FingerprintStore store;
    store.add("chip-a", makeFingerprint({1, 2, 3}, 2, 256));
    store.add("chip-b", makeFingerprint({9, 200}, 1, 256));
    const std::string bytes = v3Bytes(store, "pcause_prefix.pcdb");
    const std::string path =
        ::testing::TempDir() + "pcause_prefix_cut.pcdb";
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        spit(path, bytes.substr(0, cut));
        const StoreLoadResult r = loadStore(path);
        ASSERT_FALSE(r) << "prefix of " << cut << " of "
                        << bytes.size() << " bytes loaded";
        ASSERT_FALSE(r.error.empty());
        const LoadResult<MappedStore> m = MappedStore::open(path);
        ASSERT_FALSE(m) << "prefix of " << cut << " of "
                        << bytes.size() << " bytes opened";
        ASSERT_FALSE(m.error.empty());
    }
    // ... and the full file loads in both.
    spit(path, bytes);
    const StoreLoadResult full = loadStore(path);
    ASSERT_TRUE(full) << full.error;
    EXPECT_EQ(full->size(), 2u);
    EXPECT_TRUE(MappedStore::open(path));
    std::remove(path.c_str());
}

/** One damaged v3 file and the reason both readers must give. */
struct CorruptRow
{
    const char *what;
    std::size_t records; //!< 1 or 3 records of 256 bits
    std::function<void(std::string &)> damage;
    const char *reason;
    bool mappedToo = true; //!< false: positions, which mmap trusts
};

TEST(Serialize, CorruptFilesAreRejectedByBothReaders)
{
    FingerprintStore one;
    one.add("solo", makeFingerprint({1, 2, 3}, 2, 256));
    FingerprintStore three;
    three.add("chip-a", makeFingerprint({1, 2, 3}, 2, 256));
    three.add("chip-b", makeFingerprint({9, 200}, 1, 256));
    three.add("chip-c", makeFingerprint({7, 70, 170}, 3, 256));
    const std::string good[] = {v3Bytes(one, "pcause_one.pcdb"),
                                v3Bytes(three, "pcause_three.pcdb")};
    const auto u32At = [](const std::string &b, std::size_t off) {
        return pcdb::loadU32(
            reinterpret_cast<const std::uint8_t *>(b.data() + off));
    };
    const auto u64At = [](const std::string &b, std::size_t off) {
        return pcdb::loadU64(
            reinterpret_cast<const std::uint8_t *>(b.data() + off));
    };
    // Header fields and sections of the one-record file.
    const std::uint64_t pos_off = u64At(good[0], 80);
    const std::uint64_t lsh_off = u64At(good[0], 96);

    const std::vector<CorruptRow> rows = {
        {"bad magic", 1, [](std::string &b) { b[0] = 'X'; },
         "not a Probable Cause database"},
        {"a v2 file", 1,
         [](std::string &b) { patch<std::uint32_t>(b, 4, 2); },
         "unsupported version 2"},
        {"an unknown version", 1,
         [](std::string &b) { patch<std::uint32_t>(b, 4, 99); },
         "unsupported version 99"},
        {"bands not dividing the hashes", 1,
         [](std::string &b) { patch<std::uint32_t>(b, 12, 7); },
         "invalid minhash parameters"},
        {"unknown signature scheme", 1,
         [](std::string &b) { patch<std::uint32_t>(b, 20, 2); },
         "unknown signature scheme 2"},
        {"record count 2^64-1", 1,
         [](std::string &b) {
             patch<std::uint64_t>(b, 32, ~std::uint64_t{0});
         },
         "header counts exceed the file size"},
        {"inflated record count", 3,
         [](std::string &b) { patch<std::uint64_t>(b, 32, 4); },
         "non-canonical v3 section layout"},
        {"file size field off by one", 1,
         [&](std::string &b) {
             patch<std::uint64_t>(b, 56, b.size() + 1);
         },
         "header file size does not match the file"},
        {"trailing garbage", 1,
         [](std::string &b) { b += "garbage"; },
         "header file size does not match the file"},
        {"moved signature arena", 1,
         [&](std::string &b) {
             patch<std::uint64_t>(b, 72, u64At(b, 72) + 8);
         },
         "non-canonical v3 section layout"},
        {"label length 2^32-1", 1,
         [](std::string &b) {
             patch<std::uint32_t>(b, entryOff(0, 24),
                                  ~std::uint32_t{0});
         },
         "implausible label length"},
        {"label offset off by one", 3,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(1, 0), 1);
         },
         "non-canonical record table"},
        {"nonzero reserved entry field", 3,
         [](std::string &b) {
             patch<std::uint32_t>(b, entryOff(2, 36), 1);
         },
         "non-canonical record table"},
        {"zero sources", 3,
         [](std::string &b) {
             patch<std::uint32_t>(b, entryOff(1, 32), 0);
         },
         "record with zero sources"},
        {"universe 2^40+256", 1,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(0, 16),
                                  (std::uint64_t{1} << 40) + 256);
         },
         "universe exceeds 2^32 bits"},
        {"a second universe", 3,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(2, 16), 512);
         },
         "universe differs from record 0's"},
        {"more positions than universe bits", 1,
         [](std::string &b) {
             patch<std::uint64_t>(b, entryOff(0, 16), 2);
         },
         "more positions than universe bits"},
        {"last label one byte longer", 3,
         [&](std::string &b) {
             patch<std::uint32_t>(b, entryOff(2, 24),
                                  u32At(b, entryOff(2, 24)) + 1);
         },
         "label arena size mismatch"},
        {"last position count one higher", 3,
         [&](std::string &b) {
             patch<std::uint32_t>(b, entryOff(2, 28),
                                  u32At(b, entryOff(2, 28)) + 1);
         },
         "position arena size mismatch"},
        {"band entry count", 1,
         [&](std::string &b) { patch<std::uint64_t>(b, lsh_off, 2); },
         "lsh band entry count mismatch"},
        {"position past the universe", 1,
         [&](std::string &b) {
             patch<std::uint32_t>(b, pos_off + 8, 256);
         },
         "position beyond universe", false},
        {"repeated position", 1,
         [&](std::string &b) {
             patch<std::uint32_t>(b, pos_off + 4, 1);
         },
         "positions not strictly ascending", false},
    };

    const std::string path =
        ::testing::TempDir() + "pcause_corrupt.pcdb";
    for (const CorruptRow &row : rows) {
        std::string bytes = good[row.records == 1 ? 0 : 1];
        row.damage(bytes);
        spit(path, bytes);

        const StoreLoadResult loaded = loadStore(path);
        EXPECT_FALSE(loaded) << row.what;
        EXPECT_NE(loaded.error.find(row.reason), std::string::npos)
            << row.what << ": " << loaded.error;
        if (!row.mappedToo)
            continue;
        const LoadResult<MappedStore> mapped = MappedStore::open(path);
        EXPECT_FALSE(mapped) << row.what;
        // One check, one reason.
        EXPECT_EQ(reasonOf(mapped.error), reasonOf(loaded.error))
            << row.what;
    }

    // The undamaged files load in both readers.
    for (const std::string &bytes : good) {
        spit(path, bytes);
        EXPECT_TRUE(loadStore(path));
        EXPECT_TRUE(MappedStore::open(path));
    }
    std::remove(path.c_str());
}

TEST(Serialize, RetiredSchemeIsResignedOnLoadAndRefusedByMmap)
{
    MinHashParams custom;
    custom.numHashes = 48;
    custom.bands = 12;
    custom.seed = 0x5eedull;
    FingerprintStore store(custom);
    Rng rng(0x736368656d65ull);
    std::vector<BitVec> fps;
    for (std::size_t r = 0; r < 40; ++r) {
        BitVec bits(4096);
        while (bits.popcount() < 64)
            bits.set(rng.nextBelow(bits.size()));
        store.add("chip-" + std::to_string(r), Fingerprint(bits));
        fps.push_back(std::move(bits));
    }

    // A retired-scheme file: this writer's image marked scheme 0,
    // its signature arena overwritten as an old signer's values
    // would differ from today's.
    std::string bytes = v3Bytes(store, "pcause_scheme.pcdb");
    ASSERT_EQ(pcdb::loadU32(reinterpret_cast<const std::uint8_t *>(
                  bytes.data() + 20)),
              pcdb::schemeOnePermutation);
    patch<std::uint32_t>(bytes, 20, pcdb::schemeRetired);
    const std::uint64_t sig_off = pcdb::loadU64(
        reinterpret_cast<const std::uint8_t *>(bytes.data() + 72));
    std::memset(&bytes[sig_off], 0xa5,
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
    for (std::size_t q = 0; q < 2 * fps.size(); ++q) {
        BitVec es(4096);
        if (q < fps.size())
            es = fps[q];
        while (es.popcount() < (q < fps.size() ? 72u : 64u))
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

    // The mmap reader serves candidates from the on-disk band keys,
    // so it refuses the file and names the upgrade.
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    EXPECT_FALSE(mapped);
    EXPECT_NE(mapped.error.find("pcause db reindex"), std::string::npos)
        << mapped.error;
    std::remove(path.c_str());
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
