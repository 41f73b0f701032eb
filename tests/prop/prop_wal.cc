/**
 * @file
 * Write-ahead-journal properties: a journal replays back exactly the
 * adds that went through it (labels, bits, sources); *every* crash
 * prefix of a journal recovers cleanly — complete entries survive, a
 * torn tail is discarded, never a crash or a half-applied record;
 * flipped payload bytes are refused as corruption, not replayed;
 * compacting through AttackService::openDurable is equivalent to
 * replaying the journal by hand; and the slicing-by-8 CRC-32 that
 * checks entries (and PCDB v4's index sections) equals the bytewise
 * reflected CRC-32 on any bytes, however a computation is chained.
 */

#include "prop_common.hh"

#include <cstdio>
#include <fstream>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "core/service.hh"
#include "core/wal.hh"

using namespace pcause;
using pcheck::Ctx;

namespace
{

/** Per-process scratch path (trials reuse it; each test rewrites). */
std::string
scratchPath(const char *tag)
{
    return std::string("./prop_wal.") + tag + "." +
           std::to_string(::getpid());
}

std::uint64_t
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path,
         const std::vector<std::uint8_t> &bytes, std::size_t count)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(count));
}

/** A base store plus a journal of extra adds on top of it. */
struct JournalFixture
{
    FingerprintDb db;        //!< all records, base + journaled
    std::size_t baseCount = 0;
    std::string walPath;
    std::vector<std::uint64_t> entryEnds; //!< offset after entry i

    FingerprintStore baseStore() const
    {
        FingerprintStore store;
        for (std::size_t i = 0; i < baseCount; ++i)
            store.add(db.record(i).label, db.record(i).fingerprint);
        return store;
    }
};

JournalFixture
genJournal(Ctx &ctx, const char *tag)
{
    JournalFixture fx;
    fx.baseCount = ctx.sizeRange(0, 3, "base_records");
    const std::size_t extra = ctx.sizeRange(1, 5, "journal_records");
    const std::size_t total = fx.baseCount + extra;
    fx.db = pcheck::genDb(ctx, 64 * total, total);
    fx.walPath = scratchPath(tag) + ".wal";
    std::remove(fx.walPath.c_str());

    LoadResult<Wal> wal = Wal::create(fx.walPath, fx.baseCount);
    PCHECK_MSG(static_cast<bool>(wal), wal.error);
    for (std::size_t i = fx.baseCount; i < total; ++i) {
        std::string err;
        PCHECK_MSG(wal->append(fx.db.record(i).label,
                               fx.db.record(i).fingerprint, &err),
                   err);
        fx.entryEnds.push_back(fileSize(fx.walPath));
    }
    return fx;
}

void
expectStoreMatchesDb(const FingerprintStore &store,
                     const FingerprintDb &db, std::size_t count)
{
    PCHECK_EQ(store.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        PCHECK_EQ(store.record(i).label, db.record(i).label);
        PCHECK(store.record(i).fingerprint.bits() ==
               db.record(i).fingerprint.bits());
        PCHECK_EQ(store.record(i).fingerprint.sources(),
                  db.record(i).fingerprint.sources());
    }
}

} // namespace

PCHECK_PROPERTY(PropWal, ReplayRoundTripIdentity, [](Ctx &ctx) {
    const JournalFixture fx = genJournal(ctx, "roundtrip");
    const std::size_t total = fx.db.size();

    FingerprintStore store = fx.baseStore();
    LoadResult<WalReplayStats> stats = Wal::replay(fx.walPath, store);
    PCHECK_MSG(static_cast<bool>(stats), stats.error);
    PCHECK_EQ(stats->applied, total - fx.baseCount);
    PCHECK_EQ(stats->skipped, 0u);
    PCHECK(!stats->tornTail);
    PCHECK_EQ(stats->baseRecords, fx.baseCount);
    expectStoreMatchesDb(store, fx.db, total);

    const WalVerifyResult v = Wal::verify(fx.walPath);
    PCHECK(v.health == WalHealth::Clean);
    PCHECK_EQ(v.entries, total - fx.baseCount);
    std::remove(fx.walPath.c_str());
})

PCHECK_PROPERTY(PropWal, EveryCrashPrefixRecovers, [](Ctx &ctx) {
    const JournalFixture fx = genJournal(ctx, "prefix");
    const std::vector<std::uint8_t> full = readAll(fx.walPath);
    const std::size_t cut = ctx.below(full.size() + 1, "cut_bytes");
    ctx.note("file_bytes", full.size());
    writeAll(fx.walPath, full, cut);

    FingerprintStore store = fx.baseStore();
    LoadResult<WalReplayStats> stats = Wal::replay(fx.walPath, store);
    if (cut < 16) {
        // Impossible for a single-appender crash (the header is
        // created via rename), but still a clean refusal.
        PCHECK_MSG(!static_cast<bool>(stats),
                   "a torn header replayed successfully");
        std::remove(fx.walPath.c_str());
        return;
    }
    PCHECK_MSG(static_cast<bool>(stats), stats.error);

    // Complete entries in the prefix survive; the torn tail is
    // discarded; goodBytes points at the last intact boundary.
    std::size_t complete = 0;
    std::uint64_t lastBoundary = 16;
    for (const std::uint64_t end : fx.entryEnds) {
        if (end <= cut) {
            ++complete;
            lastBoundary = end;
        }
    }
    PCHECK_EQ(stats->entries, complete);
    PCHECK_EQ(stats->applied, complete);
    PCHECK_EQ(stats->goodBytes, lastBoundary);
    PCHECK_EQ(stats->tornTail,
              static_cast<std::uint64_t>(cut) != lastBoundary);
    expectStoreMatchesDb(store, fx.db, fx.baseCount + complete);

    const WalVerifyResult v = Wal::verify(fx.walPath);
    PCHECK(v.health == (stats->tornTail ? WalHealth::Recoverable
                                        : WalHealth::Clean));
    std::remove(fx.walPath.c_str());
})

PCHECK_PROPERTY(PropWal, FlippedPayloadByteIsCorruption, [](Ctx &ctx) {
    const JournalFixture fx = genJournal(ctx, "corrupt");
    std::vector<std::uint8_t> bytes = readAll(fx.walPath);

    // Flip one byte inside a complete entry, at or after its CRC
    // field — either the checksum no longer matches the payload or
    // the stored checksum itself changed. Length-field flips are
    // excluded: those can legitimately read as a torn tail.
    const std::size_t which =
        ctx.below(fx.entryEnds.size(), "entry");
    const std::uint64_t start =
        which == 0 ? 16 : fx.entryEnds[which - 1];
    const std::uint64_t end = fx.entryEnds[which];
    const std::size_t offset =
        static_cast<std::size_t>(start) + 4 +
        ctx.below(static_cast<std::size_t>(end - start) - 4, "byte");
    const std::uint8_t flip =
        static_cast<std::uint8_t>(1u << ctx.below(8, "bit"));
    bytes[offset] ^= flip;
    writeAll(fx.walPath, bytes, bytes.size());

    const WalVerifyResult v = Wal::verify(fx.walPath);
    PCHECK_MSG(v.health == WalHealth::Corrupt,
               "flipped byte was not reported as corruption");
    FingerprintStore store = fx.baseStore();
    LoadResult<WalReplayStats> stats = Wal::replay(fx.walPath, store);
    PCHECK_MSG(!static_cast<bool>(stats),
               "corrupt journal replayed successfully");
    std::remove(fx.walPath.c_str());
})

PCHECK_PROPERTY(PropWal, CheckpointEqualsReplay, [](Ctx &ctx) {
    // Drive adds through the durable service, reopen (which
    // compacts journal into snapshot), and require the exact store
    // a by-hand snapshot+replay would produce.
    const std::size_t count = ctx.sizeRange(1, 6, "records");
    const FingerprintDb db = pcheck::genDb(ctx, 64 * count, count);
    const std::string dbPath = scratchPath("ckpt") + ".pcdb";
    const std::string walPath = dbPath + ".wal";
    std::remove(dbPath.c_str());
    std::remove(walPath.c_str());

    AttackService::DurabilityConfig dur;
    dur.dbPath = dbPath;
    dur.walPath = walPath;
    // Sometimes force mid-stream compactions, sometimes never.
    dur.checkpointEvery = ctx.below(2, "compact") == 0
                              ? 2
                              : 1u << 20;
    {
        LoadResult<AttackService> svc = AttackService::openDurable(dur);
        PCHECK_MSG(static_cast<bool>(svc), svc.error);
        for (std::size_t i = 0; i < count; ++i) {
            const AttackService::AddOutcome out = svc->addRecord(
                db.record(i).label, db.record(i).fingerprint);
            PCHECK_MSG(out.added, out.error);
        }
        // Process "dies" here: no checkpoint, no destructor help —
        // everything acked must come back from snapshot + journal.
    }
    LoadResult<AttackService> back = AttackService::openDurable(dur);
    PCHECK_MSG(static_cast<bool>(back), back.error);
    PCHECK(back->store() != nullptr);
    expectStoreMatchesDb(*back->store(), db, count);
    // openDurable compacts: journal empty, snapshot complete.
    PCHECK_EQ(back->walEntries(), 0u);
    const WalVerifyResult v = Wal::verify(walPath);
    PCHECK(v.health == WalHealth::Clean);
    PCHECK_EQ(v.baseRecords, count);
    std::remove(dbPath.c_str());
    std::remove(walPath.c_str());
})

namespace
{

/** The bytewise reflected CRC-32 (poly 0xEDB88320), bit by bit. */
std::uint32_t
referenceCrc32(const std::vector<std::uint8_t> &bytes)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : bytes) {
        c ^= b;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

} // namespace

TEST(PropWal, Crc32CheckValue)
{
    // The CRC-32 catalogue's check value: journals written before the
    // slicing-by-8 table stay readable.
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(check, 0), 0u);
}

PCHECK_PROPERTY(PropWal, Crc32EqualsBytewiseReference, [](Ctx &ctx) {
    std::vector<std::uint8_t> bytes(ctx.sizeRange(0, 100, "len"));
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(ctx.below(256, "byte"));
    const std::size_t split = ctx.below(bytes.size() + 1, "split");
    const std::uint32_t want = referenceCrc32(bytes);
    PCHECK_EQ(crc32(bytes.data(), bytes.size()), want);
    PCHECK_EQ(crc32(bytes.data() + split, bytes.size() - split,
                    crc32(bytes.data(), split)),
              want);
})
