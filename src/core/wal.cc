#include "core/wal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "core/fingerprint.hh"
#include "core/pcdb_format.hh"
#include "util/failpoint.hh"

namespace pcause
{

namespace
{

constexpr char walMagic[4] = {'P', 'C', 'W', 'L'};
constexpr std::uint32_t walVersion = 1;
constexpr std::size_t walHeaderBytes = 16;
constexpr std::uint8_t entryKindAddRecord = 1;

void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** write() the whole buffer, riding out EINTR and short writes. */
bool
writeFully(int fd, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t done = 0;
    while (done < len) {
        const ssize_t w = ::write(fd, p + done, len - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(w);
    }
    return true;
}

/** fsync the directory containing @p path so a rename into it is
 *  itself durable. Best effort: some filesystems refuse. */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0)
        return;
    (void)::fsync(dfd);
    ::close(dfd);
}

std::string
errnoString(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** One decoded journal entry. */
struct WalEntry
{
    ChipLabel label;
    std::uint32_t sources = 0;
    std::uint64_t universe = 0;
    std::vector<std::uint32_t> positions;
};

/** Serialize one add into entry framing (length + crc + payload). */
std::vector<std::uint8_t>
encodeEntry(const ChipLabel &label, const Fingerprint &fp)
{
    const BitVec &bits = fp.bits();
    std::vector<std::uint32_t> positions(fp.weight());
    writePositions(bits, positions.data());
    std::vector<std::uint8_t> payload;
    payload.push_back(entryKindAddRecord);
    putU32(payload, static_cast<std::uint32_t>(label.size()));
    payload.insert(payload.end(), label.begin(), label.end());
    putU32(payload, fp.sources());
    putU64(payload, bits.size());
    putU64(payload, positions.size());
    for (const std::uint32_t p : positions)
        putU32(payload, p);

    std::vector<std::uint8_t> framed;
    framed.reserve(8 + payload.size());
    putU32(framed, static_cast<std::uint32_t>(payload.size()));
    putU32(framed, crc32(payload.data(), payload.size()));
    framed.insert(framed.end(), payload.begin(), payload.end());
    return framed;
}

/** Bounds-checked payload decode; empty string on success. */
std::string
decodeEntry(const std::uint8_t *p, std::size_t n, WalEntry &entry)
{
    std::size_t off = 0;
    if (n < 1)
        return "payload too short for kind";
    const std::uint8_t kind = p[off++];
    if (kind != entryKindAddRecord)
        return "unknown entry kind " + std::to_string(kind);
    if (n - off < 4)
        return "truncated label length";
    const std::uint32_t label_len = getU32(p + off);
    off += 4;
    if (n - off < label_len)
        return "truncated label";
    entry.label.assign(reinterpret_cast<const char *>(p + off),
                       label_len);
    off += label_len;
    if (n - off < 4 + 8 + 8)
        return "truncated fingerprint header";
    entry.sources = getU32(p + off);
    off += 4;
    entry.universe = getU64(p + off);
    off += 8;
    // pcdb::check()'s per-record rule, in its words: an entry no
    // database file may hold is corruption, refused before replay
    // applies anything.
    if (const char *why =
            pcdb::recordError(label_len, entry.sources, entry.universe))
        return why;
    const std::uint64_t count = getU64(p + off);
    off += 8;
    if ((n - off) / 4 < count)
        return "truncated position list";
    entry.positions.resize(static_cast<std::size_t>(count));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t pos = getU32(p + off);
        off += 4;
        if (pos >= entry.universe)
            return "position beyond the universe";
        if (i > 0 && pos <= prev)
            return "positions not strictly ascending";
        entry.positions[static_cast<std::size_t>(i)] = pos;
        prev = pos;
    }
    if (off != n)
        return "trailing bytes after position list";
    return {};
}

/**
 * Shared scan behind replay() and verify(): walks the file,
 * validates the header and every complete entry, and hands each
 * decoded entry to @p sink (which may be null for verify). Fills
 * @p stats; returns an error string on corruption.
 */
std::string
scanWal(const std::string &path, WalReplayStats &stats,
        const std::function<void(WalEntry &&)> *sink)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return errnoString("open");
    std::vector<std::uint8_t> bytes;
    {
        std::uint8_t chunk[1 << 16];
        std::size_t got;
        while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            bytes.insert(bytes.end(), chunk, chunk + got);
        const bool bad = std::ferror(f) != 0;
        std::fclose(f);
        if (bad)
            return "read failed";
    }

    if (bytes.size() < walHeaderBytes)
        return "truncated header (" + std::to_string(bytes.size()) +
               " bytes)";
    if (std::memcmp(bytes.data(), walMagic, sizeof(walMagic)) != 0)
        return "bad magic";
    const std::uint32_t version = getU32(bytes.data() + 4);
    if (version != walVersion)
        return "unsupported version " + std::to_string(version);
    stats.baseRecords = getU64(bytes.data() + 8);
    stats.goodBytes = walHeaderBytes;

    std::size_t off = walHeaderBytes;
    while (off < bytes.size()) {
        if (bytes.size() - off < 8) {
            stats.tornTail = true; // torn entry header
            break;
        }
        const std::uint32_t len = getU32(bytes.data() + off);
        const std::uint32_t want_crc = getU32(bytes.data() + off + 4);
        if (len == 0 || len > maxWalPayload)
            return "entry " + std::to_string(stats.entries) +
                   ": implausible length " + std::to_string(len);
        if (bytes.size() - off - 8 < len) {
            stats.tornTail = true; // torn payload
            break;
        }
        const std::uint8_t *payload = bytes.data() + off + 8;
        if (crc32(payload, len) != want_crc)
            return "entry " + std::to_string(stats.entries) +
                   ": checksum mismatch";
        WalEntry entry;
        const std::string err = decodeEntry(payload, len, entry);
        if (!err.empty())
            return "entry " + std::to_string(stats.entries) + ": " +
                   err;
        ++stats.entries;
        off += 8 + len;
        stats.goodBytes = off;
        if (sink != nullptr)
            (*sink)(std::move(entry));
    }
    return {};
}

} // anonymous namespace

Wal::~Wal()
{
    if (fd >= 0)
        ::close(fd);
}

Wal::Wal(Wal &&other) noexcept
    : fd(other.fd), filePath(std::move(other.filePath)),
      base(other.base), entryCount(other.entryCount)
{
    other.fd = -1;
}

Wal &
Wal::operator=(Wal &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = other.fd;
        filePath = std::move(other.filePath);
        base = other.base;
        entryCount = other.entryCount;
        other.fd = -1;
    }
    return *this;
}

LoadResult<Wal>
Wal::create(const std::string &path, std::uint64_t base_records)
{
    LoadResult<Wal> res;
    std::vector<std::uint8_t> header;
    header.insert(header.end(), walMagic, walMagic + 4);
    putU32(header, walVersion);
    putU64(header, base_records);

    // Temp + rename: the journal either appears with an intact
    // header or not at all; an existing journal is replaced
    // atomically (the checkpoint compaction path).
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) {
        res.error = "wal create: " + errnoString("open temp");
        return res;
    }
    if (!writeFully(tfd, header.data(), header.size()) ||
        ::fsync(tfd) != 0) {
        res.error = "wal create: " + errnoString("write header");
        ::close(tfd);
        ::unlink(tmp.c_str());
        return res;
    }
    ::close(tfd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        res.error = "wal create: " + errnoString("rename");
        ::unlink(tmp.c_str());
        return res;
    }
    fsyncParentDir(path);

    const int afd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (afd < 0) {
        res.error = "wal create: " + errnoString("reopen for append");
        return res;
    }
    Wal wal;
    wal.fd = afd;
    wal.filePath = path;
    wal.base = base_records;
    wal.entryCount = 0;
    res.value.emplace(std::move(wal));
    return res;
}

bool
Wal::append(const ChipLabel &label, const Fingerprint &fp,
            std::string *error)
{
    if (fd < 0) {
        if (error)
            *error = "wal append: journal is not open";
        return false;
    }
    const std::vector<std::uint8_t> framed = encodeEntry(label, fp);

    if (failpoint::hit("wal.append")) {
        if (error)
            *error = "wal append: injected write failure";
        return false;
    }
    // Torn-write injection: put a strict prefix of the entry on
    // disk, then fire the configured action — crash leaves the torn
    // tail for recovery to discard, error reports an unacked,
    // half-written entry (same recovery obligation).
    const failpoint::Action torn =
        failpoint::consume("wal.append.torn");
    if (torn != failpoint::Action::Off) {
        (void)writeFully(fd, framed.data(), framed.size() / 2);
        if (torn == failpoint::Action::Crash)
            failpoint::crashNow();
        if (error)
            *error = "wal append: injected torn write";
        return false;
    }

    if (!writeFully(fd, framed.data(), framed.size())) {
        if (error)
            *error = "wal append: " + errnoString("write");
        return false;
    }
    if (failpoint::hit("wal.fsync")) {
        if (error)
            *error = "wal append: injected fsync failure";
        return false;
    }
    if (::fsync(fd) != 0) {
        if (error)
            *error = "wal append: " + errnoString("fsync");
        return false;
    }
    ++entryCount;
    return true;
}

LoadResult<WalReplayStats>
Wal::replay(const std::string &path, FingerprintStore &store)
{
    LoadResult<WalReplayStats> res;
    if (failpoint::hit("wal.replay")) {
        res.error = "wal replay: injected failure";
        return res;
    }
    WalReplayStats stats;

    // Entries before (store.size() - baseRecords) are already in
    // the snapshot — the crash-between-compaction-and-journal-reset
    // window replays them as skips, not duplicates.
    std::vector<WalEntry> pending;
    const std::function<void(WalEntry &&)> sink =
        [&pending](WalEntry &&e) { pending.push_back(std::move(e)); };
    const std::string err = scanWal(path, stats, &sink);
    if (!err.empty()) {
        res.error = "wal replay: " + err;
        return res;
    }
    if (store.size() < stats.baseRecords) {
        res.error = "wal replay: journal extends a " +
                    std::to_string(stats.baseRecords) +
                    "-record snapshot but the store holds " +
                    std::to_string(store.size());
        return res;
    }
    const std::size_t skip = store.size() - stats.baseRecords;
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (i < skip) {
            ++stats.skipped;
            continue;
        }
        WalEntry &e = pending[i];
        // The store's admission check, asked before each add: an
        // entry it refuses (another bit count than the records
        // before it) fails the replay, so no snapshot holding it is
        // ever written.
        const std::string why =
            store.admitError(e.label.size(), e.sources, e.universe);
        if (!why.empty()) {
            res.error = "wal replay: entry " + std::to_string(i) + ": " +
                        why;
            return res;
        }
        BitVec bits(static_cast<std::size_t>(e.universe));
        for (const std::uint32_t pos : e.positions)
            bits.set(pos);
        store.add(std::move(e.label),
                  Fingerprint(std::move(bits), e.sources));
        ++stats.applied;
    }
    res.value = stats;
    return res;
}

WalVerifyResult
Wal::verify(const std::string &path)
{
    WalVerifyResult out;
    if (::access(path.c_str(), F_OK) != 0) {
        out.health = WalHealth::Missing;
        out.detail = "no journal file";
        return out;
    }
    WalReplayStats stats;
    const std::string err = scanWal(path, stats, nullptr);
    out.entries = stats.entries;
    out.baseRecords = stats.baseRecords;
    out.goodBytes = stats.goodBytes;
    if (!err.empty()) {
        out.health = WalHealth::Corrupt;
        out.detail = err;
        return out;
    }
    if (stats.tornTail) {
        out.health = WalHealth::Recoverable;
        out.detail = "torn tail after " +
                     std::to_string(stats.entries) +
                     " intact entries (discarded on replay)";
        return out;
    }
    out.health = WalHealth::Clean;
    return out;
}

} // namespace pcause
