#include "core/serialize.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/pcdb_format.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"

namespace pcause
{

namespace
{

constexpr char dbMagic[4] = {'P', 'C', 'D', 'B'};
constexpr std::uint32_t dbVersionV1 = pcdb::versionV1;
constexpr std::uint32_t dbVersionV2 = pcdb::versionV2;
constexpr std::uint32_t dbVersionV3 = pcdb::versionV3;

/** Pre-allocation cap for the untrusted header record count. */
constexpr std::uint64_t maxPlausibleRecords = 1024;

/** Sanity cap on a chip label: real labels are tens of bytes. */
constexpr std::uint32_t maxLabelBytes = 1u << 16;

template <typename T>
void
writeScalar(std::ostream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

/**
 * Error-returning binary reader: every read either succeeds or
 * latches a formatted error message; once failed, further reads are
 * no-ops, so parse code can check once per record.
 */
class Reader
{
  public:
    explicit Reader(std::istream &stream) : in(stream) {}

    bool failed() const { return !msg.empty(); }
    const std::string &error() const { return msg; }

    void fail(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)))
    {
        if (failed())
            return;
        char buf[256];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        msg = buf;
    }

    template <typename T>
    bool read(T &value, const char *what)
    {
        if (failed())
            return false;
        in.read(reinterpret_cast<char *>(&value), sizeof(value));
        if (!in) {
            fail("truncated %s", what);
            return false;
        }
        return true;
    }

    bool readBytes(char *dst, std::size_t len, const char *what)
    {
        if (failed())
            return false;
        in.read(dst, static_cast<std::streamsize>(len));
        if (!in) {
            fail("truncated %s", what);
            return false;
        }
        return true;
    }

  private:
    std::istream &in;
    std::string msg;
};

/** One record as parsed off disk. */
struct RawRecord
{
    std::string label;
    std::uint32_t sources = 0;
    BitVec bits;
    MinHashSignature sig; //!< empty in v1 files
};

/** Parsed file: header parameters plus all records. */
struct RawDatabase
{
    std::uint32_t version = 0;
    MinHashParams index;
    std::vector<RawRecord> records;
};

/** Skip (and discard) @p bytes from the reader. */
void
skipBytes(Reader &r, std::uint64_t bytes, const char *what)
{
    char buf[4096];
    while (bytes > 0 && !r.failed()) {
        const std::size_t chunk = bytes < sizeof(buf)
                                      ? static_cast<std::size_t>(bytes)
                                      : sizeof(buf);
        r.readBytes(buf, chunk, what);
        bytes -= chunk;
    }
}

/**
 * Parse the body of a v3 stream (magic and version already
 * consumed). Validates the canonical layout (see
 * core/pcdb_format.hh), so every strict prefix of a valid file
 * fails with a truncation error and every offset mismatch is
 * rejected before any payload is interpreted.
 */
std::string
parseV3(Reader &r, RawDatabase &out)
{
    pcdb::V3Header h;
    std::uint32_t reserved = 0;
    r.read(h.numHashes, "minhash header");
    r.read(h.bands, "minhash header");
    r.read(h.probes, "minhash header");
    r.read(reserved, "header reserved");
    r.read(h.seed, "minhash header");
    r.read(h.recordCount, "record count");
    r.read(h.totalPositions, "position total");
    r.read(h.labelBytes, "label byte total");
    r.read(h.fileSize, "file size");
    r.read(h.recordTableOff, "section offsets");
    r.read(h.sigOff, "section offsets");
    r.read(h.posOff, "section offsets");
    r.read(h.labelOff, "section offsets");
    r.read(h.lshOff, "section offsets");
    if (r.failed())
        return r.error();
    if (h.numHashes == 0 || h.bands == 0 ||
        h.numHashes % h.bands != 0)
        return "invalid minhash parameters in header";
    if (reserved != 0)
        return "nonzero reserved header field";

    const pcdb::V3Layout lay =
        pcdb::v3Layout(h.recordCount, h.numHashes, h.totalPositions,
                       h.labelBytes, h.bands);
    if (h.recordTableOff != lay.recordTableOff ||
        h.sigOff != lay.sigOff || h.posOff != lay.posOff ||
        h.labelOff != lay.labelOff || h.lshOff != lay.lshOff ||
        h.fileSize != lay.fileSize)
        return "non-canonical v3 section layout";

    out.index.numHashes = h.numHashes;
    out.index.bands = h.bands;
    out.index.seed = h.seed;
    out.index.probes = h.probes;

    // --- record table ---------------------------------------------
    std::vector<pcdb::V3RecordEntry> entries;
    entries.reserve(std::min<std::uint64_t>(h.recordCount,
                                            maxPlausibleRecords));
    std::uint64_t next_label = 0, next_pos = 0;
    for (std::uint64_t i = 0; i < h.recordCount; ++i) {
        pcdb::V3RecordEntry e;
        r.read(e.labelOff, "record table");
        r.read(e.posOff, "record table");
        r.read(e.universe, "record table");
        r.read(e.labelLen, "record table");
        r.read(e.posCount, "record table");
        r.read(e.sources, "record table");
        r.read(e.reserved, "record table");
        if (r.failed())
            return r.error();
        if (e.labelLen > maxLabelBytes)
            return "implausible label length";
        if (e.labelOff != next_label || e.posOff != next_pos ||
            e.reserved != 0)
            return "non-canonical record table";
        if (e.sources == 0)
            return "record with zero sources";
        if (e.posCount > e.universe)
            return "more positions than universe bits";
        next_label += e.labelLen;
        next_pos += e.posCount;
        entries.push_back(e);
    }
    if (next_label != h.labelBytes)
        return "label arena size mismatch";
    if (next_pos != h.totalPositions)
        return "position arena size mismatch";

    out.records.resize(entries.size());

    // --- signature arena ------------------------------------------
    for (std::size_t i = 0; i < entries.size(); ++i) {
        out.records[i].sig.resize(h.numHashes);
        for (auto &hash : out.records[i].sig) {
            if (!r.read(hash, "signature arena"))
                return r.error();
        }
    }
    skipBytes(r, lay.posOff - (h.sigOff + h.recordCount *
                                              h.numHashes * 4),
              "signature padding");

    // --- position arena -------------------------------------------
    for (std::size_t i = 0; i < entries.size(); ++i) {
        RawRecord &rec = out.records[i];
        rec.sources = entries[i].sources;
        rec.bits = BitVec(entries[i].universe);
        std::uint32_t prev = 0;
        for (std::uint32_t p = 0; p < entries[i].posCount; ++p) {
            std::uint32_t pos = 0;
            if (!r.read(pos, "position arena"))
                return r.error();
            if (pos >= entries[i].universe)
                return "position beyond universe";
            if (p > 0 && pos <= prev)
                return "positions not strictly ascending";
            prev = pos;
            rec.bits.set(pos);
        }
    }
    skipBytes(r, lay.labelOff - (h.posOff + h.totalPositions * 4),
              "position padding");

    // --- label arena ----------------------------------------------
    for (std::size_t i = 0; i < entries.size(); ++i) {
        out.records[i].label.assign(entries[i].labelLen, '\0');
        r.readBytes(out.records[i].label.data(), entries[i].labelLen,
                    "label arena");
        if (r.failed())
            return r.error();
    }
    skipBytes(r, lay.lshOff - (h.labelOff + h.labelBytes),
              "label padding");

    // --- LSH section ----------------------------------------------
    // The stream loader rebuilds the in-memory index from the
    // signatures; the serialized buckets exist for the mmap reader.
    // Still consume and sanity-check them so a truncated or padded
    // tail cannot load silently.
    for (std::uint32_t band = 0; band < h.bands; ++band) {
        std::uint64_t count = 0;
        if (!r.read(count, "lsh band header"))
            return r.error();
        if (count != h.recordCount)
            return "lsh band entry count mismatch";
        skipBytes(r, pcdb::v3BandBytes(h.recordCount) - 8,
                  "lsh band");
        if (r.failed())
            return r.error();
    }
    return r.failed() ? r.error() : "";
}

/**
 * Parse a whole PCDB stream. Returns the database or an error
 * message (exactly one of the two).
 */
std::string
parseDatabase(std::istream &in, RawDatabase &out)
{
    Reader r(in);
    char magic[4];
    if (!r.readBytes(magic, sizeof(magic), "magic") ||
        std::memcmp(magic, dbMagic, sizeof(dbMagic)) != 0)
        return "not a Probable Cause database";
    if (!r.read(out.version, "version"))
        return r.error();
    if (out.version == dbVersionV3)
        return parseV3(r, out);
    if (out.version != dbVersionV1 && out.version != dbVersionV2) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "unsupported version %u",
                      out.version);
        return buf;
    }

    if (out.version >= dbVersionV2) {
        r.read(out.index.numHashes, "minhash header");
        r.read(out.index.bands, "minhash header");
        r.read(out.index.seed, "minhash header");
        if (r.failed())
            return r.error();
        if (out.index.numHashes == 0 || out.index.bands == 0 ||
            out.index.numHashes % out.index.bands != 0)
            return "invalid minhash parameters in header";
    }

    std::uint64_t count = 0;
    if (!r.read(count, "record count"))
        return r.error();
    // count is untrusted: a hostile or corrupt header can claim
    // 2^64 records. Cap the pre-allocation — a fabricated count
    // then fails cleanly on the first missing record instead of
    // dying in reserve().
    out.records.reserve(
        std::min<std::uint64_t>(count, maxPlausibleRecords));
    for (std::uint64_t i = 0; i < count; ++i) {
        RawRecord rec;
        std::uint32_t label_len = 0;
        r.read(label_len, "label length");
        if (r.failed())
            return r.error();
        if (label_len > maxLabelBytes)
            return "implausible label length";
        rec.label.assign(label_len, '\0');
        r.readBytes(rec.label.data(), label_len, "label");
        r.read(rec.sources, "source count");
        std::uint64_t universe = 0, positions = 0;
        r.read(universe, "universe size");
        r.read(positions, "position count");
        if (r.failed())
            return r.error();
        if (rec.sources == 0)
            return "record with zero sources";
        if (positions > universe)
            return "more positions than universe bits";

        rec.bits = BitVec(universe);
        for (std::uint64_t p = 0; p < positions; ++p) {
            std::uint32_t pos = 0;
            if (!r.read(pos, "position"))
                return r.error();
            if (pos >= universe)
                return "position beyond universe";
            rec.bits.set(pos);
        }

        if (out.version >= dbVersionV2) {
            rec.sig.resize(out.index.numHashes);
            for (auto &h : rec.sig) {
                if (!r.read(h, "signature"))
                    return r.error();
            }
        }
        out.records.push_back(std::move(rec));
    }
    return "";
}

/** Write one v2 record. */
void
writeRecord(std::ostream &out, const FingerprintRecord &rec,
            const MinHashSignature &sig)
{
    writeScalar<std::uint32_t>(
        out, static_cast<std::uint32_t>(rec.label.size()));
    out.write(rec.label.data(),
              static_cast<std::streamsize>(rec.label.size()));
    writeScalar<std::uint32_t>(out, rec.fingerprint.sources());
    writeScalar<std::uint64_t>(out, rec.fingerprint.bits().size());

    const auto positions = rec.fingerprint.bits().setBits();
    writeScalar<std::uint64_t>(out, positions.size());
    for (auto pos : positions)
        writeScalar<std::uint32_t>(out,
                                   static_cast<std::uint32_t>(pos));
    for (auto h : sig)
        writeScalar<std::uint32_t>(out, h);
}

/** Write the v2 header for @p params and @p count records. */
void
writeHeader(std::ostream &out, const MinHashParams &params,
            std::uint64_t count)
{
    out.write(dbMagic, sizeof(dbMagic));
    writeScalar<std::uint32_t>(out, dbVersionV2);
    writeScalar<std::uint32_t>(out, params.numHashes);
    writeScalar<std::uint32_t>(out, params.bands);
    writeScalar<std::uint64_t>(out, params.seed);
    writeScalar<std::uint64_t>(out, count);
}

/** Write @p n zero bytes (section padding). */
void
writePad(std::ostream &out, std::uint64_t n)
{
    static const char zeros[8] = {};
    while (n > 0) {
        const std::uint64_t chunk =
            n < sizeof(zeros) ? n : sizeof(zeros);
        out.write(zeros, static_cast<std::streamsize>(chunk));
        n -= chunk;
    }
}

} // anonymous namespace

bool
saveDatabase(const FingerprintDb &db, std::ostream &out)
{
    const MinHashParams params;
    writeHeader(out, params, db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
        const FingerprintRecord &rec = db.record(i);
        writeRecord(out, rec,
                    minhashSignature(rec.fingerprint.bits(), params));
    }
    return out.good();
}

bool
saveDatabase(const FingerprintDb &db, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    return saveDatabase(db, out);
}

bool
saveStore(const FingerprintStore &store, std::ostream &out)
{
    const MinHashParams &prm = store.indexParams();
    const SparseFingerprintArena &sparse = store.sparseFingerprints();
    const std::uint64_t n = store.size();

    std::uint64_t label_bytes = 0;
    for (std::size_t i = 0; i < n; ++i)
        label_bytes += store.record(i).label.size();
    const std::uint64_t total_pos = sparse.totalPositions();

    const pcdb::V3Layout lay = pcdb::v3Layout(
        n, prm.numHashes, total_pos, label_bytes, prm.bands);

    // --- header ---------------------------------------------------
    out.write(dbMagic, sizeof(dbMagic));
    writeScalar<std::uint32_t>(out, dbVersionV3);
    writeScalar<std::uint32_t>(out, prm.numHashes);
    writeScalar<std::uint32_t>(out, prm.bands);
    writeScalar<std::uint32_t>(out, prm.probes);
    writeScalar<std::uint32_t>(out, 0); // reserved
    writeScalar<std::uint64_t>(out, prm.seed);
    writeScalar<std::uint64_t>(out, n);
    writeScalar<std::uint64_t>(out, total_pos);
    writeScalar<std::uint64_t>(out, label_bytes);
    writeScalar<std::uint64_t>(out, lay.fileSize);
    writeScalar<std::uint64_t>(out, lay.recordTableOff);
    writeScalar<std::uint64_t>(out, lay.sigOff);
    writeScalar<std::uint64_t>(out, lay.posOff);
    writeScalar<std::uint64_t>(out, lay.labelOff);
    writeScalar<std::uint64_t>(out, lay.lshOff);

    // --- record table (canonical running arena offsets) -----------
    std::uint64_t next_label = 0, next_pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const FingerprintRecord &rec = store.record(i);
        const SparseView v = sparse.view(i);
        writeScalar<std::uint64_t>(out, next_label);
        writeScalar<std::uint64_t>(out, next_pos);
        writeScalar<std::uint64_t>(out, v.universe);
        writeScalar<std::uint32_t>(
            out, static_cast<std::uint32_t>(rec.label.size()));
        writeScalar<std::uint32_t>(
            out, static_cast<std::uint32_t>(v.count));
        writeScalar<std::uint32_t>(out, rec.fingerprint.sources());
        writeScalar<std::uint32_t>(out, 0); // reserved
        next_label += rec.label.size();
        next_pos += v.count;
    }

    // --- signature arena ------------------------------------------
    for (std::size_t i = 0; i < n; ++i) {
        const MinHashSignature &sig = store.signature(i);
        out.write(reinterpret_cast<const char *>(sig.data()),
                  static_cast<std::streamsize>(sig.size() *
                                               sizeof(std::uint32_t)));
    }
    writePad(out, lay.posOff -
                      (lay.sigOff + n * prm.numHashes *
                                        sizeof(std::uint32_t)));

    // --- position arena (the sparse arena, verbatim) --------------
    const auto &arena = sparse.positions();
    out.write(reinterpret_cast<const char *>(arena.data()),
              static_cast<std::streamsize>(arena.size() *
                                           sizeof(std::uint32_t)));
    writePad(out, lay.labelOff -
                      (lay.posOff + total_pos * sizeof(std::uint32_t)));

    // --- label arena ----------------------------------------------
    for (std::size_t i = 0; i < n; ++i) {
        const ChipLabel &label = store.record(i).label;
        out.write(label.data(),
                  static_cast<std::streamsize>(label.size()));
    }
    writePad(out, lay.lshOff - (lay.labelOff + label_bytes));

    // --- LSH section: per-band sorted (key, id) arrays ------------
    for (std::uint32_t band = 0; band < prm.bands; ++band) {
        const auto entries = store.index().bandEntries(band);
        PC_ASSERT(entries.size() == n,
                  "saveStore: band entry count mismatch");
        writeScalar<std::uint64_t>(out, entries.size());
        for (const auto &e : entries)
            writeScalar<std::uint64_t>(out, e.first);
        for (const auto &e : entries)
            writeScalar<std::uint32_t>(out, e.second);
        writePad(out, pcdb::v3BandBytes(n) -
                          (8 + entries.size() * 12));
    }
    return out.good();
}

bool
saveStore(const FingerprintStore &store, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    return saveStore(store, out);
}

bool
saveStoreDurable(const FingerprintStore &store,
                 const std::string &path, std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error)
            *error = "saveStoreDurable: " + why;
        return false;
    };

    // Same directory as the target so the rename is a same-fs
    // atomic replace; pid-suffixed so two writers never collide.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            return fail("cannot open " + tmp);
        const bool wrote =
            saveStore(store, out) && !failpoint::hit("store.save.write");
        out.flush();
        if (!wrote || !out.good()) {
            out.close();
            ::unlink(tmp.c_str());
            return fail("write to " + tmp + " failed");
        }
    }

    // fsync the temp image before the rename: rename-then-sync can
    // surface a zero-length file after a power cut.
    const int tfd = ::open(tmp.c_str(), O_RDONLY);
    if (tfd < 0) {
        ::unlink(tmp.c_str());
        return fail("reopen " + tmp + ": " + std::strerror(errno));
    }
    if (failpoint::hit("store.save.fsync") || ::fsync(tfd) != 0) {
        ::close(tfd);
        ::unlink(tmp.c_str());
        return fail("fsync " + tmp + " failed");
    }
    ::close(tfd);

    if (failpoint::hit("store.save.rename") ||
        ::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return fail("rename to " + path + " failed");
    }

    // Make the rename itself durable (best effort: some
    // filesystems refuse directory fsync).
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        (void)::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

DbLoadResult
loadDatabase(std::istream &in)
{
    RawDatabase raw;
    const std::string err = parseDatabase(in, raw);
    if (!err.empty())
        return {std::nullopt, "loadDatabase: " + err};

    FingerprintDb db;
    for (RawRecord &rec : raw.records) {
        db.add(std::move(rec.label),
               Fingerprint(std::move(rec.bits), rec.sources));
    }
    return {std::move(db), ""};
}

DbLoadResult
loadDatabase(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {std::nullopt, "loadDatabase: cannot open " + path};
    return loadDatabase(in);
}

StoreLoadResult
loadStore(std::istream &in)
{
    RawDatabase raw;
    const std::string err = parseDatabase(in, raw);
    if (!err.empty())
        return {std::nullopt, "loadStore: " + err};

    // One bulk add, so every index structure is sized once at its
    // exact final size instead of grown record by record.
    std::vector<ChipLabel> labels;
    std::vector<Fingerprint> fps;
    std::vector<MinHashSignature> sigs;
    labels.reserve(raw.records.size());
    fps.reserve(raw.records.size());
    sigs.reserve(raw.records.size());
    for (RawRecord &rec : raw.records) {
        labels.push_back(std::move(rec.label));
        fps.emplace_back(std::move(rec.bits), rec.sources);
        sigs.push_back(std::move(rec.sig));
    }
    raw.records.clear();

    const MinHashParams params =
        raw.version >= dbVersionV2 ? raw.index : MinHashParams{};
    if (raw.version < dbVersionV2) {
        // v1 carries no signatures: recompute on load.
        for (std::size_t i = 0; i < fps.size(); ++i)
            sigs[i] = minhashSignature(fps[i].bits(), params);
    }
    FingerprintStore store(params);
    store.addBatch(std::move(labels), std::move(fps), std::move(sigs),
                   params);
    return {std::move(store), ""};
}

StoreLoadResult
loadStore(const std::string &path)
{
    if (failpoint::hit("store.load"))
        return {std::nullopt,
                "loadStore: injected load failure for " + path};
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {std::nullopt, "loadStore: cannot open " + path};
    return loadStore(in);
}

bool
saveBitVec(const BitVec &bits, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out.write("PCBV", 4);
    writeScalar<std::uint32_t>(out, 1);
    writeScalar<std::uint64_t>(out, bits.size());
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits.get(i))
            byte |= static_cast<std::uint8_t>(1u << (i % 8));
        if (i % 8 == 7 || i + 1 == bits.size()) {
            out.put(static_cast<char>(byte));
            byte = 0;
        }
    }
    return out.good();
}

BitVec
loadBitVec(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("loadBitVec: cannot open %s", path.c_str());
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, "PCBV", 4) != 0)
        fatal("loadBitVec: %s is not a bit-vector dump",
              path.c_str());
    std::uint32_t version = 0;
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!in)
        fatal("loadBitVec: truncated input");
    if (version != 1)
        fatal("loadBitVec: unsupported version %u", version);
    std::uint64_t nbits = 0;
    in.read(reinterpret_cast<char *>(&nbits), sizeof(nbits));
    if (!in)
        fatal("loadBitVec: truncated input");

    BitVec bits(nbits);
    std::uint8_t byte = 0;
    for (std::uint64_t i = 0; i < nbits; ++i) {
        if (i % 8 == 0) {
            int c = in.get();
            if (c == EOF)
                fatal("loadBitVec: truncated input");
            byte = static_cast<std::uint8_t>(c);
        }
        if ((byte >> (i % 8)) & 1)
            bits.set(i);
    }
    return bits;
}

std::size_t
recordDiskSize(std::size_t weight, std::size_t label_len,
               std::size_t signature_hashes)
{
    return pcdb::v3RecordEntryBytes            // record-table entry
        + label_len                            // label arena share
        + weight * sizeof(std::uint32_t)       // position arena share
        + signature_hashes * sizeof(std::uint32_t); // signature arena
}

} // namespace pcause
