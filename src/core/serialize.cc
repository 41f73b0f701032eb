#include "core/serialize.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
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

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

template <typename T>
void
writeScalar(std::ostream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
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

/** Write @p store to @p out as a v3 image; false on IO failure. */
bool
writeStore(const FingerprintStore &store, std::ostream &out)
{
    const MinHashParams &prm = store.indexParams();
    const SparseFingerprintArena &sparse = store.sparseFingerprints();
    const std::uint64_t n = store.size();

    std::uint64_t label_bytes = 0;
    for (std::size_t i = 0; i < n; ++i)
        label_bytes += store.label(i).size();
    const std::uint64_t total_pos = sparse.totalPositions();

    const pcdb::V3Layout lay = pcdb::v3Layout(
        n, prm.numHashes, total_pos, label_bytes, prm.bands);

    // --- header ---------------------------------------------------
    out.write(pcdb::magic, sizeof(pcdb::magic));
    writeScalar<std::uint32_t>(out, pcdb::versionV3);
    writeScalar<std::uint32_t>(out, prm.numHashes);
    writeScalar<std::uint32_t>(out, prm.bands);
    writeScalar<std::uint32_t>(out, prm.probes);
    writeScalar<std::uint32_t>(out, pcdb::schemeOnePermutation);
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
        const std::size_t label_len = store.label(i).size();
        const SparseView v = sparse.view(i);
        writeScalar<std::uint64_t>(out, next_label);
        writeScalar<std::uint64_t>(out, next_pos);
        writeScalar<std::uint64_t>(out, v.universe);
        writeScalar<std::uint32_t>(
            out, static_cast<std::uint32_t>(label_len));
        writeScalar<std::uint32_t>(
            out, static_cast<std::uint32_t>(v.count));
        writeScalar<std::uint32_t>(out, store.sources(i));
        writeScalar<std::uint32_t>(out, 0); // reserved
        next_label += label_len;
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
        const ChipLabel &label = store.label(i);
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

} // anonymous namespace

bool
saveStore(const FingerprintStore &store, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    writeStore(store, out);
    // close() flushes: a write that fails only then must still fail
    // the save.
    out.close();
    return !out.fail();
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
            writeStore(store, out) && !failpoint::hit("store.save.write");
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

StoreLoadResult
loadStore(const std::string &path, std::uint32_t *scheme_out)
{
    const auto fail = [](const std::string &why) -> StoreLoadResult {
        return {std::nullopt, "loadStore: " + why};
    };
    if (failpoint::hit("store.load"))
        return fail("injected load failure for " + path);
    const std::unique_ptr<std::FILE, FileCloser> file(
        std::fopen(path.c_str(), "rb"));
    if (!file)
        return fail("cannot open " + path);
    std::FILE *f = file.get();
    struct stat st{};
    if (::fstat(::fileno(f), &st) != 0)
        return fail("cannot stat " + path);
    const auto seek = [f](std::uint64_t off) {
        return ::fseeko(f, static_cast<off_t>(off), SEEK_SET) == 0;
    };
    const auto readNext = [f](void *dst, std::size_t len) {
        return len == 0 || std::fread(dst, 1, len, f) == len;
    };

    // The record table lands in the store's containers as the shared
    // check walks it.
    pcdb::V3Header h;
    std::vector<std::uint32_t> label_lens;
    std::vector<unsigned> sources;
    std::vector<std::uint64_t> offsets{0};
    std::vector<std::uint64_t> universes;
    const std::string err = pcdb::checkV3(
        static_cast<std::uint64_t>(st.st_size),
        [&](std::uint64_t off, void *dst, std::size_t len) {
            return seek(off) && readNext(dst, len);
        },
        h,
        [&](const pcdb::V3RecordEntry &e) {
            label_lens.push_back(e.labelLen);
            sources.push_back(e.sources);
            offsets.push_back(offsets.back() + e.posCount);
            universes.push_back(e.universe);
        });
    if (!err.empty())
        return fail(err);

    // Each arena is read once, straight into the container the store
    // keeps: no arena-sized staging buffer. A retired-scheme file's
    // signatures are not read at all: the records are re-signed from
    // their positions below.
    const std::size_t n = sources.size();
    const bool resign = h.scheme == pcdb::schemeRetired;
    std::vector<MinHashSignature> sigs;
    if (!resign) {
        sigs.assign(n, MinHashSignature(h.numHashes));
        bool ok = seek(h.sigOff);
        for (MinHashSignature &sig : sigs)
            ok = ok && readNext(sig.data(), sig.size() * sizeof(sig[0]));
        if (!ok)
            return fail("cannot read the signature arena");
    }

    PosVec positions(h.totalPositions);
    if (!seek(h.posOff) ||
        !readNext(positions.data(),
                  positions.size() * sizeof(positions[0])))
        return fail("cannot read the position arena");
    for (std::size_t i = 0; i < n; ++i) {
        for (std::uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            if (positions[k] >= universes[i])
                return fail("position beyond universe");
            if (k > offsets[i] && positions[k] <= positions[k - 1])
                return fail("positions not strictly ascending");
        }
    }

    std::vector<ChipLabel> labels(n);
    bool ok = seek(h.labelOff);
    for (std::size_t i = 0; i < n; ++i) {
        labels[i].resize(label_lens[i]);
        ok = ok && readNext(labels[i].data(), label_lens[i]);
    }
    if (!ok)
        return fail("cannot read the label arena");

    // The LSH index is rebuilt from the signatures; the serialized
    // band tables exist for the mmap reader.
    SparseFingerprintArena arena(std::move(positions), std::move(offsets),
                                 std::move(universes));
    if (resign)
        sigs = signArena(arena, h.minhashParams(), nullptr);
    FingerprintStore store(h.minhashParams());
    store.addBatch(std::move(labels), std::move(sources),
                   std::move(arena), std::move(sigs));
    if (scheme_out)
        *scheme_out = h.scheme;
    return {std::move(store), ""};
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
    out.close();
    return !out.fail();
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
    // Size the vector only once the file is known to hold its
    // payload: the header alone must not trigger a huge allocation.
    const std::streamoff payload_start = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff payload_bytes = in.tellg() - payload_start;
    in.seekg(payload_start);
    const std::uint64_t need = nbits / 8 + (nbits % 8 != 0);
    if (!in || payload_bytes < 0 ||
        static_cast<std::uint64_t>(payload_bytes) < need)
        fatal("loadBitVec: %s is truncated: its header claims %llu "
              "bits, %lld payload bytes follow",
              path.c_str(), (unsigned long long)nbits,
              (long long)payload_bytes);

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
