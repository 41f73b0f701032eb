#include "core/serialize.hh"

#include <algorithm>
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
#include "util/crc32.hh"
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

/** Write @p len bytes at @p data, folding them into @p crc. */
void
writeCrc(std::ostream &out, const void *data, std::uint64_t len,
         std::uint32_t &crc)
{
    out.write(static_cast<const char *>(data),
              static_cast<std::streamsize>(len));
    crc = crc32(data, len, crc);
}

/** Write @p n zero bytes (section padding), folded into @p crc. */
void
writePadCrc(std::ostream &out, std::uint64_t n, std::uint32_t &crc)
{
    static const char zeros[8] = {};
    PC_ASSERT(n < sizeof(zeros), "section padding exceeds 7 bytes");
    writeCrc(out, zeros, n, crc);
}

/** Write @p store to @p out as a v4 image; false on IO failure. */
bool
writeStore(const FingerprintStore &store, std::ostream &out)
{
    const MinHashParams &prm = store.indexParams();
    const SparseFingerprintArena &sparse = store.sparseFingerprints();
    const LshIndex &lsh = store.index();
    const auto &postings = store.positionIndex();
    const std::uint64_t n = store.size();

    pcdb::Header h;
    h.numHashes = prm.numHashes;
    h.bands = prm.bands;
    h.probes = prm.probes;
    h.seed = prm.seed;
    h.recordCount = n;
    h.totalPositions = sparse.totalPositions();
    for (std::size_t i = 0; i < n; ++i)
        h.labelBytes += store.label(i).size();
    h.bandSlots = lsh.bandSlots(0).slots;
    h.postingLists = postings.size();
    std::vector<std::uint64_t> byte_off{0}, id_off{0};
    for (const std::vector<std::uint32_t> &ids : postings) {
        byte_off.push_back(byte_off.back() +
                           pcdb::postingListBytes(ids.data(), ids.size()));
        id_off.push_back(id_off.back() + ids.size());
    }
    h.postingBytes = byte_off.back();
    const pcdb::Layout lay = pcdb::layout(h);

    // --- header (CRCs patched in at the end) ----------------------
    out.write(pcdb::magic, sizeof(pcdb::magic));
    writeScalar<std::uint32_t>(out, pcdb::versionV4);
    writeScalar<std::uint32_t>(out, h.numHashes);
    writeScalar<std::uint32_t>(out, h.bands);
    writeScalar<std::uint32_t>(out, h.probes);
    writeScalar<std::uint32_t>(out, pcdb::schemeOnePermutation);
    writeScalar<std::uint64_t>(out, h.seed);
    writeScalar<std::uint64_t>(out, n);
    writeScalar<std::uint64_t>(out, h.totalPositions);
    writeScalar<std::uint64_t>(out, h.labelBytes);
    writeScalar<std::uint64_t>(out, lay.fileSize);
    writeScalar<std::uint64_t>(out, lay.recordTableOff);
    writeScalar<std::uint64_t>(out, lay.sigOff);
    writeScalar<std::uint64_t>(out, lay.posOff);
    writeScalar<std::uint64_t>(out, lay.labelOff);
    writeScalar<std::uint64_t>(out, lay.bandOff);
    writeScalar<std::uint64_t>(out, h.bandSlots);
    writeScalar<std::uint64_t>(out, h.postingLists);
    writeScalar<std::uint64_t>(out, h.postingBytes);
    writeScalar<std::uint64_t>(out, lay.postingsOff);
    writeScalar<std::uint32_t>(out, 0); // band section CRC
    writeScalar<std::uint32_t>(out, 0); // postings section CRC

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
    writePad(out, lay.labelOff - (lay.posOff + h.totalPositions *
                                                   sizeof(std::uint32_t)));

    // --- label arena ----------------------------------------------
    for (std::size_t i = 0; i < n; ++i) {
        const ChipLabel &label = store.label(i);
        out.write(label.data(),
                  static_cast<std::streamsize>(label.size()));
    }
    writePad(out, lay.bandOff - (lay.labelOff + h.labelBytes));

    // --- band section: each table's slot arrays, as held ----------
    std::uint32_t band_crc = 0;
    for (std::uint32_t band = 0; band < prm.bands; ++band) {
        const LshIndex::BandSlots t = lsh.bandSlots(band);
        PC_ASSERT(t.slots == h.bandSlots,
                  "saveStore: band tables differ in size");
        writeCrc(out, t.keys, t.slots * sizeof(std::uint64_t), band_crc);
        writeCrc(out, t.ids, t.slots * sizeof(std::uint32_t), band_crc);
        writePadCrc(out, pcdb::align8(t.slots * 4) - t.slots * 4,
                    band_crc);
    }

    // --- postings section: offsets, then the gap-coded lists ------
    std::uint32_t post_crc = 0;
    writeCrc(out, byte_off.data(), byte_off.size() * 8, post_crc);
    writeCrc(out, id_off.data(), id_off.size() * 8, post_crc);
    std::vector<std::uint8_t> buf;
    for (const std::vector<std::uint32_t> &ids : postings) {
        pcdb::encodePostingList(ids.data(), ids.size(), buf);
        if (buf.size() >= (1u << 16)) {
            writeCrc(out, buf.data(), buf.size(), post_crc);
            buf.clear();
        }
    }
    writeCrc(out, buf.data(), buf.size(), post_crc);
    writePadCrc(out, pcdb::align8(h.postingBytes) - h.postingBytes,
                post_crc);

    out.seekp(static_cast<std::streamoff>(pcdb::bandCrcOff));
    writeScalar<std::uint32_t>(out, band_crc);
    writeScalar<std::uint32_t>(out, post_crc);
    return out.good();
}

/** Buffered reads of one file, optionally folded into a CRC. */
class FileReader
{
  public:
    explicit FileReader(std::FILE *f) : f(f) {}

    bool seek(std::uint64_t off)
    {
        return ::fseeko(f, static_cast<off_t>(off), SEEK_SET) == 0;
    }

    bool read(void *dst, std::size_t len)
    {
        return len == 0 || std::fread(dst, 1, len, f) == len;
    }

    /** read() whose bytes also extend @p crc. */
    bool readCrc(void *dst, std::size_t len, std::uint32_t &crc)
    {
        if (!read(dst, len))
            return false;
        crc = crc32(dst, len, crc);
        return true;
    }

  private:
    std::FILE *f;
};

/**
 * Read a v4 file's band section into one key and one id array per
 * band, checking every occupied slot's id, each band's occupancy
 * and the section CRC. Returns the reason it failed, or empty.
 */
std::string
readBands(FileReader &in, const pcdb::Header &h,
          std::vector<std::vector<std::uint64_t>> &keys,
          std::vector<std::vector<std::uint32_t>> &ids)
{
    const std::uint64_t slots = h.bandSlots;
    const std::uint64_t pad = pcdb::align8(slots * 4) - slots * 4;
    keys.resize(h.bands);
    ids.resize(h.bands);
    std::uint32_t crc = 0;
    if (!in.seek(h.bandOff))
        return "cannot read the band section";
    for (std::uint32_t band = 0; band < h.bands; ++band) {
        keys[band].resize(slots);
        ids[band].resize(slots);
        std::uint8_t zeros[8];
        if (!in.readCrc(keys[band].data(), slots * 8, crc) ||
            !in.readCrc(ids[band].data(), slots * 4, crc) ||
            !in.readCrc(zeros, pad, crc))
            return "cannot read the band section";
        std::uint64_t occupied = 0;
        for (const std::uint32_t id : ids[band]) {
            if (id == LshIndex::emptySlot)
                continue;
            if (id >= h.recordCount)
                return "band slot id out of range";
            ++occupied;
        }
        if (occupied != h.recordCount)
            return "band occupied slot count mismatch";
    }
    if (crc != h.bandCrc)
        return "band section CRC mismatch";
    return {};
}

/**
 * Read a v4 file's postings section, decoding list p straight into
 * @p postings[p] through a window of the file a chunk (or one long
 * list) wide, after checking the lists against @p position_sum, the
 * sum of every record's positions. Returns the reason it failed, or
 * empty.
 */
std::string
readPostings(FileReader &in, const pcdb::Header &h,
             std::uint64_t position_sum,
             std::vector<std::vector<std::uint32_t>> &postings)
{
    const std::uint64_t lists = h.postingLists;
    const std::uint64_t total = h.postingBytes;
    std::vector<std::uint64_t> byte_off(lists + 1), id_off(lists + 1);
    std::uint32_t crc = 0;
    if (!in.seek(h.postingsOff) ||
        !in.readCrc(byte_off.data(), byte_off.size() * 8, crc) ||
        !in.readCrc(id_off.data(), id_off.size() * 8, crc))
        return "cannot read the postings section";
    std::uint64_t list_sum = 0;
    for (std::uint64_t p = 0; p < lists; ++p)
        list_sum += p * (id_off[p + 1] - id_off[p]);
    if (list_sum != position_sum)
        return "posting lists do not match the position arena";

    constexpr std::uint64_t chunk = 1u << 20;
    std::vector<std::uint8_t> window;
    std::uint64_t win_begin = 0, win_end = 0; // section byte range
    postings.resize(lists);
    for (std::uint64_t p = 0; p < lists; ++p) {
        const std::uint64_t b0 = byte_off[p], b1 = byte_off[p + 1];
        const std::uint64_t count = id_off[p + 1] - id_off[p];
        // pcdb::check() passed these offsets; the window arithmetic
        // below relies on it, so restate it where it is relied on.
        if (b0 < win_begin || b1 < b0 || b1 > total ||
            id_off[p + 1] < id_off[p] || count > h.totalPositions)
            return "non-monotone posting list offsets";
        if (b1 > win_end) {
            // Keep the list's bytes already read, then read on to
            // the chunk's end (or the list's, if it is longer).
            const std::uint64_t keep = win_end - b0;
            if (keep > 0)
                std::memmove(window.data(),
                             window.data() + (b0 - win_begin), keep);
            const std::uint64_t fill_to =
                std::min(total, b0 + std::max(chunk, b1 - b0));
            if (window.size() < fill_to - b0)
                window.resize(fill_to - b0);
            if (!in.readCrc(window.data() + keep, fill_to - win_end, crc))
                return "cannot read the postings section";
            win_begin = b0;
            win_end = fill_to;
        }

        std::vector<std::uint32_t> &ids = postings[p];
        ids.resize(count);
        std::size_t j = 0;
        const char *why = "zero or malformed posting gap";
        const std::uint8_t *list = window.data() + (b0 - win_begin);
        const bool whole = pcdb::decodePostingList(
            list, list + (b1 - b0), [&](std::uint64_t id) {
                if (j == count) {
                    why = "posting list bytes do not match its id count";
                    return false;
                }
                if (id >= h.recordCount) {
                    why = "posting id out of range";
                    return false;
                }
                ids[j++] = static_cast<std::uint32_t>(id);
                return true;
            });
        if (!whole)
            return why;
        if (j != count)
            return "posting list bytes do not match its id count";
    }
    std::uint8_t zeros[8];
    if (!in.readCrc(zeros, pcdb::align8(total) - total, crc))
        return "cannot read the postings section";
    if (crc != h.postingsCrc)
        return "postings section CRC mismatch";
    return {};
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
loadStore(const std::string &path, std::uint32_t *scheme_out,
          std::uint32_t *version_out)
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
    struct stat st{};
    if (::fstat(::fileno(file.get()), &st) != 0)
        return fail("cannot stat " + path);
    FileReader in(file.get());

    // The record table lands in the store's containers as the shared
    // check walks it.
    pcdb::Header h;
    std::vector<std::uint32_t> label_lens;
    std::vector<unsigned> sources;
    std::vector<std::uint64_t> offsets{0};
    std::vector<std::uint64_t> universes;
    const std::string err = pcdb::check(
        static_cast<std::uint64_t>(st.st_size),
        [&](std::uint64_t off, void *dst, std::size_t len) {
            return in.seek(off) && in.read(dst, len);
        },
        h,
        [&](const pcdb::RecordEntry &e) {
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
        bool ok = in.seek(h.sigOff);
        for (MinHashSignature &sig : sigs)
            ok = ok && in.read(sig.data(), sig.size() * sizeof(sig[0]));
        if (!ok)
            return fail("cannot read the signature arena");
    }

    // Positions are checked as they are read, and summed: a v4
    // file's posting lists must hold the same sum (each list's
    // position times its length), so no position the lists do not
    // hold gets past the loader.
    PosVec positions(h.totalPositions);
    if (!in.seek(h.posOff) ||
        !in.read(positions.data(),
                 positions.size() * sizeof(positions[0])))
        return fail("cannot read the position arena");
    std::uint64_t position_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const std::uint32_t pos = positions[k];
            if (pos >= universes[i])
                return fail("position beyond universe");
            if (k > offsets[i] && pos <= positions[k - 1])
                return fail("positions not strictly ascending");
            position_sum += pos;
        }
    }

    std::vector<ChipLabel> labels(n);
    bool ok = in.seek(h.labelOff);
    for (std::size_t i = 0; i < n; ++i) {
        labels[i].resize(label_lens[i]);
        ok = ok && in.read(labels[i].data(), label_lens[i]);
    }
    if (!ok)
        return fail("cannot read the label arena");

    SparseFingerprintArena arena(std::move(positions), std::move(offsets),
                                 std::move(universes));
    if (scheme_out)
        *scheme_out = h.scheme;
    if (version_out)
        *version_out = h.version;
    if (h.version == pcdb::versionV3) {
        // A v3 file holds no position index and its band trailer is
        // not a table: both are rebuilt from the records.
        if (resign)
            sigs = signArena(arena, h.minhashParams(), nullptr);
        FingerprintStore store(h.minhashParams());
        store.addBatch(std::move(labels), std::move(sources),
                       std::move(arena), std::move(sigs));
        return {std::move(store), ""};
    }

    // v4: the index sections are read as stored.
    std::vector<std::vector<std::uint64_t>> keys;
    std::vector<std::vector<std::uint32_t>> ids;
    std::string why = readBands(in, h, keys, ids);
    std::vector<std::vector<std::uint32_t>> postings;
    if (why.empty())
        why = readPostings(in, h, position_sum, postings);
    if (!why.empty())
        return fail(why);
    return {FingerprintStore::adopt(
                std::move(labels), std::move(sources), std::move(arena),
                std::move(sigs),
                LshIndex(h.minhashParams(), n, std::move(keys),
                         std::move(ids)),
                std::move(postings)),
            ""};
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
               std::size_t signature_hashes, std::size_t bands)
{
    return pcdb::recordEntryBytes              // record-table entry
        + label_len                            // label arena share
        + weight * sizeof(std::uint32_t)       // position arena share
        + signature_hashes * sizeof(std::uint32_t) // signature arena
        // a 12-byte slot per band at the bulk build's ~0.7 load
        + bands * 12 * 10 / 7
        // a one-byte gap per posting: a position shared by more
        // than 1 in 128 records
        + weight;
}

} // namespace pcause
