#include "core/serialize.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <ostream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/pcdb_format.hh"
#include "util/crc32.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

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

/** Write @p store to @p out as a v5 image; false on IO failure. */
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
    writeScalar<std::uint32_t>(out, pcdb::versionV5);
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
        writeScalar<std::uint64_t>(out, sparse.bitCount());
        writeScalar<std::uint32_t>(
            out, static_cast<std::uint32_t>(label_len));
        writeScalar<std::uint32_t>(
            out, static_cast<std::uint32_t>(v.count));
        writeScalar<std::uint32_t>(out, store.sources(i));
        writeScalar<std::uint32_t>(out, 0); // reserved
        next_label += label_len;
        next_pos += v.count;
    }

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

/** Bytes a load task reads at a time, straight into the store's
 *  containers or into a buffer of its own. */
constexpr std::size_t readChunk = 1u << 18;

/** Bytes of file a load task takes at least, and a load's own pool
 *  gets a lane per: below that a lane costs more than it saves. */
constexpr std::uint64_t taskBytes = 1u << 20;

/** A file open for reads at any offset, from any thread. */
class LoadFile
{
  public:
    explicit LoadFile(const std::string &path)
        : fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC))
    {
    }
    ~LoadFile()
    {
        if (fd >= 0)
            ::close(fd);
    }
    LoadFile(const LoadFile &) = delete;
    LoadFile &operator=(const LoadFile &) = delete;

    bool isOpen() const { return fd >= 0; }

    /** Its size in bytes; false when it cannot be stat'ed. */
    bool size(std::uint64_t &bytes) const
    {
        struct stat st{};
        if (::fstat(fd, &st) != 0)
            return false;
        bytes = static_cast<std::uint64_t>(st.st_size);
        return true;
    }

    /** Read exactly @p len bytes at @p off into @p dst. */
    bool readAt(std::uint64_t off, void *dst, std::size_t len) const
    {
        auto *p = static_cast<char *>(dst);
        while (len > 0) {
            const ssize_t got =
                ::pread(fd, p, len, static_cast<off_t>(off));
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                return false;
            p += got;
            off += static_cast<std::uint64_t>(got);
            len -= static_cast<std::size_t>(got);
        }
        return true;
    }

  private:
    int fd;
};

/**
 * The reasons a load's checks give, one slot per check and task, in
 * the order a serial read of the file reaches them. Tasks fill their
 * own slots, in any order; the load reports the first filled slot,
 * so its reason does not depend on the lane count or on which task
 * ends first.
 */
class Failures
{
  public:
    /** Claim @p n slots after those claimed so far; returns the
     *  first. */
    std::size_t claim(std::size_t n)
    {
        why.resize(why.size() + n, nullptr);
        return why.size() - n;
    }

    void set(std::size_t slot, const char *reason) { why[slot] = reason; }

    /** The first recorded reason, or empty. */
    std::string first() const
    {
        for (const char *w : why) {
            if (w)
                return w;
        }
        return {};
    }

  private:
    std::vector<const char *> why;
};

/**
 * The payload half of a load of a file pcdb::check() passed. Every
 * section the store keeps is read straight into its container (no
 * arena-sized staging buffer) and checked as it lands, in tasks a
 * pool runs in any order, so each page is first touched by the lane
 * that fills it; a signature arena (v3, v4) is not read:
 *  - record shards of about equal bytes: positions (each inside the
 *    file's universe and strictly ascending, and summed), then
 *    labels;
 *  - past v3: one task per band, which checks its slot ids and
 *    occupancy; posting-list ranges of about equal bytes, each list
 *    decoded straight into its own (gaps, ids, lengths); and each
 *    section's CRC over the file's bytes.
 * Then the lists' position sum (each list's position times its
 * length) must equal the positions', so no position the lists do not
 * hold gets past the loader.
 */
class PayloadReader
{
  public:
    PayloadReader(const LoadFile &file, const pcdb::Header &header,
                  std::size_t lanes, std::vector<std::uint64_t> offsets,
                  std::vector<std::uint64_t> label_offsets);

    /** Read and check every payload on @p pool; returns the first
     *  failure's reason in file order, or empty. */
    std::string run(ThreadPool &pool);

    // What the store adopts; a v3 file holds no band tables or
    // posting lists.
    PosVec positions;
    std::vector<std::uint64_t> offsets; //!< per record, and the total
    std::vector<ChipLabel> labels;
    std::vector<std::vector<std::uint64_t>> keys;
    std::vector<std::vector<std::uint32_t>> ids;
    std::vector<std::vector<std::uint32_t>> postings;

  private:
    void readRecords(std::size_t shard);
    void readBand(std::uint32_t band);
    void readLists(std::size_t range);
    /** Check the CRC-32 of the @p len bytes at @p off against
     *  @p want, a chunk at a time. */
    void checkCrc(std::size_t slot, std::uint64_t off, std::uint64_t len,
                  std::uint32_t want, const char *unreadable,
                  const char *mismatch);

    const LoadFile &file;
    const pcdb::Header &h;
    const bool indexed; //!< the file holds the index (past v3)
    std::vector<std::uint64_t> labelOff; //!< per record, and the total
    std::vector<std::size_t> shards;     //!< record shard bounds
    std::vector<std::uint64_t> positionSums; //!< per record shard
    std::vector<std::uint64_t> byteOff, idOff; //!< posting offsets
    std::vector<std::size_t> ranges;           //!< list range bounds
    std::uint64_t listsAt = 0; //!< file offset of the first list
    std::uint64_t listSum = 0;

    Failures failures;
    std::size_t posReadSlot = 0, posSlot = 0, labelSlot = 0, bandSlot = 0, bandCrcSlot = 0,
                listSumSlot = 0, rangeSlot = 0, postingsCrcSlot = 0;
};

PayloadReader::PayloadReader(const LoadFile &file,
                             const pcdb::Header &header, std::size_t lanes,
                             std::vector<std::uint64_t> record_offsets,
                             std::vector<std::uint64_t> label_offsets)
    : offsets(std::move(record_offsets)), file(file), h(header),
      indexed(header.version != pcdb::versionV3), labelOff(std::move(label_offsets))
{
    const std::size_t n = offsets.size() - 1;
    const auto record_bytes = [&](std::size_t i) {
        return offsets[i] * 4 + labelOff[i];
    };
    shards = splitByWeight(
        n,
        std::min<std::uint64_t>(4 * lanes,
                                1 + record_bytes(n) / taskBytes),
        record_bytes);
    positions.resize(h.totalPositions);
    labels.resize(n);
    positionSums.resize(shards.size() - 1);
    // Slots in the order a serial read reaches the checks: every
    // position read, every position check, every label read, then
    // the index sections.
    posReadSlot = failures.claim(positionSums.size());
    posSlot = failures.claim(positionSums.size());
    labelSlot = failures.claim(positionSums.size());
    if (!indexed)
        return;

    keys.resize(h.bands);
    ids.resize(h.bands);
    bandSlot = failures.claim(h.bands);
    bandCrcSlot = failures.claim(1);
    // The offset arrays, which place every list, are read up front.
    const std::size_t offsets_slot = failures.claim(1);
    listSumSlot = failures.claim(1);
    const std::uint64_t lists = h.postingLists;
    listsAt = h.postingsOff + (lists + 1) * 16;
    byteOff.resize(lists + 1);
    idOff.resize(lists + 1);
    if (!file.readAt(h.postingsOff, byteOff.data(), byteOff.size() * 8) ||
        !file.readAt(h.postingsOff + (lists + 1) * 8, idOff.data(),
                     idOff.size() * 8)) {
        failures.set(offsets_slot, "cannot read the postings section");
        byteOff.assign(1, 0);
        idOff.assign(1, 0);
    }
    for (std::uint64_t p = 0; p + 1 < idOff.size(); ++p)
        listSum += p * (idOff[p + 1] - idOff[p]);
    postings.resize(idOff.size() - 1);
    ranges = splitByWeight(
        postings.size(),
        std::min<std::uint64_t>(4 * lanes,
                                1 + h.postingBytes / taskBytes),
        [&](std::size_t p) { return byteOff[p]; });
    rangeSlot = failures.claim(ranges.size() - 1);
    postingsCrcSlot = failures.claim(1);
}

std::string
PayloadReader::run(ThreadPool &pool)
{
    std::vector<std::function<void()>> tasks;
    if (indexed) {
        // The CRCs, the largest single tasks, go first.
        tasks.push_back([this] {
            checkCrc(bandCrcSlot, h.bandOff,
                     h.bands * pcdb::bandBytes(h.version, h.bandSlots),
                     h.bandCrc, "cannot read the band section",
                     "band section CRC mismatch");
        });
        tasks.push_back([this] {
            checkCrc(postingsCrcSlot, h.postingsOff,
                     listsAt - h.postingsOff +
                         pcdb::align8(h.postingBytes),
                     h.postingsCrc, "cannot read the postings section",
                     "postings section CRC mismatch");
        });
    }
    for (std::size_t s = 0; s + 1 < shards.size(); ++s)
        tasks.push_back([this, s] { readRecords(s); });
    for (std::size_t r = 0; r + 1 < ranges.size(); ++r)
        tasks.push_back([this, r] { readLists(r); });
    for (std::uint32_t band = 0; band < keys.size(); ++band)
        tasks.push_back([this, band] { readBand(band); });
    pool.parallelTasks(tasks.size(), [&](std::size_t t) { tasks[t](); });

    std::uint64_t position_sum = 0;
    for (const std::uint64_t sum : positionSums)
        position_sum += sum;
    if (indexed && listSum != position_sum)
        failures.set(listSumSlot,
                     "posting lists do not match the position arena");
    return failures.first();
}

void
PayloadReader::readRecords(std::size_t s)
{
    const std::size_t r0 = shards[s], r1 = shards[s + 1];
    // The end of the records from @p i on whose bytes, as @p prefix
    // counts them, make one read (one record at least).
    const auto readEnd = [r1](std::size_t i, auto prefix) {
        std::size_t j = i + 1;
        while (j < r1 && prefix(j + 1) - prefix(i) <= readChunk)
            ++j;
        return j;
    };
    std::uint64_t sum = 0;
    for (std::size_t i = r0, j; i < r1; i = j) {
        j = readEnd(i, [&](std::size_t r) { return offsets[r] * 4; });
        if (!file.readAt(h.posOff + offsets[i] * 4,
                         positions.data() + offsets[i],
                         (offsets[j] - offsets[i]) * 4)) {
            failures.set(posReadSlot + s, "cannot read the position arena");
            break;
        }
        for (std::uint64_t k = offsets[i], r = i; k < offsets[j]; ++k) {
            while (k == offsets[r + 1])
                ++r; // record r holds position k
            const std::uint32_t pos = positions[k];
            const char *why =
                pos >= h.universe ? "position beyond universe"
                : k > offsets[r] && pos <= positions[k - 1]
                    ? "positions not strictly ascending"
                    : nullptr;
            if (why) {
                failures.set(posSlot + s, why);
                j = r1;
                break;
            }
            sum += pos;
        }
    }
    positionSums[s] = sum;

    std::string text;
    for (std::size_t i = r0, j; i < r1; i = j) {
        j = readEnd(i, [&](std::size_t r) { return labelOff[r]; });
        text.resize(labelOff[j] - labelOff[i]);
        if (!file.readAt(h.labelOff + labelOff[i], text.data(),
                         text.size())) {
            failures.set(labelSlot + s, "cannot read the label arena");
            break;
        }
        for (std::size_t r = i; r < j; ++r)
            labels[r].assign(text, labelOff[r] - labelOff[i],
                             labelOff[r + 1] - labelOff[r]);
    }
}

void
PayloadReader::readBand(std::uint32_t band)
{
    const std::uint64_t slots = h.bandSlots;
    keys[band].resize(slots);
    ids[band].resize(slots);
    const std::uint64_t at =
        h.bandOff + band * pcdb::bandBytes(h.version, slots);
    if (!file.readAt(at, keys[band].data(), slots * 8) ||
        !file.readAt(at + slots * 8, ids[band].data(), slots * 4)) {
        failures.set(bandSlot + band, "cannot read the band section");
        return;
    }
    std::uint64_t occupied = 0;
    for (const std::uint32_t id : ids[band]) {
        if (id == LshIndex::emptySlot)
            continue;
        if (id >= h.recordCount) {
            failures.set(bandSlot + band, "band slot id out of range");
            return;
        }
        ++occupied;
    }
    if (occupied != h.recordCount)
        failures.set(bandSlot + band, "band occupied slot count mismatch");
}

void
PayloadReader::readLists(std::size_t r)
{
    // The lists' bytes come through a window a chunk wide (or one
    // long list wide), so the buffer stays small.
    std::vector<std::uint8_t> window;
    std::uint64_t win_begin = 0, win_end = 0; // list-byte range held
    const std::uint64_t range_end = byteOff[ranges[r + 1]];
    for (std::size_t p = ranges[r]; p < ranges[r + 1]; ++p) {
        const std::uint64_t b0 = byteOff[p], b1 = byteOff[p + 1];
        const std::uint64_t count = idOff[p + 1] - idOff[p];
        // pcdb::check() passed these offsets; the window arithmetic
        // below relies on it, so restate it where it is relied on.
        if (b1 < b0 || b1 > h.postingBytes || idOff[p + 1] < idOff[p] ||
            count > h.totalPositions) {
            failures.set(rangeSlot + r, "non-monotone posting list offsets");
            return;
        }
        if (b1 > win_end) {
            win_begin = b0;
            win_end = std::min(
                range_end, b0 + std::max<std::uint64_t>(readChunk, b1 - b0));
            window.resize(win_end - win_begin);
            if (!file.readAt(listsAt + win_begin, window.data(),
                             window.size())) {
                failures.set(rangeSlot + r,
                             "cannot read the postings section");
                return;
            }
        }

        std::vector<std::uint32_t> &list = postings[p];
        list.resize(count);
        std::size_t j = 0;
        const char *why = "zero or malformed posting gap";
        const std::uint8_t *bytes = window.data() + (b0 - win_begin);
        const bool whole = pcdb::decodePostingList(
            bytes, bytes + (b1 - b0), [&](std::uint64_t id) {
                if (j == count) {
                    why = "posting list bytes do not match its id count";
                    return false;
                }
                if (id >= h.recordCount) {
                    why = "posting id out of range";
                    return false;
                }
                list[j++] = static_cast<std::uint32_t>(id);
                return true;
            });
        if (whole && j != count)
            why = "posting list bytes do not match its id count";
        if (!whole || j != count) {
            failures.set(rangeSlot + r, why);
            return;
        }
    }
}

void
PayloadReader::checkCrc(std::size_t slot, std::uint64_t off,
                        std::uint64_t len, std::uint32_t want,
                        const char *unreadable, const char *mismatch)
{
    std::vector<std::uint8_t> buf(std::min<std::uint64_t>(len, readChunk));
    std::uint32_t crc = 0;
    for (std::uint64_t done = 0; done < len; done += buf.size()) {
        buf.resize(std::min<std::uint64_t>(len - done, buf.size()));
        if (!file.readAt(off + done, buf.data(), buf.size())) {
            failures.set(slot, unreadable);
            return;
        }
        crc = crc32(buf.data(), buf.size(), crc);
    }
    if (crc != want)
        failures.set(slot, mismatch);
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
loadStore(const std::string &path, ThreadPool &pool,
          std::uint32_t *scheme_out, std::uint32_t *version_out)
{
    const auto fail = [](const std::string &why) -> StoreLoadResult {
        return {std::nullopt, "loadStore: " + why};
    };
    if (failpoint::hit("store.load"))
        return fail("injected load failure for " + path);
    const LoadFile file(path);
    if (!file.isOpen())
        return fail("cannot open " + path);
    std::uint64_t file_len = 0;
    if (!file.size(file_len))
        return fail("cannot stat " + path);

    // The record table lands in the store's containers as the shared
    // check walks it; the file's one universe comes with the header.
    pcdb::Header h;
    std::vector<unsigned> sources;
    std::vector<std::uint64_t> offsets{0}, label_off{0};
    const std::string err = pcdb::check(
        file_len,
        [&](std::uint64_t off, void *dst, std::size_t len) {
            return file.readAt(off, dst, len);
        },
        h,
        [&](const pcdb::RecordEntry &e) {
            label_off.push_back(label_off.back() + e.labelLen);
            sources.push_back(e.sources);
            offsets.push_back(offsets.back() + e.posCount);
        });
    if (!err.empty())
        return fail(err);

    const std::size_t n = sources.size();
    PayloadReader in(file, h, pool.size(), std::move(offsets),
                     std::move(label_off));
    const std::string why = in.run(pool);
    if (!why.empty())
        return fail(why);

    SparseFingerprintArena arena(std::move(in.positions),
                                 std::move(in.offsets), h.universe);
    if (scheme_out)
        *scheme_out = h.scheme;
    if (version_out)
        *version_out = h.version;
    if (h.version == pcdb::versionV3) {
        // A v3 file holds no position index and its band trailer is
        // not a table: both are rebuilt from the records, which are
        // signed again, on the load's pool.
        FingerprintStore store(h.minhashParams());
        store.setThreadPool(&pool);
        store.addBatch(std::move(in.labels), std::move(sources),
                       std::move(arena));
        store.setThreadPool(nullptr);
        return {std::move(store), ""};
    }
    return {FingerprintStore::adopt(
                std::move(in.labels), std::move(sources), std::move(arena),
                LshIndex(h.minhashParams(), n,
                         std::move(in.keys), std::move(in.ids)),
                std::move(in.postings)),
            ""};
}

StoreLoadResult
loadStore(const std::string &path, std::uint32_t *scheme_out,
          std::uint32_t *version_out)
{
    // A pool of this load's own, joined before it returns: a lane
    // per task's worth of file, up to one per hardware thread.
    struct stat st{};
    const std::uint64_t bytes =
        ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                       : 0;
    const std::uint64_t hardware =
        std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(static_cast<std::size_t>(
        std::clamp<std::uint64_t>(bytes / taskBytes, 1, hardware)));
    return loadStore(path, pool, scheme_out, version_out);
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
               std::size_t bands)
{
    return pcdb::recordEntryBytes              // record-table entry
        + label_len                            // label arena share
        + weight * sizeof(std::uint32_t)       // position arena share
        // a 12-byte slot per band at the bulk build's ~0.7 load
        + bands * 12 * 10 / 7
        // a one-byte gap per posting: a position shared by more
        // than 1 in 128 records
        + weight;
}

} // namespace pcause
