/**
 * @file
 * Persistence for the attacker's fingerprint database.
 *
 * Section 4: "Probable Cause stores system-level fingerprints in a
 * database equal to the size of the fingerprinted region of
 * memory... it is possible to reduce the storage requirement by
 * only tracking the fast decaying bits (approximately, 1% of the
 * bits in a memory)." The on-disk format here does exactly that:
 * fingerprints are stored as sparse position lists, so a 32 KB
 * chip's fingerprint costs ~10 KB instead of 32 KB, and scales with
 * the error budget rather than the memory size.
 *
 * Writers write PCDB v5 (little-endian), the memory-mappable layout
 * specified byte-for-byte in core/pcdb_format.hh: a fixed 144-byte
 * header with explicit section offsets, a fixed-stride record table,
 * contiguous position and label arenas, then the index as it is held
 * in memory — each LSH band's slot arrays and the inverted position
 * index as gap-coded lists, both under a CRC-32. No signature is
 * written: the band tables are the index. loadStore() reads a file
 * into an in-memory FingerprintStore on a thread pool, taking the
 * index sections as stored; MappedStore (core/mapped_store) queries
 * one in place without loading it. Both run the same structural
 * check (pcdb::check) and so fail with the same reasons, and both
 * read v4 too, skipping its signature arena. loadStore() also reads
 * v3, rebuilding the index v3 does not carry.
 *
 * Loading is recoverable: malformed input produces a LoadResult
 * carrying an error string instead of killing the process, so a
 * long-running attacker service can survive a damaged database file.
 * Callers that do want to die on bad input (the pcause CLI) handle
 * the error at the call site.
 */

#ifndef PCAUSE_CORE_SERIALIZE_HH
#define PCAUSE_CORE_SERIALIZE_HH

#include <optional>
#include <string>

#include "core/identify.hh"
#include "core/store.hh"

namespace pcause
{

class ThreadPool;

/**
 * Outcome of a recoverable load: either the value or a
 * human-readable reason it could not be produced.
 */
template <typename T>
struct LoadResult
{
    /** The loaded value; nullopt when loading failed. */
    std::optional<T> value;

    /** Failure reason; empty on success. */
    std::string error;

    /** True when the load succeeded. */
    explicit operator bool() const { return value.has_value(); }

    /** The loaded value (must have succeeded). */
    T &operator*() { return *value; }
    const T &operator*() const { return *value; }
    T *operator->() { return &*value; }
    const T *operator->() const { return &*value; }
};

using StoreLoadResult = LoadResult<FingerprintStore>;

/**
 * Write @p store (its own index parameters, band tables and position
 * index) to @p path as a mmap-able v5 file. The file is
 * truncated first, so a failed write loses what it held:
 * saveStoreDurable() is the save for a file that matters. Returns
 * false on IO failure, including one that surfaces only when the
 * file is closed.
 */
bool saveStore(const FingerprintStore &store, const std::string &path);

/**
 * Crash-safe saveStore: the v5 image is written to a temp file in
 * the same directory, fsynced, atomically renamed over @p path, and
 * the parent directory fsynced — a reader (or a recovery after
 * kill -9 at any instruction) sees either the complete old file or
 * the complete new one, never a torn in-place truncation. False on
 * failure with a reason in @p error (when non-null); the target is
 * left untouched on every failure path.
 */
bool saveStoreDurable(const FingerprintStore &store,
                      const std::string &path,
                      std::string *error = nullptr);

/**
 * Load a v5, v4 or v3 file into an in-memory FingerprintStore,
 * keeping the stored index parameters. A v5 or v4 file's band tables
 * and position index are read as stored (nothing is hashed), each
 * checked as it is read (slot ids, occupancy, gaps, posting ids, list
 * lengths against the positions, both CRCs; see core/pcdb_format.hh);
 * a v3 file's are rebuilt from the records, each signed again from
 * its positions under the stored parameters, whichever scheme the
 * file names (FingerprintStore::addBatch, on @p pool). No signature
 * arena is read. The file's scheme and format version land in
 * @p scheme_out and @p version_out when non-null. Besides
 * pcdb::check's structural check, every position is checked to lie
 * inside the file's universe and to ascend strictly. Malformed, truncated or other-version input
 * yields a failed result with an error string, never a process exit.
 *
 * The structural check walks the header, the record table and the
 * posting offsets on the calling thread; then every payload is read
 * with pread() straight into the container the store keeps, and
 * checked as it lands, in tasks on @p pool:
 *  - record shards of about equal bytes (positions, labels);
 *  - one task per band (its slot arrays);
 *  - posting-list ranges of about equal bytes, each list decoded
 *    into its own;
 *  - one task per index section's CRC.
 * Each task reads through a buffer of at most a few hundred KB (or
 * one long list), whatever the file's size, and the lane that fills
 * a page touches it first. A one-lane pool runs the same tasks
 * inline. When several checks fail, the reason is the one a serial
 * read of the file would reach first (payloads in file order, the
 * lists' position sum before the lists, each CRC after its
 * section's own checks), whichever task ends first.
 */
StoreLoadResult loadStore(const std::string &path, ThreadPool &pool,
                          std::uint32_t *scheme_out = nullptr,
                          std::uint32_t *version_out = nullptr);

/**
 * loadStore() on a pool of the load's own, joined before it returns,
 * so no thread outlives the load (a process that forks later, as the
 * death tests do, has no pool threads to lose): one lane per
 * megabyte of file, up to one per hardware thread, so a small file
 * loads inline. How the service (AttackService::open, openDurable)
 * and the tools load.
 */
StoreLoadResult loadStore(const std::string &path,
                          std::uint32_t *scheme_out = nullptr,
                          std::uint32_t *version_out = nullptr);

/**
 * On-disk size estimate in bytes for a v5 record of @p weight
 * volatile cells, a @p label_len-byte label and @p bands band
 * tables: its record-table entry, its arena shares, its band slots
 * at the ~0.7 load a bulk build sizes to, and a one-byte gap in
 * each of its @p weight posting lists (gaps stay under 128 while a
 * position is shared by more than 1 in 128 records). A file adds a
 * 144-byte header and 16 bytes per posting list. The "1% of bits"
 * storage claim made measurable.
 */
std::size_t recordDiskSize(std::size_t weight, std::size_t label_len,
                           std::size_t bands = MinHashParams{}.bands);

/**
 * Persist a raw bit vector (approximate outputs, exact patterns)
 * as a dense dump: magic "PCBV", u32 version, u64 bit count, bytes.
 * Returns false on IO failure, including one at close.
 */
bool saveBitVec(const BitVec &bits, const std::string &path);

/** Load a bit vector written by saveBitVec. Fatal on bad input. */
BitVec loadBitVec(const std::string &path);

} // namespace pcause

#endif // PCAUSE_CORE_SERIALIZE_HH
