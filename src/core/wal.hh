/**
 * @file
 * Write-ahead journal for online fingerprint adds.
 *
 * The PCDB snapshot (core/serialize) is rewritten wholesale; a
 * long-running service that characterizes new chips cannot rewrite a
 * million-record file per add. The WAL closes that gap: every
 * addRecord/addFingerprint appends one checksummed entry and fsyncs
 * *before* the add is acknowledged, so an acked add is on disk even
 * if the process is kill -9'd the next instruction. Recovery loads
 * the snapshot, replays the journal tail, and compacts the result
 * back into a fresh snapshot + empty journal (see
 * AttackService::openDurable).
 *
 * On-disk layout (little-endian throughout):
 *
 *     offset  size  field
 *     0       4     magic "PCWL"
 *     4       4     u32 version = 1
 *     8       8     u64 baseRecords — records in the snapshot this
 *                   journal extends; replay skips entries already
 *                   compacted into a store larger than baseRecords
 *     16      ...   entries
 *
 *   entry:
 *     u32 payload length N (<= maxWalPayload)
 *     u32 CRC-32 of the N payload bytes
 *     payload:
 *       u8  kind = 1 (addRecord)
 *       u32 label length L, u8 label[L]
 *       u32 sources
 *       u64 universe bits U
 *       u64 position count P
 *       u32 positions[P]   strictly ascending, < U
 *
 *   The CRC is util/crc32's.
 *
 * Torn-tail discipline: a crash mid-append leaves a strict prefix
 * of a valid entry at EOF (single appender, sequential write).
 * Replay accepts every complete, checksummed entry and *discards*
 * an incomplete tail — that entry was never acked, losing it is
 * correct. A complete entry whose checksum or structure is wrong is
 * not a torn write; it is corruption, and replay refuses with an
 * error instead of guessing.
 *
 * The header is created via temp-file + atomic rename, so a journal
 * either exists with an intact header or not at all — there is no
 * torn-header state to recover from.
 */

#ifndef PCAUSE_CORE_WAL_HH
#define PCAUSE_CORE_WAL_HH

#include <cstdint>
#include <string>

#include "core/serialize.hh"
#include "core/store.hh"
#include "util/crc32.hh"

namespace pcause
{

/** Ceiling on one WAL entry's payload bytes; a larger length
 *  prefix is corruption, not a big record. */
constexpr std::uint32_t maxWalPayload = 64u << 20;

/** What a replay did. */
struct WalReplayStats
{
    std::size_t entries = 0; //!< complete, valid entries seen
    std::size_t applied = 0; //!< entries added to the store
    std::size_t skipped = 0; //!< already in the snapshot
    bool tornTail = false;   //!< incomplete tail was discarded
    std::uint64_t goodBytes = 0; //!< file offset after last valid entry
    std::uint64_t baseRecords = 0; //!< header base-record count
};

/** verify() outcome, ordered worst-last. */
enum class WalHealth
{
    Missing,     //!< no journal file (clean state)
    Clean,       //!< header + every entry intact, no tail garbage
    Recoverable, //!< intact prefix, torn tail to discard on replay
    Corrupt,     //!< bad header, checksum, or entry structure
};

/** verify() report. */
struct WalVerifyResult
{
    WalHealth health = WalHealth::Missing;
    std::size_t entries = 0;
    std::uint64_t baseRecords = 0;
    std::uint64_t goodBytes = 0;
    std::string detail; //!< human-readable reason for non-Clean
};

/** An open, appendable journal (see file comment). */
class Wal
{
  public:
    Wal() = default;
    ~Wal();

    Wal(Wal &&other) noexcept;
    Wal &operator=(Wal &&other) noexcept;
    Wal(const Wal &) = delete;
    Wal &operator=(const Wal &) = delete;

    /**
     * Create a fresh journal at @p path extending a
     * @p base_records-record snapshot. Written as temp + fsync +
     * rename + parent-dir fsync, so an existing journal is replaced
     * atomically and a crash never leaves a torn header.
     */
    static LoadResult<Wal> create(const std::string &path,
                                  std::uint64_t base_records);

    /**
     * Append one add and fsync. True only once the entry is
     * durable — the caller acks after, never before. On false the
     * entry must be treated as not written (an error string lands
     * in @p error when non-null).
     */
    bool append(const ChipLabel &label, const Fingerprint &fp,
                std::string *error = nullptr);

    /**
     * Replay the journal at @p path into @p store, which must hold
     * the snapshot this journal extends (store.size() >=
     * baseRecords; entries below that mark were already
     * compacted and are skipped). Torn tails are discarded;
     * corruption fails the replay before any entry is applied. Each
     * entry is asked of store.admitError() before it is added, and
     * one it refuses (another bit count) fails the replay, leaving
     * the entries before it added: callers discard @p store then.
     */
    static LoadResult<WalReplayStats> replay(const std::string &path,
                                             FingerprintStore &store);

    /** Structural health check without a store (pcause db verify). */
    static WalVerifyResult verify(const std::string &path);

    /** Entries appended or reopened into this journal. */
    std::size_t entries() const { return entryCount; }

    /** Snapshot record count this journal extends. */
    std::uint64_t baseRecords() const { return base; }

    const std::string &path() const { return filePath; }

    bool isOpen() const { return fd >= 0; }

  private:
    int fd = -1;
    std::string filePath;
    std::uint64_t base = 0;
    std::size_t entryCount = 0;
};

} // namespace pcause

#endif // PCAUSE_CORE_WAL_HH
