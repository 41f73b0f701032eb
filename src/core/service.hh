/**
 * @file
 * AttackService: one identification API for every frontend.
 *
 * Every frontend (CLI, benches, attackers, and the pcaused network
 * server) identifies through this facade. It owns one backend, an
 * in-memory FingerprintStore or a read-only MappedStore over a v5
 * file, and reads it in one place (withStore()): both stores answer
 * through the one query engine (QueryEngine, core/scan.hh), so every
 * read path — identify, the batch, labels, diagnostics — is written
 * once for both. It exposes a single QueryOptions-driven identify
 * entry point plus the batch variant the attackers call, and
 * resolves record indices to labels so callers never reach into the
 * backend for presentation.
 *
 * Verdicts are bit-identical to direct FingerprintStore /
 * MappedStore queries by construction: the facade adds locking,
 * label resolution, and stats accounting around the store calls and
 * changes nothing about the query path itself.
 *
 * Concurrency: identify paths take a shared lock, mutations
 * (addRecord / addFingerprint) take the exclusive lock, so a
 * long-running server can characterize new chips while queries are
 * in flight. Counters accumulate into per-worker ServiceStats slots
 * and merge via AttackStats::operator+= only at snapshot time, so a
 * stats read never tears or double-counts under load.
 */

#ifndef PCAUSE_CORE_SERVICE_HH
#define PCAUSE_CORE_SERVICE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <variant>
#include <vector>

#include "core/attack_stats.hh"
#include "core/identify.hh"
#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "core/wal.hh"

namespace pcause
{

class ThreadPool;

/**
 * The one set of identification knobs shared by the CLI, the wire
 * protocol, and the batch APIs. Maps 1:1 onto IdentifyParams plus
 * the linear/indexed backend choice that used to be a separate
 * function name.
 */
struct QueryOptions
{
    /** Match threshold on the Algorithm 3 distance. */
    double threshold = 0.1;

    /** Distance metric (the paper uses ModifiedJaccard). */
    DistanceMetric metric = DistanceMetric::ModifiedJaccard;

    /** First record under threshold (the paper's literal Algorithm
     *  2) vs the best record under threshold. */
    bool firstMatch = true;

    /** Bypass the candidate index and run the reference linear
     *  scan (verdicts are equal either way; this is the
     *  measurement/debugging knob, not a correctness one). */
    bool linear = false;

    /** The IdentifyParams this option set denotes. */
    IdentifyParams identifyParams() const
    {
        IdentifyParams p;
        p.threshold = threshold;
        p.metric = metric;
        p.firstMatch = firstMatch;
        return p;
    }

    bool operator==(const QueryOptions &o) const
    {
        return threshold == o.threshold && metric == o.metric &&
               firstMatch == o.firstMatch && linear == o.linear;
    }
    bool operator!=(const QueryOptions &o) const { return !(*this == o); }
};

/** One identification request: an error string plus its options.
 *  The same struct travels the wire, the CLI, and the server. */
struct IdentifyRequest
{
    BitVec errorString;
    QueryOptions options;
};

/**
 * One identification outcome with labels resolved and the stats
 * delta this query contributed — the unified reply shape for the
 * CLI, the wire protocol, and batch callers (no more ad-hoc
 * (result, label, stats) tuples at every call site).
 */
struct IdentifyVerdict
{
    /** True when a record beat the threshold. */
    bool matched = false;

    /** Label of the matched record; empty when no match. */
    std::string label;

    /** Distance to the matched (or nearest) fingerprint. */
    double distance = 1.0;

    /** Matched record index (diagnostics; labels are resolved). */
    std::optional<std::size_t> record;

    /** Nearest record index, even on failure. */
    std::optional<std::size_t> nearest;

    /** Label of the nearest record; empty when the database is. */
    std::string nearestLabel;

    /** Counters this query added (candidates scanned, fallbacks,
     *  kernel counts, wall time). */
    AttackStats delta;

    /** Why the query was refused — its bit count differs from the
     *  database's records' — or empty when it ran. */
    std::string error;
};

/** Database diagnostics, backend-independent. */
struct ServiceDbStats
{
    std::size_t records = 0;
    std::size_t universeBits = 0;
    std::size_t volatileCells = 0;
    std::size_t diskBytesEstimate = 0;
    MinHashParams indexParams;

    /** In-memory LSH occupancy and index memory; meaningful only
     *  when hasOccupancy (the mmap-ed backend keeps its index on
     *  disk). The byte counts are container capacities: the LSH
     *  band tables and the inverted position index. */
    bool hasOccupancy = false;
    std::size_t lshBuckets = 0;
    std::size_t largestBucket = 0;
    std::size_t lshBytes = 0;
    std::size_t postingsBytes = 0;

    /** "store" (in-memory) or "mmap" (v5 file queried in place). */
    const char *backend = "store";
};

/**
 * Per-worker AttackStats accumulation (cache-line-padded slots,
 * one light mutex each). Workers add deltas to a slot picked by a
 * stable per-thread id; snapshot() locks each slot briefly and
 * merges with AttackStats::operator+=, so concurrent readers see a
 * sum in which every delta appears exactly once and no counter is
 * ever torn mid-update.
 */
class ServiceStats
{
  public:
    explicit ServiceStats(std::size_t num_slots = 16);

    /** Fold @p delta into this thread's slot. */
    void accumulate(const AttackStats &delta) const;

    /** Merged view of all slots (operator+= over a brief per-slot
     *  lock; never torn, never double-counted). */
    AttackStats snapshot() const;

  private:
    struct alignas(64) Slot
    {
        /** Measurements, not service state: const paths update
         *  them under the slot mutex (the collectVotes idiom). */
        mutable std::mutex m;
        mutable AttackStats s;
    };

    std::size_t slotCount;
    std::unique_ptr<Slot[]> slots;
};

/** The unified identification facade (see file comment). */
class AttackService
{
  public:
    /** Serve an in-memory (mutable) store. */
    explicit AttackService(FingerprintStore store);

    /** Serve a read-only mmap-ed v5 database in place. */
    explicit AttackService(MappedStore store);

    AttackService(AttackService &&) = default;
    AttackService &operator=(AttackService &&) = default;

    /**
     * Load a service from a database file: @p mmap queries the v5
     * file in place (read-only), otherwise the store is
     * deserialized into memory by loadStore(path), on a pool of the
     * load's own that is joined before this returns (the service's
     * own pool, setThreadPool(), does not exist yet). Malformed
     * input yields an error result, never a process exit.
     */
    static LoadResult<AttackService> open(const std::string &path,
                                          bool mmap = false);

    /** How a durable service persists (openDurable). */
    struct DurabilityConfig
    {
        /** Snapshot path (loaded on open, rewritten by
         *  checkpoints via saveStoreDurable). */
        std::string dbPath;

        /** Write-ahead journal path (core/wal). */
        std::string walPath;

        /** Start with an empty store when @p dbPath does not exist
         *  yet; false turns a missing snapshot into an error. */
        bool createIfMissing = true;

        /** Compact the journal into a fresh snapshot once it holds
         *  this many entries (0 = only on demand / shutdown). */
        std::size_t checkpointEvery = 1024;
    };

    /**
     * Open a crash-safe, mutable service: load the snapshot (or
     * start empty; loaded as open() loads, on a pool of its own),
     * replay the journal tail (discarding a torn
     * tail; refusing corruption), then compact — the service
     * starts from snapshot ≡ store and an empty journal, and every
     * subsequent addRecord/addFingerprint is journaled + fsynced
     * *before* it is acknowledged. An acked add therefore survives
     * kill -9 at any instruction.
     */
    static LoadResult<AttackService>
    openDurable(const DurabilityConfig &config);

    /** True when adds are journaled (openDurable). */
    bool durable() const { return wal != nullptr; }

    /** Journal entries since the last checkpoint (0 when not
     *  durable). */
    std::size_t walEntries() const;

    /**
     * Compact now: durable snapshot rewrite + fresh empty journal,
     * under the exclusive lock. Empty string on success, reason on
     * failure (the journal keeps accumulating; durability is not
     * lost, only compaction).
     */
    std::string checkpoint();

    /** True when the backend cannot accept new records. */
    bool readOnly() const { return store() == nullptr; }

    /** Number of records. */
    std::size_t size() const;

    /**
     * Run identifyBatch() on @p pool (not owned), for either
     * backend; with none set (null), on the process-global pool.
     */
    void setThreadPool(ThreadPool *pool) { workers = pool; }

    /**
     * The one identification entry point: dispatches on
     * req.options to the backend's indexed or linear path, under a
     * shared lock, and resolves labels. Verdict bit-identical to
     * the corresponding direct backend query. A threshold the wire
     * would refuse (validThreshold()) or an error string whose bit
     * count differs from the records' is not queried: the verdict
     * carries the reason in IdentifyVerdict::error.
     */
    IdentifyVerdict identify(const IdentifyRequest &req) const;

    /**
     * Batch identification under one option set — the entry the
     * attackers call: the elements are identified across the thread
     * pool (setThreadPool()) under one shared lock, for either
     * backend and either QueryOptions::linear. Each element is
     * bit-identical to the corresponding identify() call, delta
     * included (its counters and its own query time), and a refused
     * element gets identify()'s error verdict (a refused threshold,
     * every element). The service's counters take the elements'
     * counters once, with the batch's wall time as identify time
     * (none when no element ran).
     */
    std::vector<IdentifyVerdict>
    identifyBatch(const std::vector<BitVec> &error_strings,
                  const QueryOptions &options) const;

    /** Outcome of a mutating add. */
    struct AddOutcome
    {
        /** True when the record was added. */
        bool added = false;

        /** New record index (valid when added). */
        std::size_t record = 0;

        /** Fingerprint weight in volatile cells (valid when
         *  added). */
        std::size_t weight = 0;

        /** Reason the add was refused (read-only backend, no error
         *  strings, or what the store's admission check refuses);
         *  empty on success. */
        std::string error;
    };

    /**
     * Characterize-and-add (Algorithm 1 behind the facade):
     * intersect @p error_strings into a fingerprint and add it
     * under @p label. Takes the exclusive lock; concurrent
     * identifies simply wait. Refused (with a reason, and before
     * anything is journaled) on an empty observation set or error
     * strings whose bit counts differ from each other, and for any
     * reason addRecord() refuses.
     */
    AddOutcome addFingerprint(const ChipLabel &label,
                              const std::vector<BitVec> &error_strings);

    /**
     * Add an already-characterized fingerprint (the supply-chain
     * attacker's interception path), under the exclusive lock.
     * Refused with a reason, before anything is journaled, on a
     * read-only backend and for whatever the store's admission
     * check refuses (FingerprintStore::admitError: a record no
     * database file may hold, such as an empty fingerprint, an
     * over-long label or a universe over 2^32 bits, or a bit count
     * other than the records'), so no acked add makes a snapshot
     * unloadable.
     */
    AddOutcome addRecord(ChipLabel label, Fingerprint fp);

    /** Backend-independent database diagnostics. */
    ServiceDbStats dbStats() const;

    /** Merged service counters (see ServiceStats). */
    AttackStats snapshot() const;

    /** JSON rendering of snapshot() plus record count and backend —
     *  the pcaused live stats endpoint payload. */
    std::string statsJson() const;

    /** The in-memory backend, or null when serving a mapped file. */
    const FingerprintStore *store() const
    {
        return std::get_if<FingerprintStore>(&backend);
    }

    /** Label of record @p i (copied; safe past the call). */
    std::string label(std::size_t i) const;

  private:
    /** The one place the backend is read: @p f(store), whichever
     *  store it is. */
    template <typename F>
    decltype(auto) withStore(F &&f) const
    {
        return std::visit(std::forward<F>(f), backend);
    }

    /** identify() of one error string, untallied; callers hold the
     *  lock. */
    IdentifyVerdict identifyLocked(const BitVec &error_string,
                                   const QueryOptions &options) const;

    /** Why an error string of @p bits bits cannot be compared with
     *  the records (they have another bit count), or empty; callers
     *  hold the lock. */
    std::string bitCountError(std::size_t bits) const;

    /** Why a query of @p bits bits under @p options is refused
     *  (its threshold, else bitCountError()), or empty; callers
     *  hold the lock. */
    std::string queryError(std::size_t bits,
                           const QueryOptions &options) const;

    /** checkpoint() body; the caller holds the exclusive lock (or
     *  sole ownership during openDurable). */
    std::string checkpointLocked();

    std::variant<FingerprintStore, MappedStore> backend;

    /** identifyBatch()'s pool; null means the process-global one. */
    ThreadPool *workers = nullptr;

    /** Journal + paths when durable; null otherwise. */
    std::unique_ptr<Wal> wal;
    DurabilityConfig dur;

    /** Shared for queries, exclusive for adds. In a unique_ptr so
     *  the service stays movable (LoadResult requires it). */
    std::unique_ptr<std::shared_mutex> gate;

    std::unique_ptr<ServiceStats> counters;
};

} // namespace pcause

#endif // PCAUSE_CORE_SERVICE_HH
