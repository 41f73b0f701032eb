#include "core/service.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>

#include <unistd.h>

#include "util/failpoint.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

/**
 * Stable small ordinal per thread, assigned on first use: the
 * ServiceStats slot picker. Global across instances — two services
 * sharing a worker thread simply use the same ordinal.
 */
std::size_t
threadOrdinal()
{
    static std::atomic<std::size_t> next{0};
    static thread_local std::size_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // anonymous namespace

ServiceStats::ServiceStats(std::size_t num_slots)
    : slotCount(num_slots == 0 ? 1 : num_slots),
      slots(std::make_unique<Slot[]>(slotCount))
{
}

void
ServiceStats::accumulate(const AttackStats &delta) const
{
    const Slot &slot = slots[threadOrdinal() % slotCount];
    std::lock_guard<std::mutex> lock(slot.m);
    slot.s += delta;
}

AttackStats
ServiceStats::snapshot() const
{
    AttackStats total;
    for (std::size_t i = 0; i < slotCount; ++i) {
        std::lock_guard<std::mutex> lock(slots[i].m);
        total += slots[i].s;
    }
    return total;
}

AttackService::AttackService(FingerprintStore store)
    : backend(std::move(store)),
      gate(std::make_unique<std::shared_mutex>()),
      counters(std::make_unique<ServiceStats>())
{
}

AttackService::AttackService(MappedStore store)
    : backend(std::move(store)),
      gate(std::make_unique<std::shared_mutex>()),
      counters(std::make_unique<ServiceStats>())
{
}

LoadResult<AttackService>
AttackService::open(const std::string &path, bool mmap)
{
    LoadResult<AttackService> res;
    if (mmap) {
        LoadResult<MappedStore> m = MappedStore::open(path);
        if (!m) {
            res.error = m.error;
            return res;
        }
        res.value.emplace(std::move(*m));
        return res;
    }
    StoreLoadResult s = loadStore(path);
    if (!s) {
        res.error = s.error;
        return res;
    }
    res.value.emplace(std::move(*s));
    return res;
}

LoadResult<AttackService>
AttackService::openDurable(const DurabilityConfig &config)
{
    LoadResult<AttackService> res;
    if (config.dbPath.empty() || config.walPath.empty()) {
        res.error = "openDurable: need both a snapshot path and a "
                    "journal path";
        return res;
    }

    FingerprintStore store;
    const bool have_snapshot =
        ::access(config.dbPath.c_str(), F_OK) == 0;
    if (have_snapshot) {
        StoreLoadResult s = loadStore(config.dbPath);
        if (!s) {
            res.error = s.error;
            return res;
        }
        store = std::move(*s);
    } else if (!config.createIfMissing) {
        res.error = "openDurable: no database at " + config.dbPath;
        return res;
    }

    if (::access(config.walPath.c_str(), F_OK) == 0) {
        LoadResult<WalReplayStats> replayed =
            Wal::replay(config.walPath, store);
        if (!replayed) {
            res.error = replayed.error;
            return res;
        }
        if (replayed->applied > 0 || replayed->tornTail)
            inform("recovery: replayed %zu journaled adds%s",
                   replayed->applied,
                   replayed->tornTail
                       ? " (discarded a torn, unacked tail)"
                       : "");
    }

    AttackService svc(std::move(store));
    svc.dur = config;
    // Compact on open: replayed adds land in the snapshot and the
    // journal restarts empty, so recovery cost stays bounded by one
    // checkpoint interval and the snapshot alone is always a
    // complete acked state once open returns.
    const std::string err = svc.checkpointLocked();
    if (!err.empty()) {
        res.error = err;
        return res;
    }
    res.value.emplace(std::move(svc));
    return res;
}

std::size_t
AttackService::walEntries() const
{
    if (!wal)
        return 0;
    std::shared_lock<std::shared_mutex> lock(*gate);
    return wal->entries();
}

std::string
AttackService::checkpointLocked()
{
    std::string err;
    if (!saveStoreDurable(*store(), dur.dbPath, &err))
        return err;
    LoadResult<Wal> fresh = Wal::create(dur.walPath, store()->size());
    if (!fresh)
        return fresh.error;
    wal = std::make_unique<Wal>(std::move(*fresh));
    return {};
}

std::string
AttackService::checkpoint()
{
    if (!wal)
        return "checkpoint: service is not durable";
    std::unique_lock<std::shared_mutex> lock(*gate);
    return checkpointLocked();
}

std::size_t
AttackService::size() const
{
    return withStore([](const auto &s) { return s.size(); });
}

std::string
AttackService::bitCountError(std::size_t bits) const
{
    return withStore([&](const auto &s) -> std::string {
        if (s.size() == 0 || s.bitCount() == bits)
            return {};
        return "error string has " + std::to_string(bits) +
               " bits; the database's records have " +
               std::to_string(s.bitCount());
    });
}

std::string
AttackService::queryError(std::size_t bits,
                          const QueryOptions &options) const
{
    if (!validThreshold(options.threshold)) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "threshold %g is not a finite, non-negative "
                      "distance",
                      options.threshold);
        return buf;
    }
    return bitCountError(bits);
}

IdentifyVerdict
AttackService::identifyLocked(const BitVec &error_string,
                              const QueryOptions &options) const
{
    IdentifyVerdict v;
    v.error = queryError(error_string.size(), options);
    if (!v.error.empty())
        return v;
    const IdentifyParams p = options.identifyParams();
    const IdentifyResult r = withStore([&](const auto &s) {
        return options.linear ? s.queryLinear(error_string, p, &v.delta)
                              : s.query(error_string, p, &v.delta);
    });
    v.matched = r.match.has_value();
    v.distance = r.bestDistance;
    v.record = r.match;
    v.nearest = r.nearest;
    if (r.match)
        v.label = label(*r.match);
    if (r.nearest)
        v.nearestLabel = label(*r.nearest);
    return v;
}

IdentifyVerdict
AttackService::identify(const IdentifyRequest &req) const
{
    // Queries have no refusal channel, so this hook serves the
    // delay and crash actions (slow-query and kill-mid-query
    // injection); an error arm is a no-op here.
    (void)failpoint::hit("service.query");
    IdentifyVerdict v;
    {
        std::shared_lock<std::shared_mutex> lock(*gate);
        v = identifyLocked(req.errorString, req.options);
    }
    counters->accumulate(v.delta);
    return v;
}

std::vector<IdentifyVerdict>
AttackService::identifyBatch(const std::vector<BitVec> &error_strings,
                             const QueryOptions &options) const
{
    (void)failpoint::hit("service.query");
    std::vector<IdentifyVerdict> verdicts(error_strings.size());
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    double seconds = 0.0;
    {
        std::shared_lock<std::shared_mutex> lock(*gate);
        const auto start = std::chrono::steady_clock::now();
        pool.parallelFor(0, verdicts.size(), [&](std::size_t i) {
            verdicts[i] = identifyLocked(error_strings[i], options);
        });
        seconds = detail::secondsSince(start);
    }
    // The total carries one wall-time stamp for the whole batch.
    AttackStats total;
    bool ran = false;
    for (const IdentifyVerdict &v : verdicts) {
        total += v.delta;
        ran = ran || v.error.empty();
    }
    total.identifySeconds = ran ? seconds : 0.0;
    counters->accumulate(total);
    return verdicts;
}

AttackService::AddOutcome
AttackService::addFingerprint(const ChipLabel &label,
                              const std::vector<BitVec> &error_strings)
{
    AddOutcome out;
    if (error_strings.empty()) {
        out.error = "characterize needs at least one error string";
        return out;
    }
    for (const BitVec &es : error_strings) {
        if (es.size() != error_strings.front().size()) {
            out.error = "error strings differ in bit count (" +
                        std::to_string(error_strings.front().size()) +
                        " and " + std::to_string(es.size()) + ")";
            return out;
        }
    }
    // Algorithm 1: intersect the error strings.
    Fingerprint fp(error_strings.front());
    for (std::size_t i = 1; i < error_strings.size(); ++i)
        fp.augment(error_strings[i]);
    return addRecord(label, std::move(fp));
}

AttackService::AddOutcome
AttackService::addRecord(ChipLabel label, Fingerprint fp)
{
    AddOutcome out;
    if (readOnly()) {
        out.error = "database is served read-only (mmap backend)";
        return out;
    }
    if (failpoint::hit("service.add")) {
        out.error = "injected add failure";
        return out;
    }
    bool want_checkpoint = false;
    {
        std::unique_lock<std::shared_mutex> lock(*gate);
        FingerprintStore &store = std::get<FingerprintStore>(backend);
        out.error =
            store.admitError(label.size(), fp.sources(), fp.bits().size());
        if (!out.error.empty())
            return out;
        out.weight = fp.weight();
        // Journal + fsync *before* the in-memory add: once the
        // caller sees added == true the record is on disk, so an
        // acked add survives kill -9 at any instruction. A failed
        // append refuses the add — never an acked-but-volatile
        // record.
        if (wal != nullptr) {
            std::string err;
            if (!wal->append(label, fp, &err)) {
                out.error = "durability: " + err;
                return out;
            }
            want_checkpoint = dur.checkpointEvery > 0 &&
                              wal->entries() >= dur.checkpointEvery;
        }
        out.record = store.add(std::move(label), std::move(fp));
    }
    out.added = true;
    if (want_checkpoint) {
        const std::string err = checkpoint();
        // Compaction failure is not data loss — the journal keeps
        // accumulating acked adds — so warn and serve on.
        if (!err.empty())
            warn("checkpoint failed (journal keeps growing): %s",
                 err.c_str());
    }
    return out;
}

ServiceDbStats
AttackService::dbStats() const
{
    ServiceDbStats s;
    std::shared_lock<std::shared_mutex> lock(*gate);
    s.records = size();
    if (const FingerprintStore *owned = store()) {
        const LshIndex::Occupancy occ = owned->index().occupancy();
        s.hasOccupancy = true;
        s.lshBuckets = occ.buckets;
        s.largestBucket = occ.largestBucket;
        s.lshBytes = owned->index().memoryBytes();
        s.postingsBytes = owned->postingsBytes();
    } else {
        s.backend = "mmap";
    }
    withStore([&](const auto &st) {
        s.indexParams = st.indexParams();
        s.universeBits = static_cast<std::size_t>(st.bitCount());
        const auto &fps = st.sparseFingerprints();
        for (std::size_t i = 0; i < fps.count(); ++i) {
            const std::size_t cells = fps.weight(i);
            s.volatileCells += cells;
            s.diskBytesEstimate += recordDiskSize(
                cells, st.label(i).size(), s.indexParams.bands);
        }
    });
    return s;
}

AttackStats
AttackService::snapshot() const
{
    return counters->snapshot();
}

std::string
AttackService::statsJson() const
{
    const AttackStats s = snapshot();
    std::size_t records;
    std::size_t wal_entries = 0;
    {
        std::shared_lock<std::shared_mutex> lock(*gate);
        records = size();
        if (wal)
            wal_entries = wal->entries();
    }
    std::ostringstream json;
    json << "{"
         << "\"backend\": \"" << (readOnly() ? "mmap" : "store")
         << "\", "
         << "\"durable\": " << (durable() ? "true" : "false") << ", "
         << "\"wal_entries\": " << wal_entries << ", "
         << "\"records\": " << records << ", "
         << "\"index_queries\": " << s.indexQueries << ", "
         << "\"index_fallbacks\": " << s.indexFallbacks << ", "
         << "\"candidates_scanned\": " << s.candidatesScanned << ", "
         << "\"records_available\": " << s.recordsAvailable << ", "
         << "\"distances_computed\": " << s.distancesComputed << ", "
         << "\"distances_pruned\": " << s.distancesPruned << ", "
         << "\"pages_probed\": " << s.pagesProbed << ", "
         << "\"characterize_seconds\": " << s.characterizeSeconds
         << ", "
         << "\"identify_seconds\": " << s.identifySeconds << ", "
         << "\"ingest_seconds\": " << s.ingestSeconds << "}";
    return json.str();
}

std::string
AttackService::label(std::size_t i) const
{
    return withStore([&](const auto &s) { return std::string(s.label(i)); });
}

} // namespace pcause
