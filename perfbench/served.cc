/**
 * @file
 * Served workloads: identify_known, identify_reject and enroll, each
 * against an in-process serve::Server over loopback with closed-loop
 * clients (see README.md).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "core/campaign.hh"
#include "core/characterize.hh"
#include "core/minhash.hh"
#include "core/serialize.hh"
#include "core/service.hh"
#include "core/wal.hh"
#include "serve/client.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "trace.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace pcbench
{

namespace
{

using namespace pcause;
namespace fs = std::filesystem;

/** serve::buildPopulation's universe and fingerprint weight. */
constexpr std::size_t universeBits = 8192;
constexpr std::size_t fingerprintWeight = 256;

/** Extra set bits in a known query (a noisy superset). */
constexpr std::size_t noiseBits = 64;

/** Distinct queries cycled by the read streams. */
constexpr std::size_t knownPool = 4096;
constexpr std::size_t rejectPool = 128;

constexpr std::size_t readConnections = 3;
constexpr std::size_t observationsPerAdd = 3;

/** Requests replayed layer by layer in a traced run (also stopped at
 *  a time budget), and journal appends replayed on a scratch journal
 *  (traced enroll). */
constexpr std::size_t maxReplays = 4096;
constexpr std::size_t maxWalReplays = 512;

constexpr std::size_t unlimited = std::numeric_limits<std::size_t>::max();

/** Stream ids mixed into the run seed. */
constexpr std::uint64_t populationStream = 0x706f70;
constexpr std::uint64_t queryStream = 0x717279;
constexpr std::uint64_t enrollStream = 0x656e72;

enum class Kind { Known, Reject, Enroll };

Kind
kindOf(const std::string &workload)
{
    if (workload == "identify_reject")
        return Kind::Reject;
    if (workload == "enroll")
        return Kind::Enroll;
    return Kind::Known;
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

/** Request k of connection @p conn; connection ids above the read
 *  connections name the add stream and the durable replay. */
std::uint64_t
requestId(std::size_t conn, std::size_t k)
{
    return (static_cast<std::uint64_t>(conn) << 32) | k;
}

constexpr std::size_t addConn = 100;
constexpr std::size_t durableConn = 101;

/** Known queries are noisy supersets of random stored fingerprints;
 *  reject queries are fresh weight-256 patterns (uncharacterized
 *  chips). */
std::vector<BitVec>
buildQueryPool(const FingerprintStore &store, bool known,
               std::uint64_t seed)
{
    Rng rng(mix64(seed, queryStream + (known ? 0 : 1)));
    const std::size_t count = known ? knownPool : rejectPool;
    std::vector<BitVec> pool;
    pool.reserve(count);
    for (std::size_t q = 0; q < count; ++q) {
        BitVec bits(universeBits);
        if (known)
            bits = store.record(rng.nextBelow(store.size()))
                       .fingerprint.bits();
        const std::size_t extra = known ? noiseBits : fingerprintWeight;
        for (std::size_t i = 0; i < extra; ++i)
            bits.set(rng.nextBelow(universeBits));
        pool.push_back(std::move(bits));
    }
    return pool;
}

/** serve::directVerdicts over @p queries, sliced across threads. */
std::vector<IdentifyVerdict>
directAll(const FingerprintStore &store,
          const std::vector<BitVec> &queries,
          const QueryOptions &options)
{
    const std::size_t lanes = std::max<std::size_t>(
        1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
    std::vector<std::vector<IdentifyVerdict>> parts(lanes);
    std::vector<std::thread> threads;
    const std::size_t per = (queries.size() + lanes - 1) / lanes;
    for (std::size_t t = 0; t < lanes; ++t) {
        threads.emplace_back([&, t] {
            const std::size_t b = std::min(queries.size(), t * per);
            const std::size_t e = std::min(queries.size(), b + per);
            const std::vector<BitVec> slice(queries.begin() + b,
                                            queries.begin() + e);
            parts[t] = serve::directVerdicts(store, slice, options);
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::vector<IdentifyVerdict> all;
    for (auto &p : parts)
        for (auto &v : p)
            all.push_back(std::move(v));
    return all;
}

/** The queries a read stream cycles through, pre-encoded, with the
 *  direct verdict each served one is diffed against. */
struct ReadSet
{
    std::vector<BitVec> queries;
    std::vector<serve::Payload> frames;
    std::vector<IdentifyVerdict> expected;
    bool wantMatch = true; //!< known queries accept, rejects do not
};

/** One connection's stream (identify or Characterize), checked as it
 *  runs. */
struct StreamLog
{
    std::vector<double> latMs;
    /** Identify streams: completion times from the phase start. */
    std::vector<double> doneS;
    /** Add stream: round-trip time summed up to each completion (the
     *  clock that leaves out building the next request). */
    std::vector<double> busyS;
    std::uint64_t sent = 0;
    std::uint64_t busy = 0;
    std::uint64_t errors = 0;
    std::uint64_t divergences = 0; //!< served verdict != direct one
    std::uint64_t wrongClass = 0;  //!< accepted a reject or vice versa
    std::uint64_t refused = 0;     //!< Characterize not added
};

struct Phase
{
    std::uint16_t port = 0;
    Clock::time_point start;
    std::atomic<bool> stop{false};
    Tracer *tracer = nullptr;
};

/**
 * Closed loop on connection @p conn of @p conns: request k sends
 * query (k * conns + conn) mod pool, until @p limit requests or the
 * phase stops. A BUSY reply is a failed request (not retried).
 */
void
readStream(Phase &phase, const ReadSet &set, std::size_t conn,
           std::size_t conns, std::size_t limit, StreamLog &log)
{
    Tracer::Lane *lane = phase.tracer ? &phase.tracer->lane() : nullptr;
    serve::Client client;
    if (!client.connect(phase.port).empty()) {
        ++log.errors;
        return;
    }
    for (std::size_t k = 0;
         k < limit && !phase.stop.load(std::memory_order_relaxed); ++k) {
        const std::size_t q = (k * conns + conn) % set.frames.size();
        ++log.sent;
        const auto t0 = Clock::now();
        const serve::Reply reply = client.exchange(set.frames[q]);
        const auto t1 = Clock::now();
        if (!reply.ok()) {
            ++log.errors;
            return;
        }
        if (*reply.opcode == serve::Opcode::Busy) {
            ++log.busy;
            continue;
        }
        if (*reply.opcode != serve::Opcode::Verdict) {
            ++log.errors;
            return;
        }
        LoadResult<IdentifyVerdict> v = serve::decodeVerdict(reply.payload);
        if (!v) {
            ++log.errors;
            return;
        }
        if (lane)
            lane->record("client.identify", nullptr, requestId(conn, k),
                         t0, t1);
        log.latMs.push_back(msBetween(t0, t1));
        log.doneS.push_back(secondsBetween(phase.start, t1));
        log.divergences += serve::verdictsDiverge(*v, set.expected[q]);
        log.wrongClass += v->matched != set.wantMatch;
    }
}

/** Characterize request for new chip @p chip: its first three
 *  campaign observations. */
serve::CharacterizeRequest
enrollRequest(const CampaignSpec &spec, std::uint64_t chip)
{
    serve::CharacterizeRequest req;
    req.label = "enroll-" + std::to_string(chip);
    const BitVec base = campaignChipBase(spec, chip);
    for (std::size_t j = 0; j < observationsPerAdd; ++j) {
        req.errorStrings.push_back(campaignObservation(
            spec, base, chip * observationsPerAdd + j));
    }
    return req;
}

/** Closed-loop Characterize stream of chips first_chip, first_chip+1,
 *  ... until @p limit adds or the phase stops. Requests are built
 *  before their round trip is timed. */
void
addStream(Phase &phase, const CampaignSpec &spec,
          std::uint64_t first_chip, std::size_t limit, StreamLog &log)
{
    Tracer::Lane *lane = phase.tracer ? &phase.tracer->lane() : nullptr;
    serve::Client client;
    if (!client.connect(phase.port).empty()) {
        ++log.errors;
        return;
    }
    for (std::size_t k = 0;
         k < limit && !phase.stop.load(std::memory_order_relaxed); ++k) {
        const serve::Payload frame =
            serve::encodeCharacterize(enrollRequest(spec, first_chip + k));
        ++log.sent;
        const auto t0 = Clock::now();
        const serve::Reply reply = client.exchange(frame);
        const auto t1 = Clock::now();
        if (!reply.ok() || *reply.opcode != serve::Opcode::Added) {
            ++log.errors;
            return;
        }
        LoadResult<serve::AddReply> added =
            serve::decodeAdded(reply.payload);
        if (!added || !added->added) {
            ++log.refused;
            continue;
        }
        if (lane)
            lane->record("client.add", nullptr, requestId(addConn, k), t0,
                         t1);
        log.latMs.push_back(msBetween(t0, t1));
        log.busyS.push_back((log.busyS.empty() ? 0.0 : log.busyS.back()) +
                            secondsBetween(t0, t1));
    }
}

/** Counters from the Stats endpoint. */
struct StatsSample
{
    double identifySeconds = 0.0;
    double queries = 0.0;
    double fallbacks = 0.0;
    double candidates = 0.0;
    double computed = 0.0;
    double pruned = 0.0;
};

StatsSample
readStats(std::uint16_t port)
{
    StatsSample s;
    serve::Client client;
    if (!client.connect(port).empty())
        return s;
    const serve::Reply reply =
        client.exchange(serve::encodeEmpty(serve::Opcode::Stats));
    if (!reply.ok())
        return s;
    LoadResult<std::string> json = serve::decodeJson(reply.payload);
    if (!json)
        return s;
    s.identifySeconds = jsonNumber(*json, "identify_seconds");
    s.queries = jsonNumber(*json, "index_queries");
    s.fallbacks = jsonNumber(*json, "index_fallbacks");
    s.candidates = jsonNumber(*json, "candidates_scanned");
    s.computed = jsonNumber(*json, "distances_computed");
    s.pruned = jsonNumber(*json, "distances_pruned");
    return s;
}

/** Record count from Health; -1 when unreachable. */
double
healthRecords(std::uint16_t port)
{
    serve::Client client;
    if (!client.connect(port).empty())
        return -1.0;
    const std::optional<std::string> h = client.health();
    return h ? jsonNumber(*h, "records", -1.0) : -1.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The service under test plus its server; the server goes first. */
struct Live
{
    std::unique_ptr<AttackService> svc;
    std::unique_ptr<serve::Server> server;

    void reset()
    {
        server.reset();
        svc.reset();
    }
};

/**
 * One set-up: open the v3 store, start the server, and wait for its
 * Health answer. Returns the seconds from open to Health, or a
 * negative value with @p err set.
 */
double
setUp(const Options &opt, ThreadPool &lane, Live &live, std::string &err)
{
    live.reset();
    const auto t0 = Clock::now();
    LoadResult<AttackService> opened = AttackService::open(opt.storePath);
    if (!opened) {
        err = "open: " + opened.error;
        return -1.0;
    }
    live.svc = std::make_unique<AttackService>(std::move(*opened));
    live.svc->setThreadPool(&lane);
    live.server =
        std::make_unique<serve::Server>(*live.svc, serve::ServerConfig{});
    serve::Client client;
    if (!client.connect(live.server->port()).empty()) {
        err = "cannot connect to the server";
        return -1.0;
    }
    const std::optional<std::string> health = client.health();
    const auto t1 = Clock::now();
    if (!health || health->find("\"serving\"") == std::string::npos) {
        err = "server is not serving";
        return -1.0;
    }
    return secondsBetween(t0, t1);
}

/** One pass over the read (and add) streams. */
struct PassResult
{
    std::vector<StreamLog> reads;
    StreamLog adds;
    double endS = 0.0;
};

/** What a pass sends: the read set on @p conns connections, plus,
 *  when @p enroll is set, the Characterize stream from @p firstChip. */
struct PassPlan
{
    const ReadSet *reads = nullptr;
    std::size_t conns = 1;
    const CampaignSpec *enroll = nullptr;
    std::uint64_t firstChip = 0;
};

/**
 * Run one pass. With no limits it lasts @p seconds. With limits it
 * replays a previous pass: each read connection sends its earlier
 * request count (@p read_limits), or, when enrolling, the add stream
 * sends @p add_limit adds while the reads run beside it.
 */
PassResult
runPass(std::uint16_t port, const PassPlan &plan, double seconds,
        const std::vector<std::size_t> *read_limits,
        std::size_t add_limit, Tracer *tracer)
{
    PassResult res;
    res.reads.resize(plan.conns);
    Phase phase;
    phase.port = port;
    phase.tracer = tracer;
    phase.start = Clock::now();
    const bool timed = !read_limits && add_limit == unlimited;

    std::vector<std::thread> readers;
    for (std::size_t c = 0; c < plan.conns; ++c) {
        const std::size_t limit =
            read_limits && !plan.enroll ? (*read_limits)[c] : unlimited;
        readers.emplace_back([&, c, limit] {
            readStream(phase, *plan.reads, c, plan.conns, limit,
                       res.reads[c]);
        });
    }
    std::thread adder;
    if (plan.enroll) {
        adder = std::thread([&] {
            addStream(phase, *plan.enroll, plan.firstChip, add_limit,
                      res.adds);
        });
    }
    if (timed) {
        std::this_thread::sleep_until(
            phase.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds)));
        phase.stop = true;
    }
    if (adder.joinable()) {
        adder.join();
        phase.stop = true;
    }
    for (std::thread &t : readers)
        t.join();
    res.endS = timed ? seconds : secondsBetween(phase.start, Clock::now());
    return res;
}

void
concat(const std::vector<StreamLog> &logs, std::vector<double> &lat,
       std::vector<double> &done)
{
    for (const StreamLog &l : logs) {
        lat.insert(lat.end(), l.latMs.begin(), l.latMs.end());
        done.insert(done.end(), l.doneS.begin(), l.doneS.end());
    }
}

/** Per-layer replay of traced identify requests: the benchmark calls
 *  each inner layer itself, outermost first, with the request's
 *  query. Stops after @p budget seconds (at least 8 requests). */
void
replayIdentify(Tracer &tracer, const AttackService &svc,
               const ReadSet &set, const PassResult &traced,
               std::size_t conns, double budget)
{
    const FingerprintStore &store = *svc.store();
    Tracer::Lane &lane = tracer.lane();
    const QueryOptions options;
    const IdentifyParams params = options.identifyParams();
    const auto start = Clock::now();
    std::size_t done = 0;
    for (std::size_t k = 0;; ++k) {
        bool any = false;
        for (std::size_t c = 0; c < conns; ++c) {
            if (k >= traced.reads[c].sent)
                continue;
            any = true;
            const std::uint64_t id = requestId(c, k);
            const BitVec &es =
                set.queries[(k * conns + c) % set.queries.size()];

            auto t0 = Clock::now();
            (void)svc.identify({es, options});
            auto t1 = Clock::now();
            lane.record("service.identify", "client.identify", id, t0, t1);

            AttackStats st;
            t0 = Clock::now();
            (void)store.query(es, params, &st);
            t1 = Clock::now();
            lane.record("store.query", "service.identify", id, t0, t1);

            t0 = Clock::now();
            const MinHashSketch sketch =
                minhashSketch(es, store.indexParams());
            t1 = Clock::now();
            lane.record("minhash.sketch", "store.query", id, t0, t1);

            t0 = Clock::now();
            (void)store.index().candidates(sketch);
            t1 = Clock::now();
            lane.record("minhash.probe", "store.query", id, t0, t1);

            if (st.indexFallbacks > 0) {
                t0 = Clock::now();
                (void)store.queryLinear(es, params);
                t1 = Clock::now();
                lane.record("store.linear", "store.query", id, t0, t1);
            }
            ++done;
        }
        if (!any || done >= maxReplays ||
            (done >= 8 && secondsBetween(start, Clock::now()) > budget))
            break;
    }
}

/**
 * Per-layer replay of the traced pass's adds, same inputs: the Alg 1
 * fold and AttackService::addFingerprint on the served service (as
 * new records labeled replay-*), for @p budget seconds (at least 8).
 */
void
replayAdds(Tracer &tracer, AttackService &svc, const CampaignSpec &spec,
           std::uint64_t first_chip, std::size_t count, double budget,
           std::size_t &added)
{
    Tracer::Lane &lane = tracer.lane();
    const BitVec exact(universeBits);
    const auto start = Clock::now();
    for (std::size_t k = 0; k < std::min(count, maxReplays); ++k) {
        const std::uint64_t id = requestId(addConn, k);
        const serve::CharacterizeRequest req =
            enrollRequest(spec, first_chip + k);

        auto t0 = Clock::now();
        (void)svc.addFingerprint("replay-" + req.label, req.errorStrings);
        auto t1 = Clock::now();
        lane.record("service.add", "client.add", id, t0, t1);
        ++added;

        t0 = Clock::now();
        (void)characterize(req.errorStrings, exact);
        t1 = Clock::now();
        lane.record("characterize.fold", "service.add", id, t0, t1);

        if (k >= 8 && secondsBetween(start, Clock::now()) > budget)
            break;
    }
}

/** What the durable replay measured. */
struct DurableReplay
{
    std::size_t adds = 0;
    std::vector<double> latMs;
    std::vector<std::size_t> checkpointAdds; //!< indices into latMs
    double journalBytesPerEntry = 0.0;
    double snapshotBytes = 0.0;
    std::string error;
};

/**
 * Durable enrolment, replayed: the same snapshot opened with
 * AttackService::openDurable in the data directory (journal fsync
 * before every ack, checkpoint every 1024 adds), fed the traced
 * pass's add inputs for exactly one checkpoint interval, plus
 * Wal::append on a scratch journal beside it.
 */
DurableReplay
replayDurable(Tracer &tracer, const Options &opt, ThreadPool &lane_pool,
              const CampaignSpec &spec, std::uint64_t first_chip)
{
    DurableReplay out;
    Tracer::Lane &lane = tracer.lane();
    AttackService::DurabilityConfig dur;
    dur.dbPath = opt.dataDir + "/durable.pcdb";
    dur.walPath = opt.dataDir + "/durable.wal";
    const std::string scratchPath = opt.dataDir + "/scratch.wal";
    // A hard link, not a copy: compaction and checkpoints replace the
    // snapshot by rename, so the prepared file is never written, and
    // no extra snapshot's worth of dirty pages is left behind.
    std::error_code ec;
    fs::remove(dur.walPath, ec);
    fs::remove(dur.dbPath, ec);
    fs::create_hard_link(opt.storePath, dur.dbPath, ec);
    if (ec)
        fs::copy_file(opt.storePath, dur.dbPath, ec);
    if (ec) {
        out.error = "snapshot: " + ec.message();
        return out;
    }
    LoadResult<AttackService> opened = AttackService::openDurable(dur);
    if (!opened) {
        out.error = "openDurable: " + opened.error;
        return out;
    }
    AttackService &svc = *opened;
    svc.setThreadPool(&lane_pool);
    LoadResult<Wal> scratch = Wal::create(scratchPath, 0);
    if (!scratch) {
        out.error = "scratch journal: " + scratch.error;
        return out;
    }
    const auto header = fs::file_size(scratchPath, ec);
    const std::size_t base = svc.size();
    const BitVec exact(universeBits);

    for (std::size_t k = 0; k < dur.checkpointEvery; ++k) {
        const std::uint64_t id = requestId(durableConn, k);
        const serve::CharacterizeRequest req =
            enrollRequest(spec, first_chip + k);

        auto t0 = Clock::now();
        const AttackService::AddOutcome added =
            svc.addFingerprint(req.label, req.errorStrings);
        auto t1 = Clock::now();
        lane.record("durable.add", nullptr, id, t0, t1);
        if (!added.added) {
            out.error = "durable add refused: " + added.error;
            return out;
        }
        ++out.adds;
        out.latMs.push_back(msBetween(t0, t1));
        // The add that fills the journal returns after the checkpoint
        // it ran, which leaves the journal empty.
        if (svc.walEntries() == 0)
            out.checkpointAdds.push_back(out.latMs.size() - 1);

        if (k < maxWalReplays) {
            const Fingerprint fp = characterize(req.errorStrings, exact);
            std::string err;
            t0 = Clock::now();
            const bool appended = scratch->append(req.label, fp, &err);
            t1 = Clock::now();
            lane.record("wal.append", "durable.add", id, t0, t1);
            if (!appended) {
                out.error = "scratch append: " + err;
                return out;
            }
        }
    }
    if (svc.size() != base + out.adds)
        out.error = "durable store lost adds";
    const auto size = fs::file_size(scratchPath, ec);
    if (!ec)
        out.journalBytesPerEntry =
            static_cast<double>(size - header) /
            static_cast<double>(std::min(out.adds, maxWalReplays));
    out.snapshotBytes = static_cast<double>(fs::file_size(dur.dbPath, ec));
    return out;
}

} // anonymous namespace

bool
preparePopulation(std::uint64_t seed, std::size_t records,
                  const std::string &path)
{
    serve::PopulationParams params;
    params.records = records;
    params.seed = mix64(seed, populationStream);
    const FingerprintStore store = serve::buildPopulation(params);
    // Durable write: the file is on disk before the measured process
    // starts, so no writeback of it runs during measurement.
    return saveStoreDurable(store, path);
}


namespace
{

/** A pass plus the server and process counters across it. */
struct Observed
{
    PassResult pass;
    StatsSample before, after;
    ProcessSample p0, p1;
    double batchSize = 0.0;

    /** Stats delta helpers. */
    double queries() const { return after.queries - before.queries; }
    double identifyMs() const
    {
        return ratio(after.identifySeconds - before.identifySeconds,
                     queries()) * 1e3;
    }
};

Observed
observe(const serve::Server &server, const PassPlan &plan, double seconds,
        const std::vector<std::size_t> *read_limits, std::size_t add_limit,
        Tracer *tracer)
{
    Observed o;
    const std::size_t served0 = server.batcher().served();
    const std::size_t batches0 = server.batcher().batches();
    o.before = readStats(server.port());
    o.p0 = sampleProcess();
    o.pass = runPass(server.port(), plan, seconds, read_limits, add_limit,
                     tracer);
    o.p1 = sampleProcess();
    o.after = readStats(server.port());
    o.batchSize =
        ratio(static_cast<double>(server.batcher().served() - served0),
              static_cast<double>(server.batcher().batches() - batches0));
    return o;
}

} // anonymous namespace

Outcome
runServed(const Options &opt, Meta &meta)
{
    Outcome res;
    const Kind kind = kindOf(opt.workload);
    const bool enroll = kind == Kind::Enroll;
    const std::size_t conns = kind == Kind::Reject ? 1 : readConnections;
    meta.set("pool_lanes", 1.0);
    meta.set("connections", static_cast<double>(enroll ? 1 : conns));
    meta.set("records", static_cast<double>(opt.records));
    meta.set("data_fs", fsTypeName(opt.dataDir));
    meta.set("setup_reps", static_cast<double>(setupReps));

    // One inline lane: fallback scans and batches run on the
    // batcher's drain thread (multi-lane scans do not repeat here).
    ThreadPool lane(1);
    Live live;
    std::vector<double> setups;
    for (int rep = 0; rep < setupReps; ++rep) {
        std::string err;
        const double s = setUp(opt, lane, live, err);
        if (s < 0.0) {
            std::printf("error: %s\n", err.c_str());
            res.correct = false;
            res.tally = {1, 1};
            return res;
        }
        setups.push_back(s);
    }
    AttackService &svc = *live.svc;
    const serve::Server &server = *live.server;
    const FingerprintStore &store = *svc.store();
    const std::uint16_t port = server.port();
    const double records0 = healthRecords(port);

    // Queries and their direct verdicts (serve::directVerdicts: the
    // same FingerprintStore::query the service dispatches to) are
    // fixed before any traffic; served verdicts are diffed as they
    // arrive. Enrolled chips are new, far from every known query, so
    // they cannot change a verdict.
    const QueryOptions options;
    ReadSet reads;
    reads.wantMatch = kind != Kind::Reject;
    reads.queries = buildQueryPool(store, reads.wantMatch, opt.seed);
    for (const BitVec &q : reads.queries)
        reads.frames.push_back(serve::encodeIdentify({q, options}));
    reads.expected = directAll(store, reads.queries, options);
    if (opt.corrupt == "verdict") {
        reads.expected[0].matched = !reads.expected[0].matched;
        reads.expected[0].label += "#corrupted";
    }
    CampaignSpec enrollSpec;
    enrollSpec.chips = std::size_t{1} << 40;
    enrollSpec.universeBits = universeBits;
    enrollSpec.fingerprintWeight = fingerprintWeight;
    enrollSpec.seed = mix64(opt.seed, enrollStream);

    // enroll measures adds alone: beside identify traffic the add rate
    // swings with lock hand-off timing (see README.md), so reads under
    // writes are a traced-run diagnostic.
    PassPlan plan;
    plan.reads = &reads;
    plan.conns = enroll ? 0 : conns;
    plan.enroll = enroll ? &enrollSpec : nullptr;

    // Memory to open and serve the store, before enroll grows it.
    const double rssMb = sampleProcess().maxRssMb;

    // Warm-up with the measured traffic: caches, the batcher, and (for
    // enroll) the store's first growth past its loaded capacity.
    const PassResult warm = runPass(
        port, plan, std::min(1.0, 0.1 * opt.seconds), nullptr, unlimited,
        nullptr);

    plan.firstChip = warm.adds.sent;
    const Observed measured =
        observe(server, plan, opt.seconds, nullptr, unlimited, nullptr);
    std::vector<double> lat, done;
    concat(measured.pass.reads, lat, done);
    if (enroll) {
        // Adds run on the round-trip clock: building the next request
        // (campaign synthesis) is outside the timed calls, as in
        // campaign_cluster.
        lat = measured.pass.adds.latMs;
        done = measured.pass.adds.busyS;
    }
    const double p50 = percentile(lat, 50.0);
    const double ops = static_cast<double>(lat.size());

    // Traced run: the same request streams again with client spans,
    // then the inner layers replayed per request. For enroll, a pass
    // of adds beside the identify connections, the add replays, and
    // the durable replay follow.
    std::unique_ptr<Tracer> tracer;
    PassResult traced;
    Observed contended;
    std::size_t replayedAdds = 0;
    DurableReplay durable;
    if (opt.trace) {
        tracer = std::make_unique<Tracer>(Clock::now());
        std::vector<std::size_t> limits;
        for (const StreamLog &l : measured.pass.reads)
            limits.push_back(l.sent);
        plan.firstChip += measured.pass.adds.sent;
        traced = runPass(port, plan, opt.seconds, &limits,
                         enroll ? measured.pass.adds.sent : unlimited,
                         tracer.get());
        if (enroll) {
            replayAdds(*tracer, svc, enrollSpec, plan.firstChip,
                       traced.adds.latMs.size(), 0.25 * opt.seconds,
                       replayedAdds);
            durable = replayDurable(*tracer, opt, lane, enrollSpec,
                                    plan.firstChip);
            if (!durable.error.empty())
                std::printf("error: durable replay: %s\n",
                            durable.error.c_str());
            PassPlan both = plan;
            both.conns = readConnections;
            both.firstChip += traced.adds.sent;
            contended = observe(server, both, 0.5 * opt.seconds, nullptr,
                                unlimited, nullptr);
        } else {
            replayIdentify(*tracer, svc, reads, traced, conns,
                           0.5 * opt.seconds);
        }
    }

    // Checks: served verdicts (diffed in the streams) and, for
    // enroll, that every add landed.
    std::uint64_t divergences = 0, wrongClass = 0, busy = 0, transport = 0;
    std::uint64_t sent = 0, refused = 0, added = replayedAdds;
    const PassResult *passes[] = {&warm, &measured.pass, &traced,
                                  &contended.pass};
    for (const PassResult *pass : passes) {
        std::vector<const StreamLog *> logs = {&pass->adds};
        for (const StreamLog &l : pass->reads)
            logs.push_back(&l);
        for (const StreamLog *l : logs) {
            sent += l->sent;
            busy += l->busy;
            transport += l->errors;
            divergences += l->divergences;
            wrongClass += l->wrongClass;
            refused += l->refused;
        }
        added += pass->adds.latMs.size();
    }
    std::uint64_t lost = durable.error.empty() ? 0 : 1;
    const double records1 = healthRecords(port);
    if (records1 != records0 + static_cast<double>(added)) {
        std::printf("error: %.0f records after the run, expected %.0f\n",
                    records1, records0 + static_cast<double>(added));
        lost += static_cast<std::uint64_t>(std::max(
            1.0, std::abs(records1 - records0 - static_cast<double>(added))));
    }
    res.tally.attempted = sent;
    res.tally.failed =
        divergences + wrongClass + busy + transport + refused + lost;
    res.correct = res.tally.failed == 0 && sent > 0;
    std::printf("checks: %llu sent, %llu divergent, %llu wrong class, "
                "%llu busy, %llu transport errors, %llu refused adds\n",
                (unsigned long long)sent, (unsigned long long)divergences,
                (unsigned long long)wrongClass, (unsigned long long)busy,
                (unsigned long long)transport, (unsigned long long)refused);

    // End-to-end metrics.
    const double rate = chunkRate(done);
    res.endToEnd.add("setup_s", percentile(setups, 50.0), "s");
    res.endToEnd.add("rss_mb", rssMb, "MB");
    res.endToEnd.add("p50_ms", p50, "ms");
    std::printf("measured: %.0f %s in %.2f s, p50 %.4f ms, %.1f/s\n", ops,
                enroll ? "adds" : "identifies", measured.pass.endS, p50, rate);
    std::printf("dist: p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f; "
                "mean rate %.1f/s\n",
                percentile(lat, 10), percentile(lat, 25), p50,
                percentile(lat, 75), percentile(lat, 90),
                ops / measured.pass.endS);

    if (!opt.trace)
        return res;

    // Per-layer metrics. The serve and store counters come from the
    // identify traffic: the measured pass, or enroll's pass beside
    // adds.
    Metrics &L = res.perLayer;
    L.add("throughput.ops_per_s", rate, "1/s");
    const Observed &rd = enroll ? contended : measured;
    std::vector<double> readLat, readDone;
    concat(rd.pass.reads, readLat, readDone);
    const double dq = rd.queries();
    L.add("serve.overhead_ms", mean(readLat) - rd.identifyMs(), "ms");
    L.add("serve.batch_size", rd.batchSize, "count");
    L.add("serve.identify_p50_ms", percentile(readLat, 50.0), "ms");
    L.add("serve.identify_ops_per_s",
          chunkRate(readDone), "1/s");
    L.add("serve.identify_p90_ms", percentile(readLat, 90.0), "ms");
    L.add("serve.identify_p99_ms", percentile(readLat, 99.0), "ms");
    L.add("serve.identify_p999_ms", percentile(readLat, 99.9), "ms");
    L.add("serve.identify_samples", static_cast<double>(readLat.size()),
          "count");
    L.add("serve.busy_replies", static_cast<double>(busy), "count");
    L.add("serve.transport_errors", static_cast<double>(transport), "count");
    L.add("serve.divergences", static_cast<double>(divergences), "count");
    L.add("process.cpu_ms_per_op",
          ratio((measured.p1.cpuSeconds - measured.p0.cpuSeconds) * 1e3, ops),
          "ms");
    L.add("process.ctx_switches_per_op",
          ratio(static_cast<double>(measured.p1.ctxSwitches -
                                    measured.p0.ctxSwitches),
                ops),
          "count");
    L.add("service.identify_ms", rd.identifyMs(), "ms");
    L.add("minhash.candidates_per_query",
          ratio(rd.after.candidates - rd.before.candidates, dq), "count");
    L.add("store.fallback_fraction",
          ratio(rd.after.fallbacks - rd.before.fallbacks, dq), "fraction");
    const double pruned = rd.after.pruned - rd.before.pruned;
    L.add("store.pruned_fraction",
          ratio(pruned, rd.after.computed - rd.before.computed + pruned),
          "fraction");

    const auto spans = tracer->summarize();
    const auto spanUs = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.meanUs;
    };
    L.add("minhash.sketch_us", spanUs("minhash.sketch"), "us");
    L.add("minhash.probe_us", spanUs("minhash.probe"), "us");
    L.add("store.query_ms", spanUs("store.query") / 1e3, "ms");
    L.add("store.fallback_ns_per_record",
          spanUs("store.linear") * 1e3 / static_cast<double>(store.size()),
          "ns");
    L.add("service.add_ms", spanUs("service.add") / 1e3, "ms");
    L.add("characterize.us_per_chip", spanUs("characterize.fold"), "us");
    L.add("wal.append_us", spanUs("wal.append"), "us");
    if (enroll) {
        const double durableP50 = percentile(durable.latMs, 50.0);
        std::vector<double> ckptExtra;
        for (std::size_t i : durable.checkpointAdds)
            ckptExtra.push_back((durable.latMs[i] - durableP50) / 1e3);
        const double ckpts =
            static_cast<double>(durable.checkpointAdds.size());
        L.add("wal.durable_add_ms", durableP50, "ms");
        L.add("wal.checkpoints", ckpts, "count");
        L.add("wal.checkpoint_s", mean(ckptExtra), "s");
        L.add("wal.bytes_written_per_add",
              durable.journalBytesPerEntry +
                  ratio(durable.snapshotBytes * ckpts,
                        static_cast<double>(durable.adds)),
              "B");
        std::printf("wal: %zu adds, %zu checkpoints (every %zu adds), "
                    "snapshot %.0f bytes, data on %s\n",
                    durable.adds, durable.checkpointAdds.size(),
                    AttackService::DurabilityConfig{}.checkpointEvery,
                    durable.snapshotBytes, fsTypeName(opt.dataDir).c_str());
    }

    std::vector<double> tracedLat = traced.adds.latMs, tracedDone;
    if (!enroll)
        concat(traced.reads, tracedLat, tracedDone);
    L.add("trace.overhead_pct",
          ratio(percentile(tracedLat, 50.0) - p50, p50) * 100.0, "%");

    tracer->printSummary();
    if (!opt.traceOut.empty() && !tracer->write(opt.traceOut))
        std::printf("warning: cannot write %s\n", opt.traceOut.c_str());
    return res;
}

} // namespace pcbench
