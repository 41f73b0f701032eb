/**
 * @file
 * Tests for the pcaused serve layer: wire-protocol round trips,
 * hostile-input handling (truncated frames, oversized length
 * prefixes, garbage opcodes — every one must produce a clean Error
 * close with the server surviving), the BUSY backpressure path,
 * worker reaping, and end-to-end served-verdict equivalence against
 * direct store queries over a real loopback socket.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace pcause
{
namespace
{

using namespace pcause::serve;

constexpr std::size_t universe = 4096;

BitVec
randomPattern(Rng &rng, std::size_t weight)
{
    BitVec bits(universe);
    for (std::size_t i = 0; i < weight; ++i)
        bits.set(rng.nextBelow(universe));
    return bits;
}

FingerprintStore
makeStore(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    FingerprintStore store;
    for (std::size_t i = 0; i < n; ++i)
        store.add("chip-" + std::to_string(i),
                  Fingerprint(randomPattern(rng, 64), 3));
    return store;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// --- Protocol round trips ----------------------------------------

TEST(Protocol, IdentifyRoundTrip)
{
    Rng rng(0x1);
    IdentifyRequest req;
    req.errorString = randomPattern(rng, 100);
    req.options.threshold = 0.07;
    req.options.linear = true;
    req.options.firstMatch = false;

    const Payload p = encodeIdentify(req);
    LoadResult<IdentifyRequest> back = decodeIdentify(p);
    ASSERT_TRUE(back) << back.error;
    EXPECT_TRUE(back->options == req.options);
    ASSERT_EQ(back->errorString.size(), req.errorString.size());
    for (std::size_t w = 0; w < req.errorString.wordCount(); ++w)
        ASSERT_EQ(back->errorString.wordAt(w),
                  req.errorString.wordAt(w));
}

TEST(Protocol, VerdictRoundTripIsBitExact)
{
    IdentifyVerdict v;
    v.matched = true;
    v.label = "chip-9";
    v.nearestLabel = "chip-9";
    v.distance = 0.1 + 0.2; // a value with ugly low bits
    v.delta.candidatesScanned = 17;
    v.delta.recordsAvailable = 1000;
    v.delta.indexFallbacks = 1;

    LoadResult<IdentifyVerdict> back = decodeVerdict(encodeVerdict(v));
    ASSERT_TRUE(back) << back.error;
    EXPECT_EQ(back->matched, v.matched);
    EXPECT_EQ(back->label, v.label);
    EXPECT_TRUE(sameBits(back->distance, v.distance));
    EXPECT_EQ(back->delta.candidatesScanned, 17u);
    EXPECT_EQ(back->delta.recordsAvailable, 1000u);
    EXPECT_EQ(back->delta.indexFallbacks, 1u);
}

TEST(Protocol, CharacterizeRoundTrip)
{
    Rng rng(0x2);
    CharacterizeRequest req;
    req.label = "fresh-chip";
    req.errorStrings = {randomPattern(rng, 32),
                        randomPattern(rng, 32)};
    LoadResult<CharacterizeRequest> back =
        decodeCharacterize(encodeCharacterize(req));
    ASSERT_TRUE(back) << back.error;
    EXPECT_EQ(back->label, req.label);
    ASSERT_EQ(back->errorStrings.size(), 2u);
    EXPECT_EQ(back->errorStrings[0].popcount(),
              req.errorStrings[0].popcount());
}

/** The serializer's every-prefix discipline, applied to the wire:
 *  every strict prefix of a valid payload must decode to a clean
 *  error, never crash or succeed. */
TEST(Protocol, EveryPrefixOfIdentifyFailsCleanly)
{
    Rng rng(0x3);
    IdentifyRequest req;
    req.errorString = randomPattern(rng, 64);
    const Payload full = encodeIdentify(req);
    for (std::size_t len = 0; len < full.size(); ++len) {
        const Payload prefix(full.begin(), full.begin() + len);
        LoadResult<IdentifyRequest> r = decodeIdentify(prefix);
        EXPECT_FALSE(r) << "prefix of length " << len << " decoded";
    }
    // And trailing garbage is rejected too.
    Payload extended = full;
    extended.push_back(0);
    EXPECT_FALSE(decodeIdentify(extended));
}

TEST(Protocol, EveryPrefixOfVerdictFailsCleanly)
{
    IdentifyVerdict v;
    v.matched = true;
    v.label = "chip-1";
    v.nearestLabel = "chip-1";
    const Payload full = encodeVerdict(v);
    for (std::size_t len = 0; len < full.size(); ++len) {
        const Payload prefix(full.begin(), full.begin() + len);
        EXPECT_FALSE(decodeVerdict(prefix));
    }
}

TEST(Protocol, RejectsMalformedFields)
{
    Rng rng(0x4);
    IdentifyRequest req;
    req.errorString = randomPattern(rng, 16);

    // Unknown flag bits.
    Payload p = encodeIdentify(req);
    p[1] |= 0x80;
    EXPECT_FALSE(decodeIdentify(p));

    // Metric byte out of range.
    p = encodeIdentify(req);
    p[2] = 9;
    EXPECT_FALSE(decodeIdentify(p));

    // Non-finite threshold.
    p = encodeIdentify(req);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(p.data() + 3, &nan, sizeof(nan));
    EXPECT_FALSE(decodeIdentify(p));

    // Oversized label length in characterize.
    CharacterizeRequest c;
    c.label = "x";
    c.errorStrings = {randomPattern(rng, 8)};
    Payload cp = encodeCharacterize(c);
    const std::uint32_t huge = maxLabelBytes + 1;
    std::memcpy(cp.data() + 1, &huge, sizeof(huge));
    EXPECT_FALSE(decodeCharacterize(cp));

    // Wrong opcode entirely.
    EXPECT_FALSE(decodeIdentify(encodeEmpty(Opcode::DbStats)));
}

// --- Server over a real socket -----------------------------------

struct ServerFixture
{
    AttackService svc;
    Server server;

    explicit ServerFixture(std::size_t records,
                           ServerConfig cfg = {})
        : svc(makeStore(records, 0xF00)), server(svc, cfg)
    {
        svc.setThreadPool(&ThreadPool::global());
    }
};

TEST(Server, ServedVerdictsEqualDirectQueries)
{
    ServerFixture fx(40);
    Client client;
    ASSERT_EQ(client.connect(fx.server.port()), "");

    Rng rng(0x41);
    for (int i = 0; i < 30; ++i) {
        BitVec es =
            fx.svc.store()->record(i % 40).fingerprint.bits();
        for (int b = 0; b < 8; ++b)
            es.set(rng.nextBelow(universe));

        IdentifyRequest req;
        req.errorString = es;
        const std::optional<IdentifyVerdict> served =
            client.identify(req, 4);
        ASSERT_TRUE(served.has_value());
        const IdentifyVerdict direct = fx.svc.identify(req);
        EXPECT_EQ(served->matched, direct.matched);
        EXPECT_EQ(served->label, direct.label);
        EXPECT_TRUE(sameBits(served->distance, direct.distance));
    }
}

TEST(Server, CharacterizeOverWireAddsARecord)
{
    ServerFixture fx(3);
    Client client;
    ASSERT_EQ(client.connect(fx.server.port()), "");

    Rng rng(0x42);
    const BitVec pattern = randomPattern(rng, 64);
    CharacterizeRequest req;
    req.label = "wire-chip";
    req.errorStrings = {pattern, pattern};

    const Reply r = client.exchange(encodeCharacterize(req));
    ASSERT_TRUE(r.ok()) << r.transportError;
    ASSERT_EQ(*r.opcode, Opcode::Added);
    LoadResult<AddReply> added = decodeAdded(r.payload);
    ASSERT_TRUE(added) << added.error;
    EXPECT_TRUE(added->added);
    EXPECT_EQ(added->record, 3u);
    EXPECT_EQ(fx.svc.size(), 4u);

    // The new record is immediately identifiable over the wire.
    IdentifyRequest idreq;
    idreq.errorString = pattern;
    const std::optional<IdentifyVerdict> v =
        client.identify(idreq, 4);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->matched);
    EXPECT_EQ(v->label, "wire-chip");
}

TEST(Server, DbStatsAndLiveStatsAnswerJson)
{
    ServerFixture fx(7);
    Client client;
    ASSERT_EQ(client.connect(fx.server.port()), "");

    Reply r = client.exchange(encodeEmpty(Opcode::DbStats));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r.opcode, Opcode::Json);
    LoadResult<std::string> db = decodeJson(r.payload);
    ASSERT_TRUE(db);
    EXPECT_NE(db->find("\"records\": 7"), std::string::npos);
    EXPECT_NE(db->find("\"lsh_bytes\": "), std::string::npos);
    EXPECT_NE(db->find("\"postings_bytes\": "), std::string::npos);

    r = client.exchange(encodeEmpty(Opcode::Stats));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r.opcode, Opcode::Json);
    LoadResult<std::string> stats = decodeJson(r.payload);
    ASSERT_TRUE(stats);
    EXPECT_NE(stats->find("\"index_queries\""), std::string::npos);
}

/** Hostile inputs must never take the server down: each one gets a
 *  clean Error reply (best effort) and a connection close, and the
 *  server keeps answering on fresh connections. */
TEST(Server, HostileInputsGetCleanErrorClose)
{
    ServerFixture fx(5);

    const auto expectServerAlive = [&] {
        Client probe;
        ASSERT_EQ(probe.connect(fx.server.port()), "");
        const Reply r = probe.exchange(encodeEmpty(Opcode::DbStats));
        ASSERT_TRUE(r.ok()) << r.transportError;
        EXPECT_EQ(*r.opcode, Opcode::Json);
    };

    {
        // Garbage opcode.
        Client c;
        ASSERT_EQ(c.connect(fx.server.port()), "");
        Payload garbage{0x66, 1, 2, 3};
        const Reply r = c.exchange(garbage);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r.opcode, Opcode::Error);
        // Connection is closed afterwards.
        const Reply next = c.exchange(encodeEmpty(Opcode::DbStats));
        EXPECT_FALSE(next.ok());
    }
    expectServerAlive();

    {
        // Oversized length prefix (body never sent).
        Client c;
        ASSERT_EQ(c.connect(fx.server.port()), "");
        const std::uint32_t huge = maxFramePayload + 1;
        std::uint8_t head[4];
        std::memcpy(head, &huge, 4);
        ASSERT_TRUE(c.sendRaw(head, 4));
        const Reply r = c.receive();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r.opcode, Opcode::Error);
        LoadResult<std::string> msg = decodeError(r.payload);
        ASSERT_TRUE(msg);
        EXPECT_NE(msg->find("oversized"), std::string::npos);
    }
    expectServerAlive();

    {
        // Zero-length frame (no opcode byte).
        Client c;
        ASSERT_EQ(c.connect(fx.server.port()), "");
        const std::uint8_t head[4] = {0, 0, 0, 0};
        ASSERT_TRUE(c.sendRaw(head, 4));
        const Reply r = c.receive();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r.opcode, Opcode::Error);
    }
    expectServerAlive();

    {
        // Truncated frame: length prefix promises more than is
        // sent, then the peer hangs up mid-body.
        Client c;
        ASSERT_EQ(c.connect(fx.server.port()), "");
        const std::uint8_t partial[7] = {32, 0, 0, 0, 0x01, 0xAA,
                                         0xBB};
        ASSERT_TRUE(c.sendRaw(partial, sizeof(partial)));
        c.close();
    }
    expectServerAlive();

    {
        // Structurally valid frame, malformed identify body.
        Client c;
        ASSERT_EQ(c.connect(fx.server.port()), "");
        Rng rng(0x51);
        IdentifyRequest req;
        req.errorString = randomPattern(rng, 16);
        Payload p = encodeIdentify(req);
        p.resize(p.size() / 2); // strict prefix
        const Reply r = c.exchange(p);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r.opcode, Opcode::Error);
    }
    expectServerAlive();
}

TEST(Server, BusyBackpressureIsExplicit)
{
    ServerConfig cfg;
    cfg.maxInFlight = 0; // shed everything
    ServerFixture fx(5, cfg);

    Client c;
    ASSERT_EQ(c.connect(fx.server.port()), "");
    IdentifyRequest req;
    req.errorString = BitVec(universe);
    const Reply r = c.exchange(encodeIdentify(req));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r.opcode, Opcode::Busy);

    // BUSY leaves the connection usable.
    const Reply again = c.exchange(encodeEmpty(Opcode::DbStats));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again.opcode, Opcode::Json);
}

TEST(Server, ConnectionCapRefusesExplicitly)
{
    ServerConfig cfg;
    cfg.maxConnections = 1;
    ServerFixture fx(5, cfg);

    Client first;
    ASSERT_EQ(first.connect(fx.server.port()), "");
    // Prove the first connection is established server-side.
    const Reply ok = first.exchange(encodeEmpty(Opcode::DbStats));
    ASSERT_TRUE(ok.ok());

    Client second;
    ASSERT_EQ(second.connect(fx.server.port()), "");
    const Reply r = second.receive();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r.opcode, Opcode::Error);
}

TEST(Server, ShutdownFrameStopsTheServer)
{
    ServerFixture fx(5);
    Client c;
    ASSERT_EQ(c.connect(fx.server.port()), "");
    const Reply r = c.exchange(encodeEmpty(Opcode::Shutdown));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r.opcode, Opcode::Ok);
    fx.server.wait(); // must return: the server stopped itself
}

TEST(Server, ReadOnlyBackendRefusesCharacterize)
{
    const std::string path = "serve_mapped_test.pcdb";
    ASSERT_TRUE(saveStore(makeStore(6, 0x61), path));
    LoadResult<AttackService> svc = AttackService::open(path, true);
    ASSERT_TRUE(svc) << svc.error;
    Server server(*svc, {});

    Client c;
    ASSERT_EQ(c.connect(server.port()), "");
    Rng rng(0x62);
    CharacterizeRequest req;
    req.label = "nope";
    req.errorStrings = {randomPattern(rng, 8)};
    const Reply r = c.exchange(encodeCharacterize(req));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r.opcode, Opcode::Added);
    LoadResult<AddReply> added = decodeAdded(r.payload);
    ASSERT_TRUE(added);
    EXPECT_FALSE(added->added);
    EXPECT_NE(added->error.find("read-only"), std::string::npos);
    std::remove(path.c_str());
}

/** Identifies run on their connection threads, so several enter
 *  the mapped store's pool-sharded fallback at once; each must still
 *  answer exactly what a direct query answers. */
TEST(Server, ConcurrentMappedIdentifiesEqualDirect)
{
    const std::string path = "serve_mapped_concurrent.pcdb";
    const FingerprintStore stored = makeStore(24, 0x71);
    ASSERT_TRUE(saveStore(stored, path));
    LoadResult<AttackService> svc = AttackService::open(path, true);
    ASSERT_TRUE(svc) << svc.error;
    ThreadPool pool(4);
    svc->setThreadPool(&pool);
    LoadResult<MappedStore> direct = MappedStore::open(path);
    ASSERT_TRUE(direct) << direct.error;
    Server server(*svc, {});

    // Even queries are noisy copies of stored records (known), odd
    // ones random patterns no record matches (reject).
    Rng rng(0x72);
    std::vector<BitVec> queries;
    for (std::size_t i = 0; i < 48; ++i) {
        BitVec es = randomPattern(rng, 64);
        if (i % 2 == 0) {
            es = stored.record(i % stored.size()).fingerprint.bits();
            for (int b = 0; b < 8; ++b)
                es.set(rng.nextBelow(universe));
        }
        queries.push_back(std::move(es));
    }

    constexpr std::size_t conns = 4;
    std::vector<std::optional<IdentifyVerdict>> served(queries.size());
    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < conns; ++c) {
        senders.emplace_back([&, c] {
            Client client;
            if (!client.connect(server.port()).empty())
                return;
            for (std::size_t q = c; q < queries.size(); q += conns) {
                IdentifyRequest req;
                req.errorString = queries[q];
                served[q] = client.identify(req);
            }
        });
    }
    for (std::thread &t : senders)
        t.join();

    std::size_t matched = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const IdentifyResult want = direct->query(queries[q]);
        ASSERT_TRUE(served[q].has_value()) << "query " << q;
        EXPECT_EQ(served[q]->matched, want.match.has_value());
        if (want.match) {
            EXPECT_EQ(served[q]->label,
                      std::string(direct->label(*want.match)));
        }
        EXPECT_TRUE(sameBits(served[q]->distance, want.bestDistance));
        ASSERT_TRUE(want.nearest.has_value());
        EXPECT_EQ(served[q]->nearestLabel,
                  std::string(direct->label(*want.nearest)));
        matched += want.match.has_value();
    }
    // Both branches ran: accepts and exact-scan rejects.
    EXPECT_GT(matched, 0u);
    EXPECT_LT(matched, queries.size());
    std::remove(path.c_str());
}

/** Lines of /proc/self/maps: a finished but unjoined thread keeps
 *  its stack and guard page mapped, two lines. */
long
mappedRegions()
{
    std::ifstream maps("/proc/self/maps");
    long lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

TEST(Server, FinishedConnectionsAreReaped)
{
    ServerFixture fx(3);
    const auto cycle = [&] {
        Client c;
        ASSERT_EQ(c.connect(fx.server.port()), "");
        const Reply r = c.exchange(encodeEmpty(Opcode::Health));
        ASSERT_TRUE(r.ok()) << r.transportError;
    };
    cycle();
    const long before = mappedRegions();
    for (int i = 0; i < 256; ++i)
        cycle();
    // Unreaped, 256 finished workers would add 512 lines.
    EXPECT_LT(mappedRegions() - before, 64);
}

// --- Robustness: health, timeouts, drain, retry ------------------

TEST(Server, HealthOpcodeAnswersStatusJson)
{
    ServerFixture fx(9);
    Client c;
    ASSERT_EQ(c.connect(fx.server.port()), "");
    const Reply r = c.exchange(encodeEmpty(Opcode::Health));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r.opcode, Opcode::Json);
    LoadResult<std::string> json = decodeJson(r.payload);
    ASSERT_TRUE(json) << json.error;
    EXPECT_NE(json->find("\"status\": \"serving\""),
              std::string::npos);
    EXPECT_NE(json->find("\"records\": 9"), std::string::npos);
    EXPECT_NE(json->find("\"durable\": false"), std::string::npos);

    // The Client convenience wrapper sees the same thing.
    const std::optional<std::string> h = c.health();
    ASSERT_TRUE(h.has_value());
    EXPECT_NE(h->find("serving"), std::string::npos);
}

TEST(Server, ReadTimeoutEvictsStalledConnection)
{
    ServerConfig cfg;
    cfg.readTimeoutMs = 100; // an aggressive slowloris deadline
    ServerFixture fx(5, cfg);
    Client c;
    ASSERT_EQ(c.connect(fx.server.port()), "");
    // Stall mid-frame: a length prefix promising bytes that never
    // come — the classic slowloris posture.
    const std::uint8_t head[4] = {40, 0, 0, 0};
    ASSERT_TRUE(c.sendRaw(head, sizeof(head)));
    const Reply r = c.receive();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r.opcode, Opcode::Error);
    LoadResult<std::string> msg = decodeError(r.payload);
    ASSERT_TRUE(msg);
    EXPECT_NE(msg->find("timeout"), std::string::npos);
    // Eviction closes the connection...
    const Reply after = c.receive();
    EXPECT_FALSE(after.ok());
    // ...but the server keeps serving everyone else.
    Client c2;
    ASSERT_EQ(c2.connect(fx.server.port()), "");
    const Reply alive = c2.exchange(encodeEmpty(Opcode::Health));
    ASSERT_TRUE(alive.ok());
    EXPECT_EQ(*alive.opcode, Opcode::Json);
}

TEST(Server, DrainAnswersInFlightRequestsBeforeStopping)
{
    // Pin for the shutdown-ordering race: a request being computed
    // while shutdown starts must still get its reply — the old
    // SHUT_RDWR stop path cut the reply's write side and silently
    // dropped it.
    ServerFixture fx(20);
    failpoint::arm("service.query", failpoint::Action::Delay, 200);

    Rng rng(0x77);
    IdentifyRequest req;
    req.errorString = randomPattern(rng, 64);
    std::optional<IdentifyVerdict> verdict;
    Client c;
    ASSERT_EQ(c.connect(fx.server.port()), "");
    std::thread requester(
        [&] { verdict = c.identify(req); });

    // Let the request reach the service, then drain mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fx.server.drain();
    requester.join();
    failpoint::disarmAll();

    ASSERT_TRUE(verdict.has_value())
        << "drain dropped an in-flight request's reply";

    // Post-drain the server accepts nothing new.
    fx.server.wait();
    Client late;
    EXPECT_NE(late.connect(fx.server.port()), "");
}

TEST(Server, DrainWithNoTrafficStopsPromptly)
{
    ServerFixture fx(3);
    const auto t0 = std::chrono::steady_clock::now();
    fx.server.drain();
    fx.server.wait();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    // Nothing in flight: no reason to sit out the drain timeout.
    EXPECT_LT(elapsed.count(), 1000);
}

TEST(Client, BackoffDelayIsCappedAndJittered)
{
    RetryPolicy p;
    p.baseBackoffMs = 5;
    p.maxBackoffMs = 200;
    p.jitter = 0.0;
    std::uint64_t state = 0;
    EXPECT_EQ(backoffDelayMs(p, 0, state), 5u);
    EXPECT_EQ(backoffDelayMs(p, 1, state), 10u);
    EXPECT_EQ(backoffDelayMs(p, 2, state), 20u);
    EXPECT_EQ(backoffDelayMs(p, 10, state), 200u); // capped
    EXPECT_EQ(backoffDelayMs(p, 1000, state), 200u);

    p.jitter = 0.5;
    p.seed = 0x1234;
    for (int attempt = 0; attempt < 12; ++attempt) {
        const unsigned d = backoffDelayMs(p, attempt, state);
        std::uint64_t full = p.baseBackoffMs;
        for (int i = 0; i < attempt && full < p.maxBackoffMs; ++i)
            full <<= 1;
        if (full > p.maxBackoffMs)
            full = p.maxBackoffMs;
        EXPECT_LE(d, full);
        EXPECT_GE(d, full / 2);
    }
}

TEST(Client, IdempotentRetrySurvivesAnInjectedDroppedReply)
{
    ServerFixture fx(20);
    // The server fails to write exactly one reply and closes the
    // connection — the client must reconnect and retry because
    // identify is idempotent.
    failpoint::arm("serve.write", failpoint::Action::Oneshot);

    Rng rng(0x99);
    IdentifyRequest req;
    req.errorString = randomPattern(rng, 64);
    Client c;
    ASSERT_EQ(c.connect(fx.server.port()), "");
    RetryPolicy policy;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 5;
    const std::optional<IdentifyVerdict> v =
        c.identifyWithRetry(req, policy);
    failpoint::disarmAll();
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(failpoint::hitCount("serve.write"), 1u);
}

} // anonymous namespace
} // namespace pcause
