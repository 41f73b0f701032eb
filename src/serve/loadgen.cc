#include "serve/loadgen.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "serve/client.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace pcause::serve
{

namespace
{

constexpr std::size_t universeBits = 8192;
constexpr std::size_t fingerprintWeight = 256;
constexpr std::size_t noiseBits = 64;
constexpr unsigned knownPerUnknown = 15;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

BitVec
randomPattern(Rng &rng, std::size_t weight)
{
    BitVec bits(universeBits);
    for (std::size_t i = 0; i < weight; ++i)
        bits.set(rng.nextBelow(universeBits));
    return bits;
}

/** Sorted-latency percentile (nearest-rank). */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(sorted.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) < rank)
        ++idx;
    if (idx > 0)
        --idx;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

/** Bit-exact f64 comparison (NaN-safe, sign-of-zero-exact). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

struct ConnOutcome
{
    std::vector<double> latMs;
    std::size_t sent = 0;
    std::size_t completed = 0;
    std::size_t busy = 0;
    std::size_t shed = 0;
    std::size_t errors = 0;
    std::size_t divergences = 0;
};

} // anonymous namespace

FingerprintStore
buildPopulation(const PopulationParams &params)
{
    Rng rng(mix64(params.seed, params.records));
    std::vector<ChipLabel> labels(params.records);
    std::vector<Fingerprint> fps;
    fps.reserve(params.records);
    for (std::size_t i = 0; i < params.records; ++i) {
        labels[i] = "chip-" + std::to_string(i);
        fps.emplace_back(randomPattern(rng, fingerprintWeight), 3u);
    }
    FingerprintStore store;
    store.setThreadPool(&ThreadPool::global());
    store.addBatch(std::move(labels), std::move(fps));
    store.setThreadPool(nullptr);
    return store;
}

std::vector<BitVec>
buildQueries(const FingerprintStore &store, std::size_t count,
             std::uint64_t seed)
{
    Rng rng(mix64(seed, count));
    std::vector<BitVec> queries;
    queries.reserve(count);
    for (std::size_t q = 0; q < count; ++q) {
        if (q % (knownPerUnknown + 1) == knownPerUnknown) {
            queries.push_back(
                randomPattern(rng, fingerprintWeight));
            continue;
        }
        const std::size_t rec = rng.nextBelow(store.size());
        BitVec es = store.record(rec).fingerprint.bits();
        for (std::size_t i = 0; i < noiseBits; ++i)
            es.set(rng.nextBelow(universeBits));
        queries.push_back(std::move(es));
    }
    return queries;
}

std::vector<IdentifyVerdict>
directVerdicts(const FingerprintStore &store,
               const std::vector<BitVec> &queries,
               const QueryOptions &options)
{
    const IdentifyParams prm = options.identifyParams();
    std::vector<IdentifyVerdict> verdicts;
    verdicts.reserve(queries.size());
    for (const BitVec &es : queries) {
        const IdentifyResult r = options.linear
                                     ? store.queryLinear(es, prm)
                                     : store.query(es, prm);
        IdentifyVerdict v;
        v.matched = r.match.has_value();
        v.distance = r.bestDistance;
        if (r.match)
            v.label = store.label(*r.match);
        if (r.nearest)
            v.nearestLabel = store.label(*r.nearest);
        verdicts.push_back(std::move(v));
    }
    return verdicts;
}

bool
verdictsDiverge(const IdentifyVerdict &served,
                const IdentifyVerdict &direct)
{
    return served.matched != direct.matched ||
           served.label != direct.label ||
           !sameBits(served.distance, direct.distance);
}

TierResult
runTier(std::uint16_t port, const std::vector<BitVec> &queries,
        const std::vector<IdentifyVerdict> *expected,
        const QueryOptions &options, const TierSpec &spec)
{
    TierResult res;
    res.name = spec.name;
    res.openLoop = spec.openLoop;
    res.connections = spec.connections;
    res.offeredRps = spec.openLoop ? spec.targetRps : 0.0;

    const std::size_t conns =
        std::max<std::size_t>(1, spec.connections);
    const std::size_t total =
        spec.requests > 0
            ? std::min(spec.requests, queries.size())
            : queries.size();
    std::vector<ConnOutcome> outcomes(conns);
    std::vector<std::thread> threads;
    threads.reserve(conns);

    const Clock::time_point start = Clock::now();
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            ConnOutcome &out = outcomes[c];
            Client client;
            if (!client.connect(port).empty()) {
                ++out.errors;
                return;
            }
            // Open loop: each connection offers targetRps/conns,
            // on a fixed schedule staggered across connections.
            const double interval =
                spec.openLoop && spec.targetRps > 0
                    ? static_cast<double>(conns) / spec.targetRps
                    : 0.0;
            const Clock::time_point base =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                interval * static_cast<double>(c) /
                                static_cast<double>(conns)));

            std::size_t k = 0;
            for (std::size_t idx = c; idx < total;
                 idx += conns, ++k) {
                Clock::time_point t0 = Clock::now();
                if (spec.openLoop) {
                    // Latency counts from the *scheduled* send —
                    // falling behind shows up as queue delay.
                    t0 = base +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 interval *
                                 static_cast<double>(k)));
                    std::this_thread::sleep_until(t0);
                }

                IdentifyRequest req;
                req.errorString = queries[idx];
                req.options = options;
                const Payload frame = encodeIdentify(req);

                ++out.sent;
                bool done = false;
                for (int attempt = 0;
                     attempt <= spec.busyRetries && !done;
                     ++attempt) {
                    const Reply reply = client.exchange(frame);
                    if (!reply.ok()) {
                        ++out.errors;
                        return; // connection is gone
                    }
                    if (*reply.opcode == Opcode::Busy) {
                        ++out.busy;
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(100));
                        continue;
                    }
                    if (*reply.opcode != Opcode::Verdict) {
                        ++out.errors;
                        return;
                    }
                    LoadResult<IdentifyVerdict> v =
                        decodeVerdict(reply.payload);
                    if (!v) {
                        ++out.errors;
                        return;
                    }
                    out.latMs.push_back(
                        secondsSince(t0) * 1e3);
                    ++out.completed;
                    if (expected &&
                        verdictsDiverge(*v, (*expected)[idx]))
                        ++out.divergences;
                    done = true;
                }
                if (!done)
                    ++out.shed;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    res.durationSeconds = secondsSince(start);

    std::vector<double> lat;
    for (const ConnOutcome &out : outcomes) {
        lat.insert(lat.end(), out.latMs.begin(), out.latMs.end());
        res.requestsSent += out.sent;
        res.completed += out.completed;
        res.busyReplies += out.busy;
        res.shed += out.shed;
        res.transportErrors += out.errors;
        res.divergences += out.divergences;
    }
    std::sort(lat.begin(), lat.end());
    double sum = 0.0;
    for (double v : lat)
        sum += v;
    res.meanMs = lat.empty() ? 0.0 : sum / lat.size();
    res.p50Ms = percentile(lat, 50.0);
    res.p95Ms = percentile(lat, 95.0);
    res.p99Ms = percentile(lat, 99.0);
    res.achievedRps =
        res.durationSeconds > 0
            ? static_cast<double>(res.completed) /
                  res.durationSeconds
            : 0.0;
    return res;
}

BitVec
ingestPattern(std::uint64_t seed, std::size_t index)
{
    Rng rng(mix64(seed, index));
    return randomPattern(rng, fingerprintWeight);
}

IngestResult
runIngest(std::uint16_t port, const IngestSpec &spec)
{
    IngestResult res;
    Client client;
    client.setDeadline(spec.deadlineMs);
    if (!client.connect(port).empty()) {
        res.serverDied = true;
        res.lastError = "connect failed";
        return res;
    }
    for (std::size_t i = 0; i < spec.records; ++i) {
        CharacterizeRequest req;
        req.label =
            spec.labelPrefix + std::to_string(spec.startIndex + i);
        // Two identical error strings: the characterized
        // fingerprint is exactly the pattern, reproducible later
        // from (seed, index) alone.
        BitVec pattern =
            ingestPattern(spec.seed, spec.startIndex + i);
        req.errorStrings.push_back(pattern);
        req.errorStrings.push_back(std::move(pattern));

        ++res.attempted;
        const Reply reply =
            client.exchange(encodeCharacterize(req));
        if (!reply.ok()) {
            // A Characterize is a mutation: never auto-retried, so
            // a transport failure ends the run (the caller audits
            // acked adds against the restarted server).
            res.serverDied = true;
            res.lastError = reply.transportError;
            return res;
        }
        if (*reply.opcode != Opcode::Added) {
            res.lastError = "unexpected reply opcode";
            return res;
        }
        LoadResult<AddReply> added = decodeAdded(reply.payload);
        if (!added) {
            res.lastError = added.error;
            return res;
        }
        if (added->added)
            ++res.acked;
        else
            res.lastError = added->error;
    }
    return res;
}

void
writeBenchJson(const std::string &path,
               const std::vector<TierResult> &tiers,
               std::size_t records, std::size_t threads, bool pass)
{
    std::ofstream json(path);
    json << "{\n"
         << "  \"universe_bits\": " << universeBits << ",\n"
         << "  \"fingerprint_weight\": " << fingerprintWeight
         << ",\n"
         << "  \"noise_bits\": " << noiseBits << ",\n"
         << "  \"records\": " << records << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"tiers\": [\n";
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        const TierResult &r = tiers[i];
        json << "    {\"name\": \"" << r.name << "\""
             << ", \"mode\": \""
             << (r.openLoop ? "open" : "closed") << "\""
             << ", \"connections\": " << r.connections
             << ", \"requests_sent\": " << r.requestsSent
             << ", \"completed\": " << r.completed
             << ", \"busy_replies\": " << r.busyReplies
             << ", \"shed\": " << r.shed
             << ", \"transport_errors\": " << r.transportErrors
             << ", \"divergences\": " << r.divergences
             << ", \"duration_s\": " << r.durationSeconds
             << ", \"offered_rps\": " << r.offeredRps
             << ", \"achieved_rps\": " << r.achievedRps
             << ", \"mean_ms\": " << r.meanMs
             << ", \"p50_ms\": " << r.p50Ms
             << ", \"p95_ms\": " << r.p95Ms
             << ", \"p99_ms\": " << r.p99Ms << "}"
             << (i + 1 < tiers.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"pass\": " << (pass ? "true" : "false") << "\n"
         << "}\n";
}

void
printTier(const TierResult &r)
{
    std::string offered;
    if (r.openLoop)
        offered = " (offered " +
                  std::to_string(static_cast<long>(r.offeredRps)) +
                  ")";
    std::printf(
        "%-14s %-6s %3zu conn, %6zu done/%6zu sent, "
        "%8.1f rps%s, p50 %7.3f ms, p95 %7.3f ms, p99 %7.3f ms, "
        "busy %zu, shed %zu, errors %zu, divergences %zu\n",
        r.name.c_str(), r.openLoop ? "open" : "closed",
        r.connections, r.completed, r.requestsSent, r.achievedRps,
        offered.c_str(), r.p50Ms, r.p95Ms, r.p99Ms, r.busyReplies,
        r.shed, r.transportErrors, r.divergences);
}

} // namespace pcause::serve
