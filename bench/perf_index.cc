/**
 * @file
 * Candidate-index performance and equivalence check.
 *
 * Builds synthetic populations of 1k / 10k / 100k fingerprints (1M
 * with --full), queries each through the indexed FingerprintStore
 * and through the linear reference scan, verifies the accept/reject
 * decisions (and matched records) are identical, and times both
 * paths. The query mix is mostly outputs of known chips
 * (error-string supersets of a database fingerprint) with a fraction
 * of unknown chips, which exercises both the shortlist hit path and
 * the full-scan fallback; the mix is reported per phase alongside
 * the numbers. The exact fallback scan every reject ends in
 * (queryFullScan: overlap counts from the inverted position index)
 * is timed on its own against the linear scan over a set of unknown
 * chips' outputs, and checked against it on every query. Each
 * population is then saved (PCDB v4), loaded back (loadStore, which
 * reads the stored index instead of rebuilding it: once on a pool of
 * the load's own, as the tools and the service load, and once on one
 * lane) and mapped (MappedStore), whose fallback — the same walk
 * over counts decoded from the mapped posting lists — is timed and
 * checked the same way.
 *
 * Enforced gates (exit nonzero):
 *   - zero accept/reject divergences from the linear Algorithm 2,
 *     for the in-memory index and the mmap-ed v4 database alike;
 *   - zero fallback-scan divergences from the linear scan on the
 *     verdict, the nearest record, the distance bits and the
 *     computed/pruned kernel counters, in memory and mapped;
 *   - the 5x indexed-query speedup floor at 10k records;
 *   - the 10x fallback-scan speedup floor over the linear scan at
 *     10k records, and 5x for the mapped fallback;
 *   - the mean candidates-scanned ceiling at every population — the
 *     knob that makes "candidate sets stop scaling with population"
 *     falsifiable rather than aspirational;
 *   - MappedStore::open of the largest population under 100 ms;
 *   - with >= 4 worker threads, the parallel build of 100k records
 *     and more at least 2.5x faster than the serial-build estimate
 *     (skipped on smaller machines).
 *
 * Emits BENCH_index.json, headed by what it ran on: the commit (git
 * in the working directory; "-dirty" when the tree has uncommitted
 * changes), CPU model, SIMD level, thread count and build type. The 100k run doubles as the CI perf-smoke job;
 * --full is the scheduled nightly configuration.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/identify.hh"
#include "core/mapped_store.hh"
#include "core/serialize.hh"
#include "core/store.hh"
#include "util/bitvec.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace pcause;

constexpr std::size_t universeBits = 8192;
constexpr std::size_t fingerprintWeight = 256;
constexpr std::size_t noiseBits = 64; //!< extra error-string bits
constexpr unsigned knownPerUnknown = 15; //!< 15:1 known:unknown mix
constexpr std::size_t rejectQueries = 32; //!< fallback-timing set
constexpr std::size_t timingRounds = 3;   //!< best of, per path
constexpr double speedupFloor = 5.0;
constexpr double fallbackSpeedupFloor = 10.0;
constexpr double mappedFallbackSpeedupFloor = 5.0;
constexpr std::size_t floorPopulation = 10000;

/** Mean shortlist size must stay under this at every population —
 *  candidate sets may not scale with the database. */
constexpr double candidatesCeiling = 256.0;

/** Parallel build must beat the serial estimate by this factor at
 *  buildFloorPopulation records and more, when at least
 *  minBuildThreads workers are available. */
constexpr double buildSpeedupFloor = 2.5;
constexpr std::size_t minBuildThreads = 4;
constexpr std::size_t buildFloorPopulation = 100000;

/** MappedStore::open budget for the largest population. */
constexpr double mmapOpenBudgetMs = 100.0;

/** Serial-build sample size the estimate is extrapolated from. */
constexpr std::size_t serialSample = 10000;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
}

/** The first line of @p command's output, or "unknown". */
std::string
firstLineOf(const char *command)
{
    std::string line;
    if (std::FILE *out = ::popen(command, "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof(buf), out))
            line = buf;
        ::pclose(out);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == ' '))
        line.pop_back();
    return line.empty() ? "unknown" : line;
}

/** The CPU's model name, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(": ");
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Random fingerprint pattern of ~weight set bits. */
BitVec
randomPattern(Rng &rng, std::size_t weight)
{
    BitVec bits(universeBits);
    for (std::size_t i = 0; i < weight; ++i)
        bits.set(rng.nextBelow(universeBits));
    return bits;
}

/** A query error string: a known record's bits plus noise, or a
 *  fresh pattern for an unknown chip. */
struct Query
{
    BitVec errorString;
    std::optional<std::size_t> truth; //!< record index, if known
};

struct PopulationResult
{
    std::size_t records = 0;
    std::size_t queries = 0;
    std::size_t known = 0;
    std::size_t buildThreads = 1;
    double buildSeconds = 0.0;
    double serialBuildEstimate = 0.0;
    double linearSeconds = 0.0;
    double rejectLinearSeconds = 0.0;
    double fallbackSeconds = 0.0;
    double indexedSeconds = 0.0;
    double batchSeconds = 0.0;
    double meanCandidates = 0.0;
    double indexedFallbackFraction = 0.0;
    double batchFallbackFraction = 0.0;
    std::size_t divergences = 0;
    std::size_t fallbackDivergences = 0;
    std::size_t wrongMatches = 0;

    // save / load / mmap phase
    double saveSeconds = 0.0;
    double loadSeconds = 0.0;        //!< on a pool of the load's own
    double loadOneLaneSeconds = 0.0; //!< on one lane
    double fileBytes = 0.0;
    double mmapOpenSeconds = 0.0;
    double mappedSeconds = 0.0;
    double mappedFallbackSeconds = 0.0;
    std::size_t mappedDivergences = 0;
    std::size_t mappedFallbackDivergences = 0;

    double buildSpeedup() const
    {
        return serialBuildEstimate / buildSeconds;
    }
    double speedup() const { return linearSeconds / indexedSeconds; }
    double fallbackSpeedup() const
    {
        return rejectLinearSeconds / fallbackSeconds;
    }
    double loadSpeedup() const
    {
        return loadOneLaneSeconds / loadSeconds;
    }
    double mappedFallbackSpeedup() const
    {
        return rejectLinearSeconds / mappedFallbackSeconds;
    }
    double nsPerRecord(double seconds) const
    {
        return seconds * 1e9 / static_cast<double>(records);
    }
    double batchSpeedup() const { return linearSeconds / batchSeconds; }
};

/** Same verdict, nearest record, distance bits and kernel counters. */
bool
sameScan(const IdentifyResult &a, const AttackStats &as,
         const IdentifyResult &b, const AttackStats &bs)
{
    return a.match == b.match && a.nearest == b.nearest &&
           std::memcmp(&a.bestDistance, &b.bestDistance,
                       sizeof(double)) == 0 &&
           as.distancesComputed == bs.distancesComputed &&
           as.distancesPruned == bs.distancesPruned;
}

PopulationResult
runPopulation(std::size_t num_records, std::size_t num_queries)
{
    Rng rng(mix64(0x70657266696478ull, num_records));
    ThreadPool &pool = ThreadPool::global();
    PopulationResult res;
    res.records = num_records;
    res.queries = num_queries;
    res.buildThreads = pool.size();

    // --- Build: parallel sharded, timed against a serial sample ---
    std::vector<ChipLabel> labels(num_records);
    std::vector<Fingerprint> fps;
    fps.reserve(num_records);
    for (std::size_t i = 0; i < num_records; ++i) {
        labels[i] = "chip-" + std::to_string(i);
        fps.emplace_back(randomPattern(rng, fingerprintWeight), 3u);
    }

    const std::size_t sample =
        num_records < serialSample ? num_records : serialSample;
    {
        FingerprintStore probe;
        const auto serial_start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < sample; ++i)
            probe.add(labels[i], fps[i]);
        res.serialBuildEstimate = secondsSince(serial_start) *
                                  static_cast<double>(num_records) /
                                  static_cast<double>(sample);
    }

    FingerprintStore store;
    store.setThreadPool(&pool);
    const auto build_start = std::chrono::steady_clock::now();
    store.addBatch(std::move(labels), std::move(fps));
    res.buildSeconds = secondsSince(build_start);

    // --- Query mix ------------------------------------------------
    std::vector<Query> queries(num_queries);
    for (std::size_t q = 0; q < num_queries; ++q) {
        if (q % (knownPerUnknown + 1) == knownPerUnknown) {
            queries[q].errorString = randomPattern(rng, fingerprintWeight);
        } else {
            const std::size_t rec = rng.nextBelow(num_records);
            BitVec es = store.record(rec).fingerprint.bits();
            for (std::size_t i = 0; i < noiseBits; ++i)
                es.set(rng.nextBelow(universeBits));
            queries[q] = {std::move(es), rec};
            ++res.known;
        }
    }

    // --- Linear reference (serial bounded full scan) --------------
    const IdentifyParams prm;
    std::vector<IdentifyResult> linear(num_queries);
    std::vector<AttackStats> linear_stats(num_queries);
    const auto lin_start = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < num_queries; ++q) {
        linear[q] = store.queryLinear(queries[q].errorString, prm,
                                      &linear_stats[q]);
    }
    res.linearSeconds = secondsSince(lin_start) / num_queries;

    // --- Fallback scan alone, against linear on rejects -----------
    // Unknown chips' outputs are the scan's real work: it only runs
    // when the shortlist accepts nothing.
    std::vector<BitVec> rejects(rejectQueries);
    for (BitVec &r : rejects)
        r = randomPattern(rng, fingerprintWeight);
    // Interleaved rounds, best round kept for each path: both are
    // memory-bound scans that drift with the machine between runs.
    std::vector<IdentifyResult> reject_linear(rejectQueries);
    std::vector<AttackStats> reject_linear_stats(rejectQueries);
    std::vector<IdentifyResult> reject_fallback(rejectQueries);
    std::vector<AttackStats> reject_fallback_stats(rejectQueries);
    res.rejectLinearSeconds = res.fallbackSeconds = 1e300;
    for (std::size_t round = 0; round < timingRounds; ++round) {
        const auto rl_start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < rejectQueries; ++q) {
            reject_linear_stats[q] = {};
            reject_linear[q] = store.queryLinear(
                rejects[q], prm, &reject_linear_stats[q]);
        }
        res.rejectLinearSeconds =
            std::min(res.rejectLinearSeconds,
                     secondsSince(rl_start) / rejectQueries);

        const auto fb_start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < rejectQueries; ++q) {
            reject_fallback_stats[q] = {};
            reject_fallback[q] = store.queryFullScan(
                rejects[q], prm, &reject_fallback_stats[q]);
        }
        res.fallbackSeconds =
            std::min(res.fallbackSeconds,
                     secondsSince(fb_start) / rejectQueries);
    }

    // Same verdict, nearest record, distance bits and kernel
    // counters as the linear scan, on the rejects and on the mix.
    for (std::size_t q = 0; q < rejectQueries; ++q) {
        if (!sameScan(reject_fallback[q], reject_fallback_stats[q],
                      reject_linear[q], reject_linear_stats[q]))
            ++res.fallbackDivergences;
    }
    for (std::size_t q = 0; q < num_queries; ++q) {
        AttackStats fs;
        const IdentifyResult f =
            store.queryFullScan(queries[q].errorString, prm, &fs);
        if (!sameScan(f, fs, linear[q], linear_stats[q]))
            ++res.fallbackDivergences;
    }

    // --- Indexed (serial loop; per-phase counters) ----------------
    AttackStats indexed_stats;
    std::vector<IdentifyResult> indexed(num_queries);
    const auto idx_start = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < num_queries; ++q) {
        indexed[q] =
            store.query(queries[q].errorString, prm, &indexed_stats);
    }
    res.indexedSeconds = secondsSince(idx_start) / num_queries;
    res.meanCandidates =
        static_cast<double>(indexed_stats.candidatesScanned) /
        num_queries;
    res.indexedFallbackFraction =
        static_cast<double>(indexed_stats.indexFallbacks) /
        num_queries;

    // --- Batch over the pool (its own counters, not cumulative) ---
    std::vector<BitVec> error_strings;
    error_strings.reserve(num_queries);
    for (const Query &q : queries)
        error_strings.push_back(q.errorString);
    AttackStats batch_stats;
    std::vector<IdentifyResult> batched;
    const auto batch_start = std::chrono::steady_clock::now();
    batched = store.queryBatch(error_strings, prm, &batch_stats);
    res.batchSeconds = secondsSince(batch_start) / num_queries;
    res.batchFallbackFraction =
        static_cast<double>(batch_stats.indexFallbacks) / num_queries;

    // --- Equivalence ----------------------------------------------
    // Accept/reject and matched record must agree with the linear
    // scan on every query (distinct random fingerprints never share
    // a sub-threshold distance, so even firstMatch indices match).
    for (std::size_t q = 0; q < num_queries; ++q) {
        const bool same =
            linear[q].match == indexed[q].match &&
            linear[q].match == batched[q].match;
        if (!same)
            ++res.divergences;
        if (queries[q].truth != linear[q].match)
            ++res.wrongMatches; // reference itself must be right
    }

    // --- save / load / mmap open / mapped queries -----------------
    // The in-memory store goes before the load, so a population's
    // peak holds one store, not two.
    const std::string path = "perf_index_store.pcdb";
    auto save_start = std::chrono::steady_clock::now();
    const bool saved = saveStore(store, path);
    res.saveSeconds = secondsSince(save_start);
    store = FingerprintStore();
    if (!saved) {
        std::printf("FAIL: could not write %s\n", path.c_str());
        ++res.mappedDivergences;
        return res;
    }
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        res.fileBytes = static_cast<double>(in.tellg());
    }
    // Each load's store is freed before the next step.
    ThreadPool one_lane(1);
    for (ThreadPool *load_pool : {static_cast<ThreadPool *>(nullptr),
                                  &one_lane}) {
        const auto load_start = std::chrono::steady_clock::now();
        const StoreLoadResult loaded =
            load_pool ? loadStore(path, *load_pool) : loadStore(path);
        (load_pool ? res.loadOneLaneSeconds : res.loadSeconds) =
            secondsSince(load_start);
        if (!loaded) {
            std::printf("FAIL: loadStore: %s\n", loaded.error.c_str());
            ++res.mappedDivergences;
            std::remove(path.c_str());
            return res;
        }
    }

    const auto open_start = std::chrono::steady_clock::now();
    const LoadResult<MappedStore> mapped = MappedStore::open(path);
    res.mmapOpenSeconds = secondsSince(open_start);
    std::remove(path.c_str()); // the mapping outlives the name
    if (!mapped) {
        std::printf("FAIL: MappedStore::open: %s\n",
                    mapped.error.c_str());
        ++res.mappedDivergences;
        return res;
    }

    const auto mapped_start = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < num_queries; ++q) {
        const IdentifyResult r =
            mapped->query(queries[q].errorString, prm);
        if (r.match != linear[q].match)
            ++res.mappedDivergences;
    }
    res.mappedSeconds = secondsSince(mapped_start) / num_queries;

    // The mapped fallback on the rejects, best of the rounds, and
    // checked like the in-memory one.
    std::vector<IdentifyResult> mapped_fallback(rejectQueries);
    std::vector<AttackStats> mapped_fallback_stats(rejectQueries);
    res.mappedFallbackSeconds = 1e300;
    for (std::size_t round = 0; round < timingRounds; ++round) {
        const auto mf_start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < rejectQueries; ++q) {
            mapped_fallback_stats[q] = {};
            mapped_fallback[q] = mapped->queryFullScan(
                rejects[q], prm, &mapped_fallback_stats[q]);
        }
        res.mappedFallbackSeconds =
            std::min(res.mappedFallbackSeconds,
                     secondsSince(mf_start) / rejectQueries);
    }
    for (std::size_t q = 0; q < rejectQueries; ++q) {
        if (!sameScan(mapped_fallback[q], mapped_fallback_stats[q],
                      reject_linear[q], reject_linear_stats[q]))
            ++res.mappedFallbackDivergences;
    }
    return res;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool full = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0)
            full = true;
    }

    std::printf("simd dispatch: %s (best available %s)\n",
                simd::levelName(simd::activeLevel()),
                simd::levelName(simd::bestAvailableLevel()));

    std::vector<std::pair<std::size_t, std::size_t>> plans = {
        {1000, 256}, {10000, 128}, {100000, 32}};
    if (full)
        plans.emplace_back(1000000, 32);

    bool ok = true;
    std::vector<PopulationResult> results;
    for (std::size_t p = 0; p < plans.size(); ++p) {
        const auto &[records, queries] = plans[p];
        PopulationResult r = runPopulation(records, queries);
        const bool largest = p + 1 == plans.size();
        results.push_back(r);
        std::printf(
            "%7zu records: build %8.1f ms (est serial %8.1f ms, "
            "%zu thr), linear %9.3f ms/q, indexed %9.3f ms/q "
            "(%6.1fx), batch %9.3f ms/q (%6.1fx), %5.1f cand/q, "
            "fallback %4.2f/%4.2f, divergences %zu\n",
            r.records, r.buildSeconds * 1e3,
            r.serialBuildEstimate * 1e3, r.buildThreads,
            r.linearSeconds * 1e3, r.indexedSeconds * 1e3,
            r.speedup(), r.batchSeconds * 1e3, r.batchSpeedup(),
            r.meanCandidates, r.indexedFallbackFraction,
            r.batchFallbackFraction, r.divergences);
        std::printf(
            "%7zu records: rejects: fallback scan %9.3f ms/q %7.1f "
            "ns/record vs linear %9.3f ms/q %7.1f ns/record (%6.1fx), "
            "fallback divergences %zu\n",
            r.records, r.fallbackSeconds * 1e3,
            r.nsPerRecord(r.fallbackSeconds),
            r.rejectLinearSeconds * 1e3,
            r.nsPerRecord(r.rejectLinearSeconds), r.fallbackSpeedup(),
            r.fallbackDivergences);
        std::printf(
            "%7zu records: save %8.1f ms (%.0f B/record), load %8.1f "
            "ms (one lane %8.1f ms, %4.2fx), mmap open %6.2f ms, mapped "
            "%9.3f ms/q, mapped fallback %9.3f ms/q (%6.1fx), mapped "
            "divergences %zu/%zu\n",
            r.records, r.saveSeconds * 1e3,
            r.fileBytes / static_cast<double>(r.records),
            r.loadSeconds * 1e3, r.loadOneLaneSeconds * 1e3,
            r.loadSpeedup(), r.mmapOpenSeconds * 1e3,
            r.mappedSeconds * 1e3, r.mappedFallbackSeconds * 1e3,
            r.mappedFallbackSpeedup(), r.mappedDivergences,
            r.mappedFallbackDivergences);

        if (r.divergences > 0) {
            std::printf("FAIL: %zu accept/reject divergences at %zu "
                        "records\n", r.divergences, r.records);
            ok = false;
        }
        if (r.wrongMatches > 0) {
            std::printf("FAIL: linear reference misattributed %zu "
                        "queries at %zu records\n", r.wrongMatches,
                        r.records);
            ok = false;
        }
        if (r.fallbackDivergences > 0) {
            std::printf("FAIL: %zu fallback-scan divergences from the "
                        "linear scan at %zu records\n",
                        r.fallbackDivergences, r.records);
            ok = false;
        }
        if (r.records == floorPopulation &&
            r.fallbackSpeedup() < fallbackSpeedupFloor) {
            std::printf("FAIL: fallback scan %.1fx over linear at %zu "
                        "records below the %.0fx floor\n",
                        r.fallbackSpeedup(), r.records,
                        fallbackSpeedupFloor);
            ok = false;
        }
        if (r.records == floorPopulation && r.speedup() < speedupFloor) {
            std::printf("FAIL: speedup %.1fx at %zu records below the "
                        "%.0fx floor\n", r.speedup(), r.records,
                        speedupFloor);
            ok = false;
        }
        if (r.meanCandidates > candidatesCeiling) {
            std::printf("FAIL: %.1f mean candidates at %zu records "
                        "above the %.0f ceiling\n", r.meanCandidates,
                        r.records, candidatesCeiling);
            ok = false;
        }
        if (r.buildThreads >= minBuildThreads &&
            r.records >= buildFloorPopulation &&
            r.buildSpeedup() < buildSpeedupFloor) {
            std::printf("FAIL: parallel build %.1fx at %zu records "
                        "below the %.0fx floor (%zu threads)\n",
                        r.buildSpeedup(), r.records, buildSpeedupFloor,
                        r.buildThreads);
            ok = false;
        }
        if (r.mappedDivergences > 0) {
            std::printf("FAIL: %zu mapped-query divergences at %zu "
                        "records\n", r.mappedDivergences, r.records);
            ok = false;
        }
        if (r.mappedFallbackDivergences > 0) {
            std::printf("FAIL: %zu mapped fallback divergences from "
                        "the linear scan at %zu records\n",
                        r.mappedFallbackDivergences, r.records);
            ok = false;
        }
        if (r.records == floorPopulation &&
            r.mappedFallbackSpeedup() < mappedFallbackSpeedupFloor) {
            std::printf("FAIL: mapped fallback %.1fx over linear at %zu "
                        "records below the %.0fx floor\n",
                        r.mappedFallbackSpeedup(), r.records,
                        mappedFallbackSpeedupFloor);
            ok = false;
        }
        if (largest && r.mmapOpenSeconds * 1e3 > mmapOpenBudgetMs) {
            std::printf("FAIL: mmap open %.1f ms at %zu records above "
                        "the %.0f ms budget\n",
                        r.mmapOpenSeconds * 1e3, r.records,
                        mmapOpenBudgetMs);
            ok = false;
        }
    }

    const MinHashParams prm;
    std::ofstream json("BENCH_index.json");
    json << "{\n"
         << "  \"commit\": \""
         << firstLineOf("git describe --always --dirty --abbrev=40 "
                        "2>/dev/null")
         << "\",\n"
         << "  \"cpu\": \"" << cpuModel() << "\",\n"
         << "  \"simd\": \"" << simd::levelName(simd::activeLevel())
         << "\",\n"
         << "  \"build_type\": \"" << PCAUSE_BUILD_TYPE << "\",\n"
         << "  \"universe_bits\": " << universeBits << ",\n"
         << "  \"fingerprint_weight\": " << fingerprintWeight << ",\n"
         << "  \"noise_bits\": " << noiseBits << ",\n"
         << "  \"minhash_hashes\": " << prm.numHashes << ",\n"
         << "  \"minhash_bands\": " << prm.bands << ",\n"
         << "  \"minhash_probes\": " << prm.probes << ",\n"
         << "  \"threads\": " << ThreadPool::global().size() << ",\n"
         << "  \"full\": " << (full ? "true" : "false") << ",\n"
         << "  \"speedup_floor\": " << speedupFloor << ",\n"
         << "  \"fallback_speedup_floor\": " << fallbackSpeedupFloor
         << ",\n"
         << "  \"mapped_fallback_speedup_floor\": "
         << mappedFallbackSpeedupFloor << ",\n"
         << "  \"floor_population\": " << floorPopulation << ",\n"
         << "  \"candidates_ceiling\": " << candidatesCeiling << ",\n"
         << "  \"build_speedup_floor\": " << buildSpeedupFloor << ",\n"
         << "  \"min_build_threads\": " << minBuildThreads << ",\n"
         << "  \"build_floor_population\": " << buildFloorPopulation
         << ",\n"
         << "  \"mmap_open_budget_ms\": " << mmapOpenBudgetMs << ",\n"
         << "  \"populations\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PopulationResult &r = results[i];
        json << "    {\"records\": " << r.records
             << ", \"queries\": " << r.queries
             << ", \"known\": " << r.known
             << ", \"build_ms\": " << r.buildSeconds * 1e3
             << ", \"serial_build_est_ms\": "
             << r.serialBuildEstimate * 1e3
             << ", \"build_threads\": " << r.buildThreads
             << ", \"build_speedup\": " << r.buildSpeedup()
             << ", \"linear_ms_per_query\": " << r.linearSeconds * 1e3
             << ", \"reject_linear_ms_per_query\": "
             << r.rejectLinearSeconds * 1e3
             << ", \"reject_linear_ns_per_record\": "
             << r.nsPerRecord(r.rejectLinearSeconds)
             << ", \"fallback_ms_per_query\": "
             << r.fallbackSeconds * 1e3
             << ", \"fallback_ns_per_record\": "
             << r.nsPerRecord(r.fallbackSeconds)
             << ", \"fallback_speedup\": " << r.fallbackSpeedup()
             << ", \"fallback_divergences\": " << r.fallbackDivergences
             << ", \"indexed_ms_per_query\": " << r.indexedSeconds * 1e3
             << ", \"batch_ms_per_query\": " << r.batchSeconds * 1e3
             << ", \"speedup\": " << r.speedup()
             << ", \"batch_speedup\": " << r.batchSpeedup()
             << ", \"mean_candidates\": " << r.meanCandidates
             << ", \"fallback_fraction\": "
             << r.indexedFallbackFraction
             << ", \"batch_fallback_fraction\": "
             << r.batchFallbackFraction
             << ", \"divergences\": " << r.divergences
             << ", \"save_ms\": " << r.saveSeconds * 1e3
             << ", \"load_ms\": " << r.loadSeconds * 1e3
             << ", \"load_one_lane_ms\": " << r.loadOneLaneSeconds * 1e3
             << ", \"load_speedup\": " << r.loadSpeedup()
             << ", \"bytes_per_record\": "
             << r.fileBytes / static_cast<double>(r.records)
             << ", \"mmap_open_ms\": " << r.mmapOpenSeconds * 1e3
             << ", \"mapped_ms_per_query\": " << r.mappedSeconds * 1e3
             << ", \"mapped_fallback_ms_per_query\": "
             << r.mappedFallbackSeconds * 1e3
             << ", \"mapped_fallback_speedup\": "
             << r.mappedFallbackSpeedup()
             << ", \"mapped_divergences\": " << r.mappedDivergences
             << ", \"mapped_fallback_divergences\": "
             << r.mappedFallbackDivergences;
        json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n"
         << "}\n";

    std::printf("\n%s (BENCH_index.json written)\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
