/**
 * @file
 * Fleet-scale eavesdropper campaign: clustering throughput and
 * equivalence check.
 *
 * Streams synthetic campaigns (core/campaign.hh: tens of thousands
 * of chips, up to a million whole-output error strings) through the
 * IndexedClusterer in fixed-size chunks, measures cluster purity /
 * fragmentation against the per-cell ground truth and ingest
 * throughput, and at the pairwise-feasible tiers replays the same
 * stream through the OnlineClusterer reference to compare
 * assignments output by output.
 *
 * Enforced gates (exit nonzero):
 *   - zero assignment divergence from the pairwise scan at every
 *     tier that runs the reference (the campaigns are separated, so
 *     even the first-match cluster indices must agree);
 *   - the 5x indexed-ingest speedup floor at the 100k tier;
 *   - purity >= 0.999 and cluster count within 1% of the fleet size
 *     at every tier — the index must not fragment chips;
 *   - the mean candidates-confirmed ceiling, which is what makes
 *     "shortlists stay small as the fleet grows" falsifiable;
 *   - fallback scans no more than clusters opened at every tier: an
 *     output that opens a cluster takes the fallback by definition,
 *     so every fallback beyond those is an output the shortlist
 *     missed — the recall a faster signing scheme must not trade.
 *
 * Emits BENCH_cluster.json. The default tiers are a 10k warmup and
 * the gated 100k tier; --full adds the 1M-output / 10k-chip
 * campaign, which CI's perf-smoke job runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hh"
#include "core/campaign.hh"
#include "core/cluster.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace pcause;

constexpr double speedupFloor = 5.0;
constexpr std::uint64_t floorOutputs = 100000;
constexpr double purityFloor = 0.999;
constexpr double clusterSlack = 1.01; //!< clusters <= slack * chips

/** Mean shortlist confirms per output must stay under this at every
 *  tier — candidate sets may not scale with the fleet. */
constexpr double candidatesCeiling = 64.0;

constexpr std::size_t chunkOutputs = 8192;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
}

struct TierPlan
{
    std::uint64_t outputs;
    std::size_t chips;
    bool pairwise; //!< replay through the OnlineClusterer reference
};

struct TierResult
{
    TierPlan plan{};
    std::size_t clusters = 0;
    double indexedSeconds = 0.0;
    double pairwiseSeconds = 0.0;
    std::size_t divergences = 0;
    bench::PartitionScore score;
    ClusterStats stats;

    double speedup() const
    {
        return pairwiseSeconds / indexedSeconds;
    }
    double outputsPerSecond() const
    {
        return static_cast<double>(plan.outputs) / indexedSeconds;
    }
    double meanCandidates() const
    {
        return static_cast<double>(stats.candidatesScanned) /
               static_cast<double>(plan.outputs);
    }
    double fallbackFraction() const
    {
        return static_cast<double>(stats.fallbackScans) /
               static_cast<double>(plan.outputs);
    }
};

/** Campaign for one tier, seeded per tier shape. */
CampaignSpec
specFor(const TierPlan &plan)
{
    CampaignSpec spec;
    spec.chips = plan.chips;
    spec.outputs = plan.outputs;
    spec.seed = mix64(0x70657266636c7573ull, plan.outputs);
    return spec;
}

/** Synthesize outputs [first, first + count) in parallel. */
void
generateChunk(const CampaignSpec &spec,
              const std::vector<BitVec> &bases, std::uint64_t first,
              std::size_t count, ThreadPool &pool,
              std::vector<BitVec> &chunk,
              std::vector<std::size_t> &chips)
{
    chunk.resize(count);
    chips.resize(count);
    pool.parallelFor(0, count, [&](std::size_t i) {
        const std::uint64_t index = first + i;
        const std::size_t chip = campaignChipOf(spec, index);
        chips[i] = chip;
        chunk[i] = campaignObservation(spec, bases[chip], index);
    });
}

TierResult
runTier(const TierPlan &plan)
{
    const CampaignSpec spec = specFor(plan);
    ThreadPool &pool = ThreadPool::global();
    TierResult res;
    res.plan = plan;

    // Chip bases are cached (10k chips x 1 KiB = ~10 MB) so chunk
    // synthesis is an O(weight) observation draw per output.
    std::vector<BitVec> bases(spec.chips);
    pool.parallelFor(0, spec.chips, [&](std::size_t c) {
        bases[c] = campaignChipBase(spec, c);
    });

    IndexedClusterer indexed;
    indexed.setThreadPool(&pool);
    std::vector<std::size_t> truth;
    truth.reserve(plan.outputs);
    std::vector<BitVec> chunk;
    std::vector<std::size_t> chunkChips;
    double ingestSeconds = 0.0;
    for (std::uint64_t first = 0; first < plan.outputs;
         first += chunkOutputs) {
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunkOutputs,
                                    plan.outputs - first));
        generateChunk(spec, bases, first, count, pool, chunk,
                      chunkChips);
        truth.insert(truth.end(), chunkChips.begin(),
                     chunkChips.end());
        const auto start = std::chrono::steady_clock::now();
        indexed.addBatch(chunk);
        ingestSeconds += secondsSince(start);
    }
    res.indexedSeconds = ingestSeconds;
    res.clusters = indexed.numClusters();
    res.stats = indexed.stats();
    res.score = bench::scorePartition(indexed.assignments(), truth);

    if (plan.pairwise) {
        // Same stream, regenerated chunk by chunk (synthesis is
        // pure), through the literal Algorithm 4 pairwise scan.
        OnlineClusterer pairwise;
        double pairwiseSeconds = 0.0;
        for (std::uint64_t first = 0; first < plan.outputs;
             first += chunkOutputs) {
            const auto count = static_cast<std::size_t>(
                std::min<std::uint64_t>(chunkOutputs,
                                        plan.outputs - first));
            generateChunk(spec, bases, first, count, pool, chunk,
                          chunkChips);
            const auto start = std::chrono::steady_clock::now();
            for (const BitVec &es : chunk)
                pairwise.addErrorString(es);
            pairwiseSeconds += secondsSince(start);
        }
        res.pairwiseSeconds = pairwiseSeconds;
        const auto &a = indexed.assignments();
        const auto &b = pairwise.assignments();
        for (std::size_t i = 0; i < a.size(); ++i)
            res.divergences += a[i] != b[i];
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

    bench::banner("perf_cluster",
                  "Fleet-scale Algorithm 4: indexed clustering "
                  "throughput, purity, and pairwise equivalence");
    std::printf("simd dispatch: %s, %zu threads\n\n",
                simd::levelName(simd::activeLevel()),
                ThreadPool::global().size());

    std::vector<TierPlan> plans = {
        {10000, 200, true},
        {100000, 2000, true},
    };
    if (full)
        plans.push_back({1000000, 10000, false});

    bool ok = true;
    std::vector<TierResult> results;
    for (const TierPlan &plan : plans) {
        TierResult r = runTier(plan);
        results.push_back(r);
        std::printf(
            "%8llu outputs / %6zu chips: indexed %7.2f s "
            "(%9.0f out/s), %6zu clusters, purity %.6f, ari %.6f, "
            "fragmented %zu, %5.1f cand/out, fallback %5.3f "
            "(%llu scans, %llu opened), augments %llu\n",
            (unsigned long long)r.plan.outputs, r.plan.chips,
            r.indexedSeconds, r.outputsPerSecond(), r.clusters,
            r.score.purity, r.score.ari, r.score.fragmentedClasses,
            r.meanCandidates(), r.fallbackFraction(),
            (unsigned long long)r.stats.fallbackScans,
            (unsigned long long)r.stats.clustersOpened,
            (unsigned long long)r.stats.augments);
        if (r.plan.pairwise) {
            std::printf(
                "%8llu outputs / %6zu chips: pairwise %6.2f s "
                "(%6.1fx speedup), divergences %zu\n",
                (unsigned long long)r.plan.outputs, r.plan.chips,
                r.pairwiseSeconds, r.speedup(), r.divergences);
        }

        if (r.divergences > 0) {
            std::printf("FAIL: %zu assignment divergences from the "
                        "pairwise scan at %llu outputs\n",
                        r.divergences,
                        (unsigned long long)r.plan.outputs);
            ok = false;
        }
        if (r.plan.pairwise && r.plan.outputs == floorOutputs &&
            r.speedup() < speedupFloor) {
            std::printf("FAIL: speedup %.1fx at %llu outputs below "
                        "the %.0fx floor\n", r.speedup(),
                        (unsigned long long)r.plan.outputs,
                        speedupFloor);
            ok = false;
        }
        if (r.score.purity < purityFloor) {
            std::printf("FAIL: purity %.6f at %llu outputs below the "
                        "%.3f floor\n", r.score.purity,
                        (unsigned long long)r.plan.outputs,
                        purityFloor);
            ok = false;
        }
        if (static_cast<double>(r.clusters) >
            clusterSlack * static_cast<double>(r.plan.chips)) {
            std::printf("FAIL: %zu clusters for %zu chips exceeds "
                        "the %.2fx fragmentation slack\n", r.clusters,
                        r.plan.chips, clusterSlack);
            ok = false;
        }
        if (r.stats.fallbackScans > r.stats.clustersOpened) {
            std::printf("FAIL: %llu fallback scans for %llu clusters "
                        "opened at %llu outputs (shortlist misses)\n",
                        (unsigned long long)r.stats.fallbackScans,
                        (unsigned long long)r.stats.clustersOpened,
                        (unsigned long long)r.plan.outputs);
            ok = false;
        }
        if (r.meanCandidates() > candidatesCeiling) {
            std::printf("FAIL: %.1f mean candidates at %llu outputs "
                        "above the %.0f ceiling\n", r.meanCandidates(),
                        (unsigned long long)r.plan.outputs,
                        candidatesCeiling);
            ok = false;
        }
    }

    const CampaignSpec defaults;
    const MinHashParams index_params;
    std::ofstream json("BENCH_cluster.json");
    json << "{\n"
         << "  \"universe_bits\": " << defaults.universeBits << ",\n"
         << "  \"fingerprint_weight\": " << defaults.fingerprintWeight
         << ",\n"
         << "  \"keep\": " << defaults.keep << ",\n"
         << "  \"extra_max\": " << defaults.extraMax << ",\n"
         << "  \"threshold\": " << ClusterParams{}.threshold << ",\n"
         << "  \"minhash_hashes\": " << index_params.numHashes << ",\n"
         << "  \"minhash_bands\": " << index_params.bands << ",\n"
         << "  \"minhash_probes\": " << index_params.probes << ",\n"
         << "  \"threads\": " << ThreadPool::global().size() << ",\n"
         << "  \"full\": " << (full ? "true" : "false") << ",\n"
         << "  \"speedup_floor\": " << speedupFloor << ",\n"
         << "  \"floor_outputs\": " << floorOutputs << ",\n"
         << "  \"purity_floor\": " << purityFloor << ",\n"
         << "  \"cluster_slack\": " << clusterSlack << ",\n"
         << "  \"candidates_ceiling\": " << candidatesCeiling << ",\n"
         << "  \"tiers\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const TierResult &r = results[i];
        json << "    {\"outputs\": " << r.plan.outputs
             << ", \"chips\": " << r.plan.chips
             << ", \"indexed_s\": " << r.indexedSeconds
             << ", \"outputs_per_s\": " << r.outputsPerSecond()
             << ", \"clusters\": " << r.clusters
             << ", \"purity\": " << r.score.purity
             << ", \"ari\": " << r.score.ari
             << ", \"fragmented_chips\": "
             << r.score.fragmentedClasses
             << ", \"mean_candidates\": " << r.meanCandidates()
             << ", \"fallback_fraction\": " << r.fallbackFraction()
             << ", \"augments\": " << r.stats.augments;
        if (r.plan.pairwise) {
            json << ", \"pairwise_s\": " << r.pairwiseSeconds
                 << ", \"speedup\": " << r.speedup()
                 << ", \"divergences\": " << r.divergences;
        }
        json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n"
         << "}\n";

    std::printf("\n%s (BENCH_cluster.json written)\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
