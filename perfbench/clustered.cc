/**
 * @file
 * campaign_cluster: Algorithm 4 on an in-process IndexedClusterer
 * fed a core/campaign fleet (see README.md).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.hh"
#include "core/campaign.hh"
#include "core/cluster.hh"
#include "core/minhash.hh"
#include "trace.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace pcbench
{

namespace
{

using namespace pcause;

/** Outputs per addBatch call, in set-up and in the measured phase. */
constexpr std::size_t batchOutputs = 256;

/**
 * Outputs per chip in one pass over the campaign: the generator's
 * regime (a cluster keeps 0.997^100 ~ 0.74 of its chip's cells; far
 * beyond it intersection wears fingerprints down until chips split).
 * A measured phase longer than one pass restarts from the post-set-up
 * clusterer, so every pass does the same work.
 */
constexpr std::size_t outputsPerChip = 100;

/** Batches whose outputs the traced run re-signs one by one (also
 *  stopped at half the run length). */
constexpr std::size_t maxReplayBatches = 16;

constexpr std::uint64_t campaignStream = 0x636c75;

/** Stream index of chip @p chip's discovery observation: outside
 *  the measured stream's index range. */
std::uint64_t
discoveryIndex(std::size_t chip)
{
    return (std::uint64_t{1} << 62) + chip;
}

/** Outputs [first, first + count) of the campaign stream. */
void
synthesize(const CampaignSpec &spec, const std::vector<BitVec> &bases,
           std::uint64_t first, std::size_t count,
           std::vector<BitVec> &batch, std::vector<std::size_t> &chips)
{
    batch.clear();
    chips.clear();
    for (std::uint64_t i = first; i < first + count; ++i) {
        const std::size_t chip = campaignChipOf(spec, i);
        chips.push_back(chip);
        batch.push_back(campaignObservation(spec, bases[chip], i));
    }
}

/** Operations a partition score marks wrong: outputs outside their
 *  cluster's majority chip, chips split across clusters, and any
 *  cluster-count mismatch. */
std::uint64_t
partitionFailures(const bench::PartitionScore &s, std::size_t chips)
{
    const double misplaced =
        std::round((1.0 - s.purity) * static_cast<double>(s.items));
    const std::size_t countOff =
        s.clusters > chips ? s.clusters - chips : chips - s.clusters;
    return static_cast<std::uint64_t>(misplaced) + s.fragmentedClasses +
           countOff + (s.ari < 1.0 && misplaced == 0.0 ? 1 : 0);
}

/** Times and checks of a stream of addBatch calls. */
struct BatchLog
{
    std::vector<double> latMs;
    std::vector<double> busyS; //!< cumulative call time at completion
    double totalS = 0.0;

    std::size_t passes = 0;
    std::uint64_t failures = 0; //!< partitionFailures over all passes
    double purity = 1.0;        //!< lowest over passes
    double ari = 1.0;           //!< lowest over passes
    ClusterStats work;          //!< counters beyond set-up, all passes
    std::vector<std::size_t> firstPass; //!< assignments of pass one
};

/**
 * Feed @p batches batches (or, with 0, batches until @p seconds of
 * wall time pass) into copies of @p fresh, the post-set-up clusterer,
 * one copy per pass over the campaign. Each pass is scored against
 * the chip ground truth; @p corrupt flips one label of the first.
 */
BatchLog
stream(const IndexedClusterer &fresh, const CampaignSpec &spec,
       const std::vector<BitVec> &bases, std::size_t batches,
       double seconds, bool corrupt, Tracer *tracer)
{
    BatchLog log;
    Tracer::Lane *lane = tracer ? &tracer->lane() : nullptr;
    const std::size_t passBatches =
        (outputsPerChip * spec.chips + batchOutputs - 1) / batchOutputs;
    IndexedClusterer cl;
    std::vector<std::size_t> truth;
    const auto closePass = [&] {
        if (corrupt && log.passes == 1 && truth.size() > spec.chips)
            truth[spec.chips] = (truth[spec.chips] + 1) % spec.chips;
        const bench::PartitionScore s =
            bench::scorePartition(cl.assignments(), truth);
        log.failures += partitionFailures(s, spec.chips);
        log.purity = std::min(log.purity, s.purity);
        log.ari = std::min(log.ari, s.ari);
        const ClusterStats &a = cl.stats(), &b = fresh.stats();
        log.work.outputs += a.outputs - b.outputs;
        log.work.candidatesScanned += a.candidatesScanned - b.candidatesScanned;
        log.work.resigns += a.resigns - b.resigns;
        log.work.fallbackScans += a.fallbackScans - b.fallbackScans;
        if (log.passes == 1)
            log.firstPass = cl.assignments();
    };

    std::vector<BitVec> batch;
    std::vector<std::size_t> chips;
    const auto start = Clock::now();
    for (std::size_t b = 0;; ++b) {
        if (batches ? b >= batches
                    : secondsBetween(start, Clock::now()) >= seconds)
            break;
        const std::size_t inPass = b % passBatches;
        if (inPass == 0) {
            if (b > 0)
                closePass();
            cl = fresh;
            truth.resize(spec.chips);
            for (std::size_t c = 0; c < spec.chips; ++c)
                truth[c] = c;
            ++log.passes;
        }
        synthesize(spec, bases, inPass * batchOutputs, batchOutputs, batch,
                   chips);
        truth.insert(truth.end(), chips.begin(), chips.end());
        const auto t0 = Clock::now();
        (void)cl.addBatch(batch);
        const auto t1 = Clock::now();
        if (lane)
            lane->record("cluster.addBatch", nullptr, b, t0, t1);
        const double s = secondsBetween(t0, t1);
        log.totalS += s;
        log.latMs.push_back(s * 1e3);
        log.busyS.push_back(log.totalS);
    }
    if (log.passes > 0)
        closePass();
    return log;
}

} // anonymous namespace

Outcome
runClustered(const Options &opt, Meta &meta)
{
    Outcome res;
    CampaignSpec spec;
    spec.chips = opt.chips;
    spec.seed = mix64(opt.seed, campaignStream);
    meta.set("chips", static_cast<double>(spec.chips));
    meta.set("batch_outputs", static_cast<double>(batchOutputs));
    meta.set("outputs_per_chip", static_cast<double>(outputsPerChip));
    meta.set("pool_lanes", 0.0);
    meta.set("connections", 0.0);
    meta.set("setup_reps", static_cast<double>(setupReps));

    // Inputs, synthesized before anything is timed.
    std::vector<BitVec> bases(spec.chips);
    std::vector<BitVec> discovery(spec.chips);
    for (std::size_t c = 0; c < spec.chips; ++c) {
        bases[c] = campaignChipBase(spec, c);
        discovery[c] =
            campaignObservation(spec, bases[c], discoveryIndex(c));
    }

    // Set-up: the discovery pass, one observation per chip, each
    // opening its cluster through the bounded full-scan fallback.
    std::vector<double> setups;
    IndexedClusterer clusterer;
    std::uint64_t setupFailures = 0;
    for (int rep = 0; rep < setupReps; ++rep) {
        clusterer = IndexedClusterer();
        const auto t0 = Clock::now();
        for (std::size_t b = 0; b < discovery.size(); b += batchOutputs) {
            const std::size_t e =
                std::min(discovery.size(), b + batchOutputs);
            (void)clusterer.addBatch(std::vector<BitVec>(
                discovery.begin() + b, discovery.begin() + e));
        }
        setups.push_back(secondsBetween(t0, Clock::now()));
        const auto &a = clusterer.assignments();
        for (std::size_t c = 0; c < a.size(); ++c)
            setupFailures += a[c] != c;
    }

    const ProcessSample p0 = sampleProcess();
    const BatchLog measured = stream(clusterer, spec, bases, 0, opt.seconds,
                                     opt.corrupt == "truth", nullptr);
    const ProcessSample p1 = sampleProcess();
    const double outputs =
        static_cast<double>(measured.latMs.size() * batchOutputs);

    res.tally.attempted = static_cast<std::uint64_t>(outputs) + spec.chips;
    res.tally.failed = setupFailures + measured.failures;
    std::printf("checks: %.0f outputs in %zu passes of %zu per chip, "
                "lowest purity %.6f, lowest ari %.6f, %llu misclustered, "
                "%llu set-up misassignments\n",
                outputs, measured.passes, outputsPerChip, measured.purity,
                measured.ari, (unsigned long long)measured.failures,
                (unsigned long long)setupFailures);

    const double p50 = percentile(measured.latMs, 50.0);
    const double rate = chunkRate(measured.busyS) *
                        static_cast<double>(batchOutputs);
    res.endToEnd.add("setup_s", percentile(setups, 50.0), "s");
    res.endToEnd.add("rss_mb", p0.maxRssMb, "MB");
    res.endToEnd.add("p50_ms", p50, "ms");
    std::printf("measured: %.0f outputs in %zu batches, %.3f s in "
                "addBatch, p50 %.4f ms, %.1f outputs/s\n",
                outputs, measured.latMs.size(), measured.totalS, p50, rate);
    std::printf("dist: p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f\n",
                percentile(measured.latMs, 10), percentile(measured.latMs, 25),
                p50, percentile(measured.latMs, 75),
                percentile(measured.latMs, 90));

    if (opt.trace) {
        // Traced run: the same batches from the post-set-up clusterer,
        // then minhashSignature replayed per output.
        Tracer tracer(Clock::now());
        const BatchLog traced = stream(clusterer, spec, bases,
                                       measured.latMs.size(), 0.0, false,
                                       &tracer);
        if (traced.firstPass != measured.firstPass || traced.failures) {
            std::printf("error: the traced replay assigned differently\n");
            ++res.tally.failed;
        }
        Tracer::Lane &lane = tracer.lane();
        std::vector<BitVec> batch;
        std::vector<std::size_t> chips;
        const auto start = Clock::now();
        const std::size_t replays =
            std::min(measured.latMs.size(), maxReplayBatches);
        for (std::size_t b = 0; b < replays; ++b) {
            synthesize(spec, bases, b * batchOutputs, batchOutputs, batch,
                       chips);
            for (const BitVec &es : batch) {
                const auto t0 = Clock::now();
                (void)minhashSignature(es, clusterer.indexParams());
                lane.record("cluster.sign", "cluster.addBatch", b, t0,
                            Clock::now());
            }
            if (secondsBetween(start, Clock::now()) > 0.5 * opt.seconds)
                break;
        }

        const auto spans = tracer.summarize();
        const auto signIt = spans.find("cluster.sign");
        const ClusterStats &w = measured.work;
        const double perOutput = 1.0 / static_cast<double>(w.outputs);
        Metrics &L = res.perLayer;
        L.add("throughput.ops_per_s", rate, "1/s");
        L.add("process.cpu_ms_per_op",
              (p1.cpuSeconds - p0.cpuSeconds) * 1e3 / outputs, "ms");
        L.add("process.ctx_switches_per_op",
              static_cast<double>(p1.ctxSwitches - p0.ctxSwitches) /
                  outputs,
              "count");
        L.add("cluster.sign_us",
              signIt == spans.end() ? 0.0 : signIt->second.meanUs, "us");
        L.add("cluster.candidates_per_output",
              static_cast<double>(w.candidatesScanned) * perOutput, "count");
        L.add("cluster.resigns_per_output",
              static_cast<double>(w.resigns) * perOutput, "count");
        L.add("cluster.fallback_scans",
              static_cast<double>(clusterer.stats().fallbackScans +
                                  w.fallbackScans),
              "count");
        L.add("cluster.purity", measured.purity, "fraction");
        L.add("cluster.ari", measured.ari, "fraction");
        L.add("trace.overhead_pct",
              (percentile(traced.latMs, 50.0) - p50) / p50 * 100.0, "%");
        std::printf("cluster: %llu fallback scans in set-up, %llu in the "
                    "measured phase\n",
                    (unsigned long long)clusterer.stats().fallbackScans,
                    (unsigned long long)w.fallbackScans);
        tracer.printSummary();
        if (!opt.traceOut.empty() && !tracer.write(opt.traceOut))
            std::printf("warning: cannot write %s\n",
                        opt.traceOut.c_str());
    }

    res.correct = res.tally.failed == 0 && outputs > 0;
    return res;
}

} // namespace pcbench
