/**
 * @file
 * Serial-vs-parallel throughput of the batch attack engine.
 *
 * Sweeps a 1000-record fingerprint store with serial indexed
 * queries and with queryBatch() spread across a thread pool,
 * verifies the batch results are bit-identical to serial, and
 * reports the speedup — the trackable perf metric for this
 * reproduction's attacker hot path. Also times parallel
 * characterization and batched stitching ingest.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "core/attack_stats.hh"
#include "core/characterize.hh"
#include "core/identify.hh"
#include "core/stitcher.hh"
#include "core/store.hh"
#include "dram/modeled_dram.hh"
#include "os/page.hh"
#include "util/csv.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace pcause;

namespace
{

constexpr std::size_t kFingerprintBits = 262144; // one 32 KB chip
constexpr std::size_t kDbRecords = 1000;
constexpr std::size_t kQueries = 64;

BitVec
randomPattern(std::size_t size, std::size_t weight, Rng &rng)
{
    BitVec v(size);
    while (v.popcount() < weight)
        v.set(rng.nextBelow(size));
    return v;
}

double
now()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

bool
sameResult(const IdentifyResult &a, const IdentifyResult &b)
{
    return a.match == b.match && a.nearest == b.nearest &&
        a.bestDistance == b.bestDistance;
}

} // anonymous namespace

int
main()
{
    bench::Timer timer;
    bench::banner("perf: parallel batch attack engine",
                  "Serial vs thread-pool identification, "
                  "characterization, and stitching ingest");

    ThreadPool pool;
    std::printf("thread pool lanes: %zu\n\n", pool.size());
    Rng rng(0xBA7C4);

    // --- database identification sweep ---------------------------
    // 1000 fingerprints of ~1% weight; queries are noisy copies of
    // database entries (matches) and fresh random patterns
    // (non-matches), the attacker's two cases.
    FingerprintDb db;
    for (std::size_t i = 0; i < kDbRecords; ++i) {
        db.add("chip-" + std::to_string(i),
               Fingerprint(randomPattern(kFingerprintBits,
                                         kFingerprintBits / 100,
                                         rng)));
    }
    std::vector<BitVec> queries;
    for (std::size_t q = 0; q < kQueries; ++q) {
        if (q % 2 == 0) {
            // Noisy superset of a database fingerprint: the extra
            // errors of a hotter, less accurate output.
            BitVec es =
                db.record((q * 7919) % kDbRecords).fingerprint.bits();
            for (std::size_t k = 0; k < kFingerprintBits / 50; ++k)
                es.set(rng.nextBelow(kFingerprintBits));
            queries.push_back(std::move(es));
        } else {
            queries.push_back(randomPattern(
                kFingerprintBits, kFingerprintBits / 50, rng));
        }
    }

    FingerprintStore store = FingerprintStore::fromDb(std::move(db));
    store.setThreadPool(&pool);
    const IdentifyParams params;
    const double t_serial = now();
    std::vector<IdentifyResult> serial;
    serial.reserve(queries.size());
    for (const auto &es : queries)
        serial.push_back(store.query(es, params));
    const double serial_secs = now() - t_serial;

    AttackStats stats;
    const double t_par = now();
    const std::vector<IdentifyResult> parallel =
        store.queryBatch(queries, params, &stats);
    const double par_secs = now() - t_par;

    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < queries.size(); ++q)
        mismatches += !sameResult(serial[q], parallel[q]);

    const double batch_speedup = serial_secs / par_secs;
    std::printf("identification sweep (%zu queries x %zu records):\n",
                kQueries, kDbRecords);
    std::printf("  serial          : %8.3f s (%.0f queries/s)\n",
                serial_secs, kQueries / serial_secs);
    std::printf("  parallel batch  : %8.3f s (%.0f queries/s)  "
                "speedup %.2fx\n",
                par_secs, kQueries / par_secs, batch_speedup);
    std::printf("  results identical to serial: %s\n",
                mismatches == 0 ? "yes" : "NO — BUG");
    std::printf("  index fallbacks %llu, distances computed %llu, "
                "pruned early %llu\n\n",
                (unsigned long long)stats.indexFallbacks,
                (unsigned long long)stats.distancesComputed,
                (unsigned long long)stats.distancesPruned);

    // --- characterization ----------------------------------------
    std::vector<BitVec> outputs;
    for (unsigned k = 0; k < 48; ++k)
        outputs.push_back(randomPattern(
            kFingerprintBits, kFingerprintBits / 80, rng));
    const BitVec exact(kFingerprintBits);

    const double t_cser = now();
    const Fingerprint fp_serial = characterize(outputs, exact);
    const double cser_secs = now() - t_cser;
    const double t_cpar = now();
    const Fingerprint fp_parallel = characterize(outputs, exact, pool);
    const double cpar_secs = now() - t_cpar;
    const bool fp_same = fp_serial.bits() == fp_parallel.bits() &&
        fp_serial.sources() == fp_parallel.sources();
    std::printf("characterize (%zu outputs):\n", outputs.size());
    std::printf("  serial %.4f s, tree-parallel %.4f s (%.2fx), "
                "identical: %s\n\n",
                cser_secs, cpar_secs, cser_secs / cpar_secs,
                fp_same ? "yes" : "NO — BUG");

    // --- stitching ingest ----------------------------------------
    ModeledDramParams dram_params;
    dram_params.totalBits = 8192ull * pageBits; // 32 MB module
    ModeledDram dram(dram_params, 0x57A7);
    std::vector<std::vector<SparseBitset>> samples;
    for (std::uint64_t s = 0; s < 40; ++s) {
        std::vector<SparseBitset> pages;
        const std::uint64_t base = (s * 331) % (8192 - 512);
        for (std::uint64_t i = 0; i < 512; ++i)
            pages.push_back(
                dram.observePage(base + i, 0.99, 1000 + s));
        samples.push_back(std::move(pages));
    }

    Stitcher st_serial;
    const double t_sser = now();
    for (const auto &s : samples)
        st_serial.addSample(s);
    const double sser_secs = now() - t_sser;

    Stitcher st_parallel;
    st_parallel.setThreadPool(&pool);
    const double t_spar = now();
    st_parallel.addSamples(samples);
    const double spar_secs = now() - t_spar;
    const bool stitch_same =
        st_serial.numSuspectedChips() ==
            st_parallel.numSuspectedChips() &&
        st_serial.totalFingerprintedPages() ==
            st_parallel.totalFingerprintedPages();
    std::printf("stitcher ingest (%zu samples x 512 pages):\n",
                samples.size());
    std::printf("  serial %.3f s, parallel probing %.3f s (%.2fx), "
                "clusters identical: %s\n",
                sser_secs, spar_secs, sser_secs / spar_secs,
                stitch_same ? "yes" : "NO — BUG");

    CsvWriter csv(bench::outputDir() + "/perf_parallel.csv",
                  {"phase", "serial_s", "parallel_s", "speedup",
                   "identical"});
    csv.writeRow(std::vector<std::string>{
        "identify_batch", std::to_string(serial_secs),
        std::to_string(par_secs), std::to_string(batch_speedup),
        mismatches == 0 ? "1" : "0"});
    csv.writeRow(std::vector<std::string>{
        "characterize", std::to_string(cser_secs),
        std::to_string(cpar_secs),
        std::to_string(cser_secs / cpar_secs), fp_same ? "1" : "0"});
    csv.writeRow(std::vector<std::string>{
        "stitch_ingest", std::to_string(sser_secs),
        std::to_string(spar_secs),
        std::to_string(sser_secs / spar_secs),
        stitch_same ? "1" : "0"});
    std::printf("\nraw timings: %s/perf_parallel.csv\n",
                bench::outputDir().c_str());

    timer.report();
    return mismatches == 0 && fp_same && stitch_same ? 0 : 1;
}
