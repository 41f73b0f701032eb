/**
 * @file
 * pcause — command-line driver for the Probable Cause library.
 *
 * Subcommands:
 *   simulate      generate approximate outputs from simulated chips
 *   characterize  build/extend a fingerprint database (Algorithm 1)
 *   identify      attribute an output to a chip (Algorithm 2)
 *   cluster       group outputs by chip (Algorithm 4)
 *   model         evaluate the fingerprint-space equations (1-4)
 *   db            inspect a fingerprint database
 *
 * Outputs and exact patterns travel as PCBV bit-vector dumps,
 * databases as PCDB files — the formats in core/serialize. Run any
 * subcommand with no arguments for usage.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "core/campaign.hh"
#include "core/characterize.hh"
#include "core/cluster.hh"
#include "core/error_string.hh"
#include "core/identify.hh"
#include "core/serialize.hh"
#include "core/service.hh"
#include "core/store.hh"
#include "core/wal.hh"
#include "math/fingerprint_space.hh"
#include "platform/platform.hh"
#include "util/ascii_chart.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace
{

using namespace pcause;

/** Minimal --flag value parser: flags first, positionals after. */
struct Args
{
    std::map<std::string, std::string> flags;
    std::vector<std::string> positional;

    static Args parse(int argc, char **argv, int first)
    {
        Args args;
        for (int i = first; i < argc; ++i) {
            std::string tok = argv[i];
            if (tok.rfind("--", 0) == 0) {
                const std::string key = tok.substr(2);
                if (i + 1 >= argc)
                    fatal("missing value for --%s", key.c_str());
                args.flags[key] = argv[++i];
            } else {
                args.positional.push_back(std::move(tok));
            }
        }
        return args;
    }

    std::string get(const std::string &key,
                    const std::string &fallback) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }

    double getDouble(const std::string &key, double fallback) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : std::stod(it->second);
    }

    long getLong(const std::string &key, long fallback) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : std::stol(it->second);
    }
};

int
usage()
{
    std::puts(
        "pcause — DRAM-decay fingerprinting toolkit\n"
        "\n"
        "usage: pcause <command> [options]\n"
        "\n"
        "commands:\n"
        "  simulate     --chips N --trials K [--seed S]\n"
        "               [--accuracy A] [--temp T] [--out DIR]\n"
        "               write worst-case approximate outputs\n"
        "               (chip<i>_trial<k>.pcbv) plus exact.pcbv\n"
        "  characterize --db FILE --label NAME --exact FILE OUT...\n"
        "               fingerprint a chip from its outputs and\n"
        "               append to the database (Algorithm 1)\n"
        "  identify     --db FILE --exact FILE [--threshold T]\n"
        "               [--linear yes] [--mmap yes] OUT\n"
        "               attribute an output (Algorithm 2, via the\n"
        "               MinHash/LSH candidate index by default;\n"
        "               --mmap queries a v3 file in place)\n"
        "  cluster      --exact FILE [--threshold T] OUT...\n"
        "               group outputs by source chip (Algorithm 4);\n"
        "               --campaign yes [--chips N] [--outputs M]\n"
        "               [--seed S] [--pairwise yes] [--db OUT]\n"
        "               instead streams a synthetic eavesdropper\n"
        "               campaign through the indexed clusterer and\n"
        "               reports purity against ground truth\n"
        "  model        [--memory-bits M] [--accuracy A]\n"
        "               fingerprint-space bounds (Equations 1-4)\n"
        "  db           --db FILE [stats|reindex|verify]\n"
        "               list records; 'stats' prints index/disk\n"
        "               diagnostics, 'reindex' rewrites the file\n"
        "               under new [--hashes K] [--bands B],\n"
        "               'verify' [--wal FILE] triages crash damage\n"
        "               (exit 0 healthy, 1 recoverable torn tail,\n"
        "               2 corrupt)\n");
    return 2;
}

int
cmdSimulate(const Args &args)
{
    const auto chips = args.getLong("chips", 2);
    const auto trials = args.getLong("trials", 3);
    const auto seed = static_cast<std::uint64_t>(
        args.getLong("seed", 0x1464));
    const double accuracy = args.getDouble("accuracy", 0.99);
    const double temp = args.getDouble("temp", 40.0);
    const std::string dir = args.get("out", ".");
    if (chips < 1 || trials < 1)
        fatal("simulate: need at least one chip and one trial");

    Platform platform(DramConfig::km41464a(),
                      static_cast<unsigned>(chips), seed);
    const BitVec exact = platform.chip(0).worstCasePattern();
    if (!saveBitVec(exact, dir + "/exact.pcbv"))
        fatal("simulate: cannot write %s/exact.pcbv", dir.c_str());

    std::uint64_t key = 0;
    for (long c = 0; c < chips; ++c) {
        TestHarness h = platform.harness(c);
        for (long k = 0; k < trials; ++k) {
            TrialSpec spec;
            spec.accuracy = accuracy;
            spec.temp = temp;
            spec.trialKey = ++key;
            const BitVec out = h.runWorstCaseTrial(spec).approx;
            char name[128];
            std::snprintf(name, sizeof(name),
                          "%s/chip%ld_trial%ld.pcbv", dir.c_str(),
                          c, k);
            if (!saveBitVec(out, name))
                fatal("simulate: cannot write %s", name);
        }
    }
    std::printf("wrote %ld outputs from %ld chips under %s "
                "(accuracy %.2f, %.0f C)\n",
                chips * trials, chips, dir.c_str(), accuracy, temp);
    return 0;
}

int
cmdCharacterize(const Args &args)
{
    const std::string db_path = args.get("db", "");
    const std::string label = args.get("label", "");
    const std::string exact_path = args.get("exact", "");
    if (db_path.empty() || label.empty() || exact_path.empty() ||
        args.positional.empty()) {
        fatal("characterize: need --db, --label, --exact, and at "
              "least one output file");
    }

    const BitVec exact = loadBitVec(exact_path);
    std::vector<BitVec> outputs;
    for (const auto &path : args.positional)
        outputs.push_back(loadBitVec(path));

    // Load through the store so a database reindexed under custom
    // MinHash parameters keeps them across characterize runs — the
    // store recomputes the new record's signature under the loaded
    // parameters instead of the defaults.
    FingerprintStore store;
    if (std::FILE *f = std::fopen(db_path.c_str(), "rb")) {
        std::fclose(f);
        StoreLoadResult loaded = loadStore(db_path);
        if (!loaded)
            fatal("characterize: %s", loaded.error.c_str());
        store = std::move(*loaded);
    }
    const Fingerprint fp = characterize(outputs, exact);
    store.add(label, fp);
    if (!saveStore(store, db_path))
        fatal("characterize: cannot write %s", db_path.c_str());
    std::printf("added '%s' (%zu volatile cells from %zu outputs); "
                "database now holds %zu records\n",
                label.c_str(), fp.weight(), outputs.size(),
                store.size());
    return 0;
}

int
cmdIdentify(const Args &args)
{
    const std::string db_path = args.get("db", "");
    const std::string exact_path = args.get("exact", "");
    if (db_path.empty() || exact_path.empty() ||
        args.positional.size() != 1) {
        fatal("identify: need --db, --exact, and exactly one "
              "output file");
    }

    const BitVec exact = loadBitVec(exact_path);
    const BitVec output = loadBitVec(args.positional[0]);

    // One facade call covers every backend combination: --mmap
    // queries the v3 file in place, --linear bypasses the index.
    IdentifyRequest req;
    req.errorString = errorString(output, exact);
    req.options.threshold = args.getDouble("threshold", 0.1);
    req.options.linear = args.get("linear", "no") == "yes";
    const bool mmap = args.get("mmap", "no") == "yes";

    LoadResult<AttackService> svc = AttackService::open(db_path, mmap);
    if (!svc)
        fatal("identify: %s", svc.error.c_str());
    const IdentifyVerdict v = svc->identify(req);

    if (!req.options.linear) {
        std::printf("index: %llu of %llu records shortlisted%s\n",
                    (unsigned long long)v.delta.candidatesScanned,
                    (unsigned long long)v.delta.recordsAvailable,
                    v.delta.indexFallbacks
                        ? " (full-scan fallback)" : "");
    }
    if (v.matched) {
        std::printf("match: %s (distance %.6f)\n", v.label.c_str(),
                    v.distance);
        return 0;
    }
    std::printf("no match (nearest: %s at distance %.6f)\n",
                v.nearest ? v.nearestLabel.c_str() : "none",
                v.distance);
    return 1;
}

/**
 * cluster --campaign yes: stream a synthetic fleet campaign
 * (core/campaign.hh) through the IndexedClusterer in fixed-size
 * chunks — the eavesdropper-at-scale mode. Ground truth is known by
 * construction, so the run reports cluster purity directly;
 * --pairwise yes replays the stream through the literal Algorithm 4
 * scan and counts assignment divergences (slow beyond ~1e5 outputs).
 */
int
cmdClusterCampaign(const Args &args)
{
    CampaignSpec spec;
    spec.chips = static_cast<std::size_t>(args.getLong("chips", 100));
    spec.outputs =
        static_cast<std::uint64_t>(args.getLong("outputs", 10000));
    spec.seed = static_cast<std::uint64_t>(
        args.getLong("seed", static_cast<long>(spec.seed)));
    if (spec.chips < 1 || spec.outputs < 1)
        fatal("cluster: need at least one chip and one output");

    ClusterParams params;
    params.threshold = args.getDouble("threshold", 0.1);
    const bool pairwise = args.get("pairwise", "no") == "yes";

    std::vector<BitVec> bases(spec.chips);
    for (std::size_t c = 0; c < spec.chips; ++c)
        bases[c] = campaignChipBase(spec, c);

    IndexedClusterer clusterer(params);
    OnlineClusterer reference(params);
    std::vector<std::size_t> truth;
    truth.reserve(static_cast<std::size_t>(spec.outputs));
    constexpr std::uint64_t chunk_outputs = 4096;
    std::vector<BitVec> chunk;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t first = 0; first < spec.outputs;
         first += chunk_outputs) {
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk_outputs,
                                    spec.outputs - first));
        chunk.assign(count, BitVec());
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t index = first + i;
            const std::size_t chip = campaignChipOf(spec, index);
            truth.push_back(chip);
            chunk[i] =
                campaignObservation(spec, bases[chip], index);
        }
        clusterer.addBatch(chunk);
        if (pairwise) {
            for (const BitVec &es : chunk)
                reference.addErrorString(es);
        }
    }
    const double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();

    const bench::PartitionScore score =
        bench::scorePartition(clusterer.assignments(), truth);
    std::printf("%llu outputs -> %zu clusters\n",
                (unsigned long long)spec.outputs,
                clusterer.numClusters());
    std::printf("  chips %zu, purity %.6f, ari %.6f, fragmented "
                "%zu\n",
                spec.chips, score.purity, score.ari,
                score.fragmentedClasses);
    std::printf("  %.2f s (%.0f outputs/s), %.2f candidates/output, "
                "fallback %.4f\n",
                seconds,
                static_cast<double>(spec.outputs) / seconds,
                static_cast<double>(
                    clusterer.stats().candidatesScanned) /
                    static_cast<double>(spec.outputs),
                static_cast<double>(clusterer.stats().fallbackScans) /
                    static_cast<double>(spec.outputs));

    if (pairwise) {
        std::size_t divergences = 0;
        const auto &a = clusterer.assignments();
        const auto &b = reference.assignments();
        for (std::size_t i = 0; i < a.size(); ++i)
            divergences += a[i] != b[i];
        std::printf("  pairwise replay: %zu clusters, %zu assignment "
                    "divergences\n",
                    reference.numClusters(), divergences);
        if (divergences > 0)
            return 1;
    }

    const std::string db_path = args.get("db", "");
    if (!db_path.empty()) {
        const FingerprintDb db = clusterer.toDatabase();
        FingerprintStore store;
        for (std::size_t i = 0; i < db.size(); ++i) {
            const auto &rec = db.record(i);
            store.add(rec.label, rec.fingerprint);
        }
        if (!saveStore(store, db_path))
            fatal("cluster: cannot write %s", db_path.c_str());
        std::printf("  wrote %zu discovered fingerprints to %s\n",
                    store.size(), db_path.c_str());
    }
    return 0;
}

int
cmdCluster(const Args &args)
{
    if (args.get("campaign", "no") == "yes")
        return cmdClusterCampaign(args);

    const std::string exact_path = args.get("exact", "");
    if (exact_path.empty() || args.positional.size() < 2)
        fatal("cluster: need --exact and at least two output files");

    const BitVec exact = loadBitVec(exact_path);
    std::vector<BitVec> outputs;
    for (const auto &path : args.positional)
        outputs.push_back(loadBitVec(path));

    ClusterParams params;
    params.threshold = args.getDouble("threshold", 0.1);
    std::vector<std::size_t> assignments;
    const FingerprintDb db =
        cluster(outputs, exact, params, &assignments);

    std::printf("%zu outputs -> %zu clusters\n", outputs.size(),
                db.size());
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        std::printf("  %-40s cluster %zu\n",
                    args.positional[i].c_str(), assignments[i]);
    }
    return 0;
}

int
cmdModel(const Args &args)
{
    const auto memory_bits = static_cast<std::uint64_t>(
        args.getLong("memory-bits", 32768));
    const double accuracy = args.getDouble("accuracy", 0.99);
    const auto params =
        FingerprintSpaceParams::fromAccuracy(memory_bits, accuracy);
    const auto r = evaluateFingerprintSpace(params);
    std::printf("M = %llu bits, A = %llu, T = %llu\n",
                (unsigned long long)params.memoryBits,
                (unsigned long long)params.errorBits,
                (unsigned long long)params.thresholdBits);
    std::printf("max possible fingerprints : %s\n",
                fmtLog10(r.log10MaxFingerprints).c_str());
    std::printf("max unique fingerprints   : >= %s\n",
                fmtLog10(r.log10DistinguishableLower).c_str());
    std::printf("chance of mismatching     : <= %s\n",
                fmtLog10(r.log10MismatchUpper).c_str());
    std::printf("total entropy             : %.0f bits\n",
                r.entropyBitsFloor);
    return 0;
}

int
cmdDbStats(FingerprintStore store)
{
    // The facade owns the backend-independent aggregation; the CLI
    // only renders it.
    const AttackService svc(std::move(store));
    const ServiceDbStats s = svc.dbStats();
    const MinHashParams &prm = s.indexParams;
    std::printf("records           : %zu\n", s.records);
    std::printf("universe          : %zu bits\n", s.universeBits);
    std::printf("volatile cells    : %zu total\n", s.volatileCells);
    std::printf("minhash           : %u hashes, %u bands x %u rows "
                "(seed %llx)\n",
                prm.numHashes, prm.bands, prm.rows(),
                (unsigned long long)prm.seed);
    std::printf("lsh buckets       : %zu (largest holds %zu "
                "records)\n",
                s.lshBuckets, s.largestBucket);
    std::printf("index memory      : lsh_bytes %zu, postings_bytes "
                "%zu\n",
                s.lshBytes, s.postingsBytes);
    std::printf("record disk size  : %zu bytes estimated\n",
                s.diskBytesEstimate);
    std::printf("simd dispatch     : %s (best available %s)\n",
                simd::levelName(simd::activeLevel()),
                simd::levelName(simd::bestAvailableLevel()));
    return 0;
}

int
cmdDbReindex(const Args &args, FingerprintStore &store,
             const std::string &db_path)
{
    MinHashParams prm = store.indexParams();
    prm.numHashes =
        static_cast<std::uint32_t>(args.getLong(
            "hashes", static_cast<long>(prm.numHashes)));
    prm.bands = static_cast<std::uint32_t>(
        args.getLong("bands", static_cast<long>(prm.bands)));
    if (prm.numHashes == 0 || prm.bands == 0 ||
        prm.numHashes % prm.bands != 0)
        fatal("db reindex: bands must divide hashes");
    store.reindex(prm);
    if (!saveStore(store, db_path))
        fatal("db reindex: cannot write %s", db_path.c_str());
    std::printf("reindexed %zu records: %u hashes, %u bands x %u "
                "rows\n",
                store.size(), prm.numHashes, prm.bands, prm.rows());
    return 0;
}

/**
 * db verify: crash-recovery triage for a snapshot (+ optional WAL).
 * Exit 0 = healthy, 1 = recoverable (a torn journal tail that the
 * next durable open will discard cleanly), 2 = corrupt (checksum or
 * structure damage recovery cannot repair).
 */
int
cmdDbVerify(const Args &args, const std::string &db_path)
{
    StoreLoadResult loaded = loadStore(db_path);
    if (!loaded) {
        std::printf("CORRUPT: snapshot %s: %s\n", db_path.c_str(),
                    loaded.error.c_str());
        return 2;
    }
    std::printf("snapshot: %zu records, ok\n", loaded->size());

    const std::string wal_path = args.get("wal", db_path + ".wal");
    const WalVerifyResult wal = Wal::verify(wal_path);
    switch (wal.health) {
      case WalHealth::Missing:
        std::printf("journal : %s absent (cold database)\n",
                    wal_path.c_str());
        return 0;
      case WalHealth::Corrupt:
        std::printf("CORRUPT: journal %s: %s\n", wal_path.c_str(),
                    wal.detail.c_str());
        return 2;
      case WalHealth::Recoverable:
      case WalHealth::Clean:
        break;
    }
    if (wal.baseRecords > loaded->size()) {
        // The journal claims a base the snapshot never reached —
        // replay cannot line the two up.
        std::printf("CORRUPT: journal base %llu exceeds snapshot "
                    "size %zu\n",
                    (unsigned long long)wal.baseRecords,
                    loaded->size());
        return 2;
    }
    if (wal.health == WalHealth::Recoverable) {
        std::printf("RECOVERABLE: journal %s: %s (%zu complete "
                    "entries survive)\n",
                    wal_path.c_str(), wal.detail.c_str(),
                    wal.entries);
        return 1;
    }
    std::printf("journal : %zu entries on base %llu, ok\n",
                wal.entries, (unsigned long long)wal.baseRecords);
    return 0;
}

int
cmdDb(const Args &args)
{
    const std::string db_path = args.get("db", "");
    if (db_path.empty())
        fatal("db: need --db");

    const std::string action =
        args.positional.empty() ? "list" : args.positional[0];
    // verify triages load failures instead of dying on them, so it
    // runs before the generic strict load below.
    if (action == "verify")
        return cmdDbVerify(args, db_path);

    StoreLoadResult loaded = loadStore(db_path);
    if (!loaded)
        fatal("db: %s", loaded.error.c_str());
    FingerprintStore &store = *loaded;

    if (action == "stats")
        return cmdDbStats(std::move(store));
    if (action == "reindex")
        return cmdDbReindex(args, store, db_path);
    if (action != "list")
        fatal("db: unknown action '%s' (want stats, reindex, or "
              "verify)",
              action.c_str());

    std::printf("%zu records\n", store.size());
    for (std::size_t i = 0; i < store.size(); ++i) {
        const SparseView v = store.sparseFingerprints().view(i);
        std::printf("  %-24s %7zu cells  %u sources  (%zu bits of "
                    "memory)\n",
                    store.label(i).c_str(), v.count, store.sources(i),
                    static_cast<std::size_t>(v.universe));
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    const Args args = Args::parse(argc, argv, 2);

    if (cmd == "simulate")
        return cmdSimulate(args);
    if (cmd == "characterize")
        return cmdCharacterize(args);
    if (cmd == "identify")
        return cmdIdentify(args);
    if (cmd == "cluster")
        return cmdCluster(args);
    if (cmd == "model")
        return cmdModel(args);
    if (cmd == "db")
        return cmdDb(args);
    std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    return usage();
}
