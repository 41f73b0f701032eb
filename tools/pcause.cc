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
#include <limits>
#include <string>
#include <vector>

#include "args.hh"
#include "bench/bench_common.hh"
#include "core/campaign.hh"
#include "core/cluster.hh"
#include "core/error_string.hh"
#include "core/identify.hh"
#include "core/pcdb_format.hh"
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
        "               --mmap queries a v5 or v4 file in place)\n"
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
        "               as v5 under new [--hashes K] [--bands B],\n"
        "               'verify' [--wal FILE] triages crash damage\n"
        "               (exit 0 healthy, 1 recoverable torn tail,\n"
        "               2 corrupt)\n");
    return 2;
}

/** simulate's and model's --accuracy, inside (0, 1) as the DRAM
 *  and fingerprint-space models take it. */
double
accuracyFlag(const Args &args)
{
    const double accuracy = args.number("accuracy", 0.99, 0.0, 1.0);
    if (accuracy == 0.0 || accuracy == 1.0)
        fatal("--accuracy %g: want a number in (0, 1)", accuracy);
    return accuracy;
}

int
cmdSimulate(const Args &args)
{
    args.only("simulate",
              {"chips", "trials", "seed", "accuracy", "temp", "out"});
    const auto chips = args.number<unsigned>("chips", 2, 1);
    const auto trials = args.number<long>("trials", 3, 1);
    const auto seed = args.number<std::uint64_t>("seed", 0x1464, 0);
    const double accuracy = accuracyFlag(args);
    const double temp = args.number(
        "temp", 40.0, -273.15, std::numeric_limits<double>::infinity());
    const std::string dir = args.get("out", ".");

    Platform platform(DramConfig::km41464a(), chips, seed);
    const BitVec exact = platform.chip(0).worstCasePattern();
    if (!saveBitVec(exact, dir + "/exact.pcbv"))
        fatal("simulate: cannot write %s/exact.pcbv", dir.c_str());

    std::uint64_t key = 0;
    for (unsigned c = 0; c < chips; ++c) {
        TestHarness h = platform.harness(c);
        for (long k = 0; k < trials; ++k) {
            TrialSpec spec;
            spec.accuracy = accuracy;
            spec.temp = temp;
            spec.trialKey = ++key;
            const BitVec out = h.runWorstCaseTrial(spec).approx;
            char name[128];
            std::snprintf(name, sizeof(name),
                          "%s/chip%u_trial%ld.pcbv", dir.c_str(),
                          c, k);
            if (!saveBitVec(out, name))
                fatal("simulate: cannot write %s", name);
        }
    }
    std::printf("wrote %ld outputs from %u chips under %s "
                "(accuracy %.2f, %.0f C)\n",
                chips * trials, chips, dir.c_str(), accuracy, temp);
    return 0;
}

/** An --exact value and the outputs observed against it. */
struct Observations
{
    BitVec exact;
    std::vector<BitVec> outputs;
};

/**
 * Load @p exact_path and every output of @p output_paths, refusing
 * (as command @p who) an output whose bit count differs from the
 * exact value's, before anything derives an error string from it.
 */
Observations
loadObservations(const char *who, const std::string &exact_path,
                 const std::vector<std::string> &output_paths)
{
    Observations obs;
    obs.exact = loadBitVec(exact_path);
    for (const auto &path : output_paths) {
        obs.outputs.push_back(loadBitVec(path));
        if (obs.outputs.back().size() != obs.exact.size())
            fatal("%s: %s has %zu bits, %s has %zu", who, path.c_str(),
                  obs.outputs.back().size(), exact_path.c_str(),
                  obs.exact.size());
    }
    return obs;
}

/**
 * identify's and cluster's --threshold: a finite, non-negative
 * distance (validThreshold(), the rule the wire and AttackService
 * apply to identify), refused before any work.
 */
double
threshold(const Args &args)
{
    return args.number("threshold", 0.1, 0.0,
                       std::numeric_limits<double>::infinity());
}

int
cmdCharacterize(const Args &args)
{
    args.only("characterize", {"db", "label", "exact"});
    const std::string db_path = args.get("db", "");
    const std::string label = args.get("label", "");
    const std::string exact_path = args.get("exact", "");
    if (db_path.empty() || label.empty() || exact_path.empty() ||
        args.positional.empty()) {
        fatal("characterize: need --db, --label, --exact, and at "
              "least one output file");
    }

    const auto [exact, outputs] =
        loadObservations("characterize", exact_path, args.positional);

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
    // Algorithm 1 behind the service, whose store refuses, before
    // anything is written, a record no database file may hold or a
    // second bit count.
    AttackService svc(std::move(store));
    std::vector<BitVec> error_strings;
    for (const BitVec &out : outputs)
        error_strings.push_back(errorString(out, exact));
    const AttackService::AddOutcome added =
        svc.addFingerprint(label, error_strings);
    if (!added.added)
        fatal("characterize: %s", added.error.c_str());
    std::string err;
    if (!saveStoreDurable(*svc.store(), db_path, &err))
        fatal("characterize: cannot write %s: %s", db_path.c_str(),
              err.c_str());
    std::printf("added '%s' (%zu volatile cells from %zu outputs); "
                "database now holds %zu records\n",
                label.c_str(), added.weight, outputs.size(), svc.size());
    return 0;
}

int
cmdIdentify(const Args &args)
{
    args.only("identify", {"db", "exact", "threshold", "linear", "mmap"});
    const std::string db_path = args.get("db", "");
    const std::string exact_path = args.get("exact", "");
    if (db_path.empty() || exact_path.empty() ||
        args.positional.size() != 1) {
        fatal("identify: need --db, --exact, and exactly one "
              "output file");
    }

    const auto [exact, outputs] =
        loadObservations("identify", exact_path, args.positional);

    // One facade call covers every backend combination: --mmap
    // queries the file in place, --linear bypasses the index.
    IdentifyRequest req;
    req.errorString = errorString(outputs[0], exact);
    req.options.threshold = threshold(args);
    req.options.linear = args.yes("linear");
    const bool mmap = args.yes("mmap");

    LoadResult<AttackService> svc = AttackService::open(db_path, mmap);
    if (!svc)
        fatal("identify: %s", svc.error.c_str());
    const IdentifyVerdict v = svc->identify(req);
    if (!v.error.empty())
        fatal("identify: %s", v.error.c_str());

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
    spec.chips = args.number<std::size_t>("chips", 100, 1);
    spec.outputs = args.number<std::uint64_t>("outputs", 10000, 1);
    spec.seed = args.number<std::uint64_t>("seed", spec.seed, 0);

    ClusterParams params;
    params.threshold = threshold(args);
    const bool pairwise = args.yes("pairwise");

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
        std::string err;
        if (!saveStoreDurable(store, db_path, &err))
            fatal("cluster: cannot write %s: %s", db_path.c_str(),
                  err.c_str());
        std::printf("  wrote %zu discovered fingerprints to %s\n",
                    store.size(), db_path.c_str());
    }
    return 0;
}

int
cmdCluster(const Args &args)
{
    args.only("cluster", {"exact", "threshold", "campaign", "chips",
                          "outputs", "seed", "pairwise", "db"});
    if (args.yes("campaign"))
        return cmdClusterCampaign(args);

    const std::string exact_path = args.get("exact", "");
    if (exact_path.empty() || args.positional.size() < 2)
        fatal("cluster: need --exact and at least two output files");

    const auto [exact, outputs] =
        loadObservations("cluster", exact_path, args.positional);

    ClusterParams params;
    params.threshold = threshold(args);
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
    args.only("model", {"memory-bits", "accuracy"});
    const auto memory_bits =
        args.number<std::uint64_t>("memory-bits", 32768, 1);
    const double accuracy = accuracyFlag(args);
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

/** How `db stats`/`db verify` name a file's signing scheme. */
const char *
schemeName(std::uint32_t scheme)
{
    return scheme == pcdb::schemeRetired ? "retired 64-hash (scheme 0)"
                                         : "one-permutation (scheme 1)";
}

/** How `db stats`/`db verify` name a file's format version. */
const char *
versionName(std::uint32_t version)
{
    return version == pcdb::versionV3
               ? "PCDB v3 (index rebuilt on every load; 'pcause db "
                 "reindex' rewrites it as v5)"
           : version == pcdb::versionV4
               ? "PCDB v4 (signature arena skipped on every load; "
                 "'pcause db reindex' rewrites it as v5)"
               : "PCDB v5";
}

int
cmdDbStats(FingerprintStore store, std::uint32_t scheme,
           std::uint32_t version)
{
    // The facade owns the backend-independent aggregation; the CLI
    // only renders it.
    const AttackService svc(std::move(store));
    const ServiceDbStats s = svc.dbStats();
    const MinHashParams &prm = s.indexParams;
    std::printf("format            : %s\n", versionName(version));
    std::printf("records           : %zu\n", s.records);
    std::printf("universe          : %zu bits\n", s.universeBits);
    std::printf("volatile cells    : %zu total\n", s.volatileCells);
    std::printf("minhash           : %u hashes, %u bands x %u rows "
                "(seed %llx)\n",
                prm.numHashes, prm.bands, prm.rows(),
                (unsigned long long)prm.seed);
    std::printf("signing           : %s%s\n", schemeName(scheme),
                scheme == pcdb::schemeRetired
                    ? ", re-signed on load; 'pcause db reindex' "
                      "upgrades the file"
                    : "");
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
    prm.numHashes = args.number<std::uint32_t>("hashes", prm.numHashes, 0);
    prm.bands = args.number<std::uint32_t>("bands", prm.bands, 0);
    const std::string why = pcdb::minhashError(prm.numHashes, prm.bands);
    if (!why.empty())
        fatal("db reindex: %s", why.c_str());
    store.reindex(prm);
    std::string err;
    if (!saveStoreDurable(store, db_path, &err))
        fatal("db reindex: cannot write %s: %s", db_path.c_str(),
              err.c_str());
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
    std::uint32_t scheme = pcdb::schemeOnePermutation;
    std::uint32_t version = pcdb::versionV5;
    StoreLoadResult loaded = loadStore(db_path, &scheme, &version);
    if (!loaded) {
        std::printf("CORRUPT: snapshot %s: %s\n", db_path.c_str(),
                    loaded.error.c_str());
        return 2;
    }
    std::printf("snapshot: %zu records, %s, ok\n", loaded->size(),
                versionName(version));
    if (scheme == pcdb::schemeRetired)
        std::printf("signing : %s: the file is re-signed on every "
                    "load and cannot be mapped; 'pcause db reindex' "
                    "upgrades it\n",
                    schemeName(scheme));

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
    // The replay a durable open would run, into the loaded snapshot:
    // what it refuses (entries of another bit count), no restart can
    // get past either.
    const LoadResult<WalReplayStats> replayed =
        Wal::replay(wal_path, *loaded);
    if (!replayed) {
        std::printf("CORRUPT: journal %s: %s\n", wal_path.c_str(),
                    replayed.error.c_str());
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
    if (action == "list" || action == "stats")
        args.only(("db " + action).c_str(), {"db"});
    else if (action == "reindex")
        args.only("db reindex", {"db", "hashes", "bands"});
    else if (action == "verify")
        args.only("db verify", {"db", "wal"});
    else
        fatal("db: unknown action '%s' (want stats, reindex, or "
              "verify)",
              action.c_str());
    // verify triages load failures instead of dying on them, so it
    // runs before the generic strict load below.
    if (action == "verify")
        return cmdDbVerify(args, db_path);

    std::uint32_t scheme = pcdb::schemeOnePermutation;
    std::uint32_t version = pcdb::versionV5;
    StoreLoadResult loaded = loadStore(db_path, &scheme, &version);
    if (!loaded)
        fatal("db: %s", loaded.error.c_str());
    FingerprintStore &store = *loaded;

    if (action == "stats")
        return cmdDbStats(std::move(store), scheme, version);
    if (action == "reindex")
        return cmdDbReindex(args, store, db_path);

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
