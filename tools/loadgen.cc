/**
 * @file
 * loadgen — pcaused traffic driver (the CI serve-smoke harness).
 *
 * Subcommands:
 *   mkdb  --out FILE [--records N]
 *         write a synthetic population database (the perf_index
 *         recipe: 8192-bit universe, weight-256 fingerprints) for a
 *         pcaused instance to serve
 *   run   --db FILE --port P [--requests N] [--connections C]
 *         [--open-rps R] [--verify yes] [--min-rps R] [--json PATH]
 *         drive closed- and open-loop identify traffic against
 *         127.0.0.1:P, print per-tier latency percentiles, write
 *         BENCH_serve.json, and exit nonzero on any served-verdict
 *         divergence from direct store queries (--verify) or a
 *         missed throughput floor (--min-rps)
 *
 *   ingest --port P [--records N] [--seed S] [--prefix STR]
 *          [--start I] [--deadline-ms N] [--acked-file PATH]
 *          stream Characterize adds with deterministic
 *          fingerprints; print (and optionally file) the number the
 *          server ACKED. Exits 3 when the server dies mid-load —
 *          the expected outcome under crash failpoints; every acked
 *          add is then owed back after restart.
 *   verify-ingest --port P --acked N [--seed S] [--prefix STR]
 *          [--start I]
 *          regenerate the first N ingest fingerprints and identify
 *          each against the (restarted) server; exit 1 on any acked
 *          add that no longer answers with its own label — a lost
 *          acknowledged write.
 *
 * The run command regenerates the query mix deterministically from
 * the database, so a separate pcaused process serving the same file
 * is diffed verdict-for-verdict without any side channel. ingest /
 * verify-ingest carry the same property across a process crash: the
 * fingerprints are a pure function of (seed, index), so the auditor
 * needs no state that could die with the client.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "args.hh"
#include "core/serialize.hh"
#include "serve/client.hh"
#include "serve/loadgen.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace pcause;

int
usage()
{
    std::puts(
        "loadgen — pcaused traffic driver\n"
        "\n"
        "usage: loadgen mkdb --out FILE [--records N]\n"
        "       loadgen run  --db FILE --port P [--requests N]\n"
        "                    [--connections C] [--open-rps R]\n"
        "                    [--verify yes] [--min-rps R]\n"
        "                    [--json PATH]\n"
        "       loadgen ingest --port P [--records N] [--seed S]\n"
        "                    [--prefix STR] [--start I]\n"
        "                    [--deadline-ms N] [--acked-file PATH]\n"
        "       loadgen verify-ingest --port P --acked N [--seed S]\n"
        "                    [--prefix STR] [--start I]\n");
    return 2;
}

constexpr std::uint64_t querySeed = 0x6c6f616467656e31ull;

int
cmdMkdb(const Args &args)
{
    args.only("mkdb", {"out", "records"});
    const std::string out = args.get("out", "");
    if (out.empty())
        fatal("mkdb: need --out");
    serve::PopulationParams prm;
    prm.records = args.number<std::uint32_t>("records", 10000, 0);
    const FingerprintStore store = serve::buildPopulation(prm);
    if (!saveStore(store, out))
        fatal("mkdb: cannot write %s", out.c_str());
    std::printf("wrote %zu records to %s\n", store.size(),
                out.c_str());
    return 0;
}

int
cmdRun(const Args &args)
{
    args.only("run", {"db", "port", "requests", "connections", "open-rps",
                      "verify", "min-rps", "json"});
    const std::string db_path = args.get("db", "");
    const auto port = args.number<std::uint16_t>("port", 0, 0);
    if (db_path.empty() || port == 0)
        fatal("run: need --db and --port");
    const auto requests = args.number<std::size_t>("requests", 512, 0);
    const auto connections =
        args.number<std::size_t>("connections", 4, 0);
    const double open_rps = args.number("open-rps", 200.0, 0.0);
    const bool verify = args.yes("verify");
    const double min_rps = args.number("min-rps", 0.0, 0.0);
    const std::string json_path =
        args.get("json", "BENCH_serve.json");

    StoreLoadResult loaded = loadStore(db_path);
    if (!loaded)
        fatal("run: %s", loaded.error.c_str());
    FingerprintStore &store = *loaded;

    const std::vector<BitVec> queries =
        serve::buildQueries(store, requests, querySeed);
    const QueryOptions options;
    std::vector<IdentifyVerdict> expected;
    if (verify)
        expected = serve::directVerdicts(store, queries, options);

    std::vector<serve::TierResult> tiers;
    serve::TierSpec closed;
    closed.name = "closed-loop";
    closed.connections = connections;
    closed.requests = requests;
    tiers.push_back(serve::runTier(
        port, queries, verify ? &expected : nullptr, options, closed));
    serve::printTier(tiers.back());

    serve::TierSpec open;
    open.name = "open-loop";
    open.openLoop = true;
    open.connections = connections;
    open.requests = requests;
    open.targetRps = open_rps;
    tiers.push_back(serve::runTier(
        port, queries, verify ? &expected : nullptr, options, open));
    serve::printTier(tiers.back());

    bool ok = true;
    for (const serve::TierResult &r : tiers) {
        if (r.divergences > 0) {
            std::printf("FAIL: %zu served-verdict divergences in "
                        "tier %s\n", r.divergences, r.name.c_str());
            ok = false;
        }
        if (r.transportErrors > 0) {
            std::printf("FAIL: %zu transport errors in tier %s\n",
                        r.transportErrors, r.name.c_str());
            ok = false;
        }
        if (r.completed != r.requestsSent) {
            std::printf("FAIL: tier %s completed %zu of %zu\n",
                        r.name.c_str(), r.completed,
                        r.requestsSent);
            ok = false;
        }
    }
    if (min_rps > 0 && tiers[0].achievedRps < min_rps) {
        std::printf("FAIL: closed-loop %.1f rps below the %.1f "
                    "floor\n", tiers[0].achievedRps, min_rps);
        ok = false;
    }

    serve::writeBenchJson(json_path, tiers, store.size(),
                          ThreadPool::global().size(), ok);
    std::printf("%s (%s written)\n", ok ? "PASS" : "FAIL",
                json_path.c_str());
    return ok ? 0 : 1;
}

int
cmdIngest(const Args &args)
{
    args.only("ingest", {"port", "records", "seed", "prefix", "start",
                         "deadline-ms", "acked-file"});
    const auto port = args.number<std::uint16_t>("port", 0, 0);
    if (port == 0)
        fatal("ingest: need --port");

    serve::IngestSpec spec;
    spec.records = args.number<std::size_t>("records", 256, 0);
    spec.seed = args.number<std::uint64_t>("seed", 0x70636861, 0);
    spec.labelPrefix = args.get("prefix", "chaos-");
    spec.startIndex = args.number<std::size_t>("start", 0, 0);
    spec.deadlineMs = args.number("deadline-ms", 2000u, 0u);

    const serve::IngestResult res = serve::runIngest(port, spec);
    std::printf("ingest: acked %zu of %zu attempted%s%s%s\n",
                res.acked, res.attempted,
                res.serverDied ? " (server died)" : "",
                res.lastError.empty() ? "" : ": ",
                res.lastError.c_str());

    const std::string acked_file = args.get("acked-file", "");
    if (!acked_file.empty()) {
        std::ofstream f(acked_file);
        f << res.acked << "\n";
        if (!f)
            fatal("ingest: cannot write %s", acked_file.c_str());
    }
    return res.serverDied ? 3 : 0;
}

int
cmdVerifyIngest(const Args &args)
{
    args.only("verify-ingest", {"port", "acked", "seed", "prefix", "start"});
    const auto port = args.number<std::uint16_t>("port", 0, 0);
    const long acked = args.number<long>("acked", -1, 0);
    if (port == 0 || acked < 0)
        fatal("verify-ingest: need --port and --acked");

    const std::uint64_t seed =
        args.number<std::uint64_t>("seed", 0x70636861, 0);
    const std::string prefix = args.get("prefix", "chaos-");
    const std::size_t start = args.number<std::size_t>("start", 0, 0);

    serve::Client client;
    client.setDeadline(5000);
    serve::RetryPolicy policy;
    const std::string err = client.connect(port);
    if (!err.empty())
        fatal("verify-ingest: %s", err.c_str());

    std::size_t lost = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(acked);
         ++i) {
        const std::string label =
            prefix + std::to_string(start + i);
        IdentifyRequest req;
        req.errorString = serve::ingestPattern(seed, start + i);
        const std::optional<IdentifyVerdict> v =
            client.identifyWithRetry(req, policy);
        if (!v || !v->matched || v->label != label) {
            std::printf("LOST acked add %s (%s)\n", label.c_str(),
                        !v ? "no verdict"
                           : v->matched ? v->label.c_str()
                                        : "no match");
            ++lost;
        }
    }
    std::printf("verify-ingest: %zu of %ld acked adds present\n",
                static_cast<std::size_t>(acked) - lost, acked);
    return lost == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    const Args args = Args::parse(argc, argv, 2);
    if (cmd == "mkdb")
        return cmdMkdb(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "ingest")
        return cmdIngest(args);
    if (cmd == "verify-ingest")
        return cmdVerifyIngest(args);
    std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    return usage();
}
