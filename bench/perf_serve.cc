/**
 * @file
 * Serve-path performance and equivalence check.
 *
 * Starts an in-process pcaused Server over a 10k-record synthetic
 * population (the perf_index recipe), precomputes direct verdicts
 * for every query, and drives three traffic tiers through real
 * loopback sockets:
 *
 *   - closed-loop: connections send back-to-back, measuring the
 *     serve stack's peak throughput and service-time percentiles;
 *   - open-loop: requests paced at a fixed offered rate, latency
 *     measured from the *scheduled* send time so queueing delay
 *     counts (the honest tail-latency number);
 *   - backpressure: the in-flight identify cap set to zero so
 *     every identify is shed — BUSY replies must come back
 *     explicitly and no request may be silently dropped.
 *
 * Enforced gates (exit nonzero):
 *   - zero served-verdict divergences from direct store queries
 *     (accept/reject, label, and exact f64 distance bits) in the
 *     closed- and open-loop tiers;
 *   - zero transport errors and every request completed in those
 *     tiers;
 *   - closed-loop throughput at or above throughputFloor;
 *   - the backpressure tier sees at least one BUSY reply and
 *     accounts for every request as either completed or shed.
 *
 * Emits BENCH_serve.json (fields in docs/TESTING.md). The default
 * run doubles as the CI serve-perf gate; --full raises the
 * population and request counts to the nightly configuration.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/service.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace pcause;
using namespace pcause::serve;

/** Conservative floor: loopback closed-loop measured ~6700 rps on
 *  a 2k-record store on the dev machine; 300 leaves an order of
 *  magnitude of headroom for slow shared CI runners. */
constexpr double throughputFloor = 300.0;

struct Config
{
    std::size_t records = 10000;
    std::size_t closedRequests = 2048;
    std::size_t openRequests = 1024;
    double openRps = 400.0;
};

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            cfg.records = 100000;
            cfg.closedRequests = 8192;
            cfg.openRequests = 4096;
        }
    }

    std::printf("building %zu-record population...\n", cfg.records);
    PopulationParams pop;
    pop.records = cfg.records;
    FingerprintStore store = buildPopulation(pop);

    const std::size_t queryCount =
        std::max(cfg.closedRequests, cfg.openRequests);
    const std::vector<BitVec> queries =
        buildQueries(store, queryCount, 0x70657266736572ull);

    const QueryOptions options;
    std::printf("precomputing %zu direct verdicts...\n",
                queries.size());
    const std::vector<IdentifyVerdict> expected =
        directVerdicts(store, queries, options);

    AttackService svc(std::move(store));
    svc.setThreadPool(&ThreadPool::global());
    bool ok = true;
    std::vector<TierResult> tiers;

    {
        Server server(svc, {});

        TierSpec closed;
        closed.name = "closed-loop";
        closed.openLoop = false;
        closed.connections = 4;
        closed.requests = cfg.closedRequests;
        TierResult r =
            runTier(server.port(), queries, &expected, options,
                    closed);
        printTier(r);
        if (r.divergences || r.transportErrors ||
            r.completed != r.requestsSent) {
            std::printf("FAIL: closed-loop tier not clean\n");
            ok = false;
        }
        if (r.achievedRps < throughputFloor) {
            std::printf(
                "FAIL: closed-loop %.1f rps below the %.1f floor\n",
                r.achievedRps, throughputFloor);
            ok = false;
        }
        tiers.push_back(r);

        TierSpec open;
        open.name = "open-loop";
        open.openLoop = true;
        open.connections = 4;
        open.requests = cfg.openRequests;
        open.targetRps = cfg.openRps;
        r = runTier(server.port(), queries, &expected, options,
                    open);
        printTier(r);
        if (r.divergences || r.transportErrors ||
            r.completed != r.requestsSent) {
            std::printf("FAIL: open-loop tier not clean\n");
            ok = false;
        }
        tiers.push_back(r);

        server.requestStop();
        server.wait();
    }

    {
        // Backpressure tier: maxInFlight 0 sheds every identify, so
        // the gate is about accounting, not latency — each request
        // must come back BUSY (then count as shed), never vanish.
        ServerConfig scfg;
        scfg.maxInFlight = 0;
        Server server(svc, scfg);

        TierSpec pressure;
        pressure.name = "backpressure";
        pressure.openLoop = false;
        pressure.connections = 4;
        pressure.requests = 256;
        pressure.busyRetries = 2;
        TierResult r = runTier(server.port(), queries, nullptr,
                               options, pressure);
        printTier(r);
        if (r.busyReplies == 0) {
            std::printf("FAIL: backpressure tier saw no BUSY\n");
            ok = false;
        }
        if (r.completed + r.shed != r.requestsSent) {
            std::printf("FAIL: backpressure tier dropped "
                        "%zu requests silently\n",
                        r.requestsSent - r.completed - r.shed);
            ok = false;
        }
        if (r.transportErrors) {
            std::printf("FAIL: backpressure tier transport "
                        "errors\n");
            ok = false;
        }
        tiers.push_back(r);

        server.requestStop();
        server.wait();
    }

    writeBenchJson("BENCH_serve.json", tiers, cfg.records,
                   ThreadPool::global().size(), ok);
    std::printf("%s (BENCH_serve.json written)\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
