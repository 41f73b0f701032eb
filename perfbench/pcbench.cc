/**
 * @file
 * pcbench: the repository benchmark's binary.
 *
 *   pcbench prepare --seed N --records N --out FILE
 *       Write the seeded v3 population the served workloads open.
 *   pcbench run --workload NAME --seed N --seconds S --trace 0|1
 *               [--data-dir DIR] [--store FILE] [--trace-out FILE]
 *               [--records N] [--chips N]
 *               [--corrupt verdict|truth] [--commit ID]
 *       Run one workload, check its outputs, and print the result
 *       line (last line of stdout). Exit 1 when a check fails.
 *
 * perfbench/run.py builds this binary and runs prepare + run the way
 * BENCHMARK.json's command does; see README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "util/simd.hh"
#include "workloads.hh"

namespace
{

using namespace pcbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "pcbench: %s\n"
                 "usage: pcbench prepare --seed N --records N --out FILE\n"
                 "       pcbench run --workload NAME --seed N "
                 "--seconds S --trace 0|1 [options]\n",
                 why);
    return 2;
}

bool
parseSize(const char *text, std::size_t &out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        return false;
    out = static_cast<std::size_t>(v);
    return true;
}

/** The workloads of BENCHMARK.json. */
bool
knownWorkload(const std::string &name)
{
    return name == "identify_known" || name == "identify_reject" ||
           name == "enroll" || name == "campaign_cluster";
}

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/**
 * Every workload prints every per-layer metric, in this order (the
 * per_layer list of BENCHMARK.json); a layer the workload does not
 * call reads 0.
 */
void
emitLayers(const Metrics &got, Metrics &out)
{
    static const LayerMetric table[] = {
        {"throughput.ops_per_s", "1/s"},
        {"serve.overhead_ms", "ms"},
        {"serve.batch_size", "count"},
        {"serve.identify_p50_ms", "ms"},
        {"serve.identify_ops_per_s", "1/s"},
        {"serve.identify_p90_ms", "ms"},
        {"serve.identify_p99_ms", "ms"},
        {"serve.identify_p999_ms", "ms"},
        {"serve.identify_samples", "count"},
        {"serve.busy_replies", "count"},
        {"serve.transport_errors", "count"},
        {"serve.divergences", "count"},
        {"process.cpu_ms_per_op", "ms"},
        {"process.ctx_switches_per_op", "count"},
        {"service.identify_ms", "ms"},
        {"service.add_ms", "ms"},
        {"minhash.sketch_us", "us"},
        {"minhash.probe_us", "us"},
        {"minhash.candidates_per_query", "count"},
        {"store.query_ms", "ms"},
        {"store.fallback_fraction", "fraction"},
        {"store.fallback_ns_per_record", "ns"},
        {"store.pruned_fraction", "fraction"},
        {"characterize.us_per_chip", "us"},
        {"wal.append_us", "us"},
        {"wal.durable_add_ms", "ms"},
        {"wal.checkpoints", "count"},
        {"wal.checkpoint_s", "s"},
        {"wal.bytes_written_per_add", "B"},
        {"cluster.sign_us", "us"},
        {"cluster.candidates_per_output", "count"},
        {"cluster.resigns_per_output", "count"},
        {"cluster.fallback_scans", "count"},
        {"cluster.purity", "fraction"},
        {"cluster.ari", "fraction"},
        {"trace.overhead_pct", "%"},
    };
    for (const LayerMetric &lm : table) {
        double value = 0.0;
        for (const Metric &m : got.all()) {
            if (m.name == lm.name)
                value = m.value;
        }
        out.add(lm.name, value, lm.unit);
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage("missing command");
    const std::string command = argv[1];

    Options opt;
    std::string out;
    std::string commit = "unknown";
    bool have_seed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        std::size_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed" && parseSize(value, n)) {
            opt.seed = n;
            have_seed = true;
        } else if (flag == "--seconds") {
            opt.seconds = std::atof(value);
        } else if (flag == "--trace" && parseSize(value, n) && n <= 1) {
            opt.trace = n == 1;
        } else if (flag == "--data-dir") {
            opt.dataDir = value;
        } else if (flag == "--store") {
            opt.storePath = value;
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else if (flag == "--records" && parseSize(value, n) && n > 0) {
            opt.records = n;
        } else if (flag == "--chips" && parseSize(value, n) && n > 0) {
            opt.chips = n;
        } else if (flag == "--corrupt") {
            opt.corrupt = value;
        } else if (flag == "--commit") {
            commit = value;
        } else if (flag == "--out") {
            out = value;
        } else {
            return usage(("bad option " + flag).c_str());
        }
    }
    if (!have_seed)
        return usage("--seed is required");

    if (command == "prepare") {
        if (out.empty())
            return usage("prepare needs --out");
        if (!preparePopulation(opt.seed, opt.records, out)) {
            std::fprintf(stderr, "pcbench: cannot write %s\n",
                         out.c_str());
            return 1;
        }
        return 0;
    }
    if (command != "run")
        return usage("unknown command");
    if (!knownWorkload(opt.workload))
        return usage("unknown workload");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");
    if (!opt.corrupt.empty() && opt.corrupt != "verdict" &&
        opt.corrupt != "truth")
        return usage("--corrupt takes verdict or truth");

    const bool clustered = opt.workload == "campaign_cluster";
    if (!clustered && (opt.storePath.empty() || opt.dataDir.empty()))
        return usage("served workloads need --store and --data-dir");

    Meta meta;
    meta.set("workload", opt.workload);
    meta.set("seed", static_cast<double>(opt.seed));
    meta.set("seconds", opt.seconds);
    meta.set("trace", opt.trace ? 1.0 : 0.0);
    meta.set("commit", commit);
    meta.set("cpu", cpuModel());
    meta.set("nproc",
             static_cast<double>(std::thread::hardware_concurrency()));
    meta.set("simd", pcause::simd::levelName(
                         pcause::simd::activeLevel()));
    meta.set("build_type", PCBENCH_BUILD_TYPE);

    const Outcome res = clustered ? runClustered(opt, meta)
                                  : runServed(opt, meta);
    meta.print();

    Metrics shown;
    if (opt.trace)
        emitLayers(res.perLayer, shown);
    else
        shown = res.endToEnd;
    for (const Metric &m : res.endToEnd.all())
        std::printf("e2e %-28s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (opt.trace) {
        for (const Metric &m : shown.all())
            std::printf("layer %-26s %14.6f %s\n", m.name.c_str(),
                        m.value, m.unit.c_str());
    }
    std::printf("operations: %llu attempted, %llu failed%s\n",
                static_cast<unsigned long long>(res.tally.attempted),
                static_cast<unsigned long long>(res.tally.failed),
                res.correct ? "" : " -- CHECK FAILED");
    printResult(res.correct, res.tally, shown);
    return res.correct ? 0 : 1;
}
