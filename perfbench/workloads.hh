/**
 * @file
 * The benchmark's workloads (see README.md for what each measures
 * and why).
 *
 * Served workloads (identify_known, identify_reject,
 * enroll_durable) open a prepared v3 population through
 * AttackService and drive an in-process serve::Server over loopback
 * with closed-loop clients. campaign_cluster feeds a core/campaign
 * fleet to an IndexedClusterer in process. Every workload checks
 * its outputs and reports the end-to-end metrics; with tracing on it
 * adds a traced replay and the per-layer metrics.
 */

#ifndef PCAUSE_PERFBENCH_WORKLOADS_HH
#define PCAUSE_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "report.hh"

namespace pcbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;

    /** Length of the measured phase. */
    double seconds = 10.0;

    /** Add the traced replay and report per-layer metrics. */
    bool trace = false;

    /** Journal, snapshot and scratch files (served workloads). */
    std::string dataDir;

    /** Prepared v3 population (served workloads). */
    std::string storePath;

    /** Span file written at the end of a traced run. */
    std::string traceOut;

    /** Population size the prepared store was built with. */
    std::size_t records = 100000;

    /** Fleet size of campaign_cluster. */
    std::size_t chips = 2000;

    /**
     * Self-test hook: "verdict" corrupts one expected served
     * verdict, "truth" one ground-truth chip label. Either must
     * surface as a failed operation.
     */
    std::string corrupt;
};

/** Set-ups per run; setup_s is their median. */
constexpr int setupReps = 3;

struct Outcome
{
    bool correct = true;
    Tally tally;
    Metrics endToEnd;
    Metrics perLayer;
};

/** identify_known, identify_reject, enroll. */
Outcome runServed(const Options &opt, Meta &meta);

/** campaign_cluster. */
Outcome runClustered(const Options &opt, Meta &meta);

/** Write the population a served run opens (not part of set-up). */
bool preparePopulation(std::uint64_t seed, std::size_t records,
                       const std::string &path);

} // namespace pcbench

#endif // PCAUSE_PERFBENCH_WORKLOADS_HH
