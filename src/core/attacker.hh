/**
 * @file
 * End-to-end attacker pipelines for both threat models (Section 3).
 *
 * SupplyChainAttacker models attacker (a): devices are intercepted
 * and fully characterized before deployment, so any later output is
 * attributable by a database lookup. EavesdropperAttacker models
 * attacker (b): only published approximate outputs are available,
 * and system-level fingerprints must be stitched together from
 * overlapping samples.
 */

#ifndef PCAUSE_CORE_ATTACKER_HH
#define PCAUSE_CORE_ATTACKER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/attack_stats.hh"
#include "core/cluster.hh"
#include "core/identify.hh"
#include "core/service.hh"
#include "core/stitcher.hh"
#include "core/store.hh"
#include "os/commodity_system.hh"
#include "platform/test_harness.hh"

namespace pcause
{

class ThreadPool;

/** Threat model (a): supply-chain interception. */
class SupplyChainAttacker
{
  public:
    explicit SupplyChainAttacker(const IdentifyParams &params = {});

    /**
     * Characterize an intercepted device: run @p num_outputs
     * worst-case trials across the given temperatures (the paper
     * intersects 3 outputs at 1% error and different temperatures)
     * and store the resulting fingerprint. A fingerprint the store
     * refuses (pcdb::recordError(), a second bit count) is a panic
     * naming the reason, as a zero @p num_outputs is.
     *
     * @return index of the new database record
     */
    std::size_t interceptChip(TestHarness &harness,
                              const std::string &label,
                              unsigned num_outputs = 3,
                              double accuracy = 0.99,
                              const std::vector<Celsius> &temps =
                              {40.0, 50.0, 60.0});

    /**
     * Use @p pool (not owned) for characterization and batch
     * attribution. With none set (null), characterization runs
     * serially and batch attribution uses the process-global pool.
     */
    void setThreadPool(ThreadPool *pool)
    {
        workers = pool;
        svc.setThreadPool(pool);
    }

    /**
     * Attribute a public approximate output to an intercepted chip.
     * Runs through the store's candidate index: sublinear on a hit,
     * full-scan fallback otherwise, with accept/reject decisions
     * equal to the linear Algorithm 2.
     */
    IdentifyResult attribute(const BitVec &approx,
                             const BitVec &exact) const;

    /**
     * Attribute many outputs of one exact value in a single batch:
     * queries spread across the thread pool, each elementwise equal
     * to the corresponding attribute() call.
     */
    std::vector<IdentifyResult>
    attributeBatch(const std::vector<BitVec> &approx_outputs,
                   const BitVec &exact) const;

    /**
     * Elementwise batch attribution: @p approx_outputs and
     * @p exact_values pair up, mirroring the other batch APIs'
     * unified `const std::vector<...>&` shape.
     */
    std::vector<IdentifyResult>
    attributeBatch(const std::vector<BitVec> &approx_outputs,
                   const std::vector<BitVec> &exact_values) const;

    /**
     * Attribute an output of real (non-worst-case) data: masks the
     * database fingerprints down to the cells the data charged
     * (see identifyWithData()).
     */
    IdentifyResult attributeWithData(const BitVec &approx,
                                     const BitVec &exact,
                                     const DramConfig &config) const;

    /** Label of database record @p index. */
    const std::string &label(std::size_t index) const;

    /** The identification facade every attribution flows through. */
    const AttackService &service() const { return svc; }

    /** The indexed fingerprint store backing this attacker. */
    const FingerprintStore &store() const { return *svc.store(); }

    /** Session counters and per-phase wall time (characterization
     *  time plus the facade's query counters, merged). */
    const AttackStats &stats() const;

  private:
    IdentifyParams prm;

    /** The AttackService facade over an in-memory store: every
     *  attribute* call is a facade query, so attacker verdicts are
     *  the served ones by construction. */
    AttackService svc;

    std::uint64_t trialCounter = 0;
    ThreadPool *workers = nullptr;

    /** Measurements, not attack state: const paths update them. */
    mutable AttackStats counters;

    /** stats() return slot: counters + svc.snapshot() merged. */
    mutable AttackStats merged;
};

/** Threat model (b): post-deployment eavesdropping. */
class EavesdropperAttacker
{
  public:
    explicit EavesdropperAttacker(const StitchParams &params = {},
                                  const ClusterParams &cluster_params =
                                  {});

    /**
     * Use @p pool (not owned) to parallelize the page-probing phase
     * of ingest and matching, batch truncation, and error-string
     * sketching. With none set (null), probing and truncation run
     * serially and the sketching runs on the process-global pool
     * (IndexedClusterer::setThreadPool()).
     */
    void setThreadPool(ThreadPool *pool);

    /**
     * Ingest one captured approximate output. Returns the
     * system-level fingerprint (cluster) it was folded into.
     */
    std::size_t observe(const ApproximateSample &sample);

    /**
     * Ingest a batch of captured outputs, equivalent to observing
     * each in order but with per-page truncation and page probing
     * parallelized (Stitcher::addSamples). Returns the cluster id
     * per sample.
     */
    std::vector<std::size_t>
    observeBatch(const std::vector<ApproximateSample> &samples);

    /**
     * Ingest one whole-output error string into the Algorithm 4
     * campaign clusterer (the indexed path — sublinear in the
     * number of suspected chips). Returns its cluster index.
     */
    std::size_t observeErrorString(const BitVec &error_string);

    /**
     * Streaming batch of observeErrorString(), with sketches
     * precomputed across the thread pool; assignments equal serial
     * ingestion in order.
     */
    std::vector<std::size_t>
    observeErrorStrings(const std::vector<BitVec> &error_strings);

    /**
     * Attribute a fresh output to an already-stitched system
     * without ingesting it.
     */
    std::optional<std::size_t>
    attribute(const ApproximateSample &sample) const;

    /**
     * Batch attribution, elementwise equal to attribute() on each
     * sample; each sample's page probing runs across the thread
     * pool, and identify wall time reports through stats().
     */
    std::vector<std::optional<std::size_t>>
    attributeBatch(const std::vector<ApproximateSample> &samples) const;

    /** Current number of suspected distinct machines (Figure 13). */
    std::size_t suspectedMachines() const;

    /** Underlying stitcher (for statistics and inspection). */
    const Stitcher &stitcher() const { return stitch; }

    /** The campaign clusterer behind observeErrorString*(). */
    const IndexedClusterer &clusterer() const { return whole; }

    /** Discovered per-chip fingerprints of the error-string
     *  campaign, as an identification database. */
    FingerprintDb clusterDatabase() const { return whole.toDatabase(); }

    /** Session counters and per-phase wall time. */
    const AttackStats &stats() const { return counters; }

  private:
    Stitcher stitch;

    /** Whole-output campaign clustering (paper Algorithm 4). */
    IndexedClusterer whole;

    /** Measurements, not attack state: const paths update them. */
    mutable AttackStats counters;
};

} // namespace pcause

#endif // PCAUSE_CORE_ATTACKER_HH
