/**
 * @file
 * Output-to-chip identification (paper Algorithm 2).
 *
 * Given a database of known fingerprints, identify which chip
 * produced an approximate output by comparing its error string
 * against each fingerprint with the Algorithm 3 distance and a
 * calibrated threshold. Includes the threshold-calibration helper
 * the paper alludes to ("Section 7 discusses how we experimentally
 * determine this threshold").
 *
 * This is the paper-literal, dense, unbounded reference: the oracle
 * the indexed and sparse scans (FingerprintStore, MappedStore, both
 * built on core/scan) are tested against. Serving code goes through
 * AttackService (core/service.hh).
 */

#ifndef PCAUSE_CORE_IDENTIFY_HH
#define PCAUSE_CORE_IDENTIFY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/distance.hh"
#include "core/fingerprint.hh"
#include "dram/dram_config.hh"
#include "util/bitvec.hh"

namespace pcause
{

/** Identity attached to a fingerprint in the database. */
using ChipLabel = std::string;

/** One database entry. */
struct FingerprintRecord
{
    ChipLabel label;
    Fingerprint fingerprint;
};

/** Attacker-side store of known system-level fingerprints. */
class FingerprintDb
{
  public:
    /** Add a record; returns its index. */
    std::size_t add(ChipLabel label, Fingerprint fp);

    /** Number of records. */
    std::size_t size() const { return records.size(); }

    /** Record @p i. */
    const FingerprintRecord &record(std::size_t i) const;

    /** Mutable record @p i (for online augmentation). */
    FingerprintRecord &record(std::size_t i);

  private:
    std::vector<FingerprintRecord> records;
};

/** Outcome of one identification. */
struct IdentifyResult
{
    /** Matched record index; nullopt when no distance beat the
     *  threshold (Algorithm 2's "failed"). */
    std::optional<std::size_t> match;

    /** Distance to the matched (or nearest) fingerprint. */
    double bestDistance = 1.0;

    /** Index of the nearest fingerprint even on failure. */
    std::optional<std::size_t> nearest;
};

/** Tunables for identification. */
struct IdentifyParams
{
    /** Match threshold on the Algorithm 3 distance. The paper's
     *  within-class distances sit below ~1e-3 and between-class
     *  above ~0.75; 0.1 splits them with two decades of margin. */
    double threshold = 0.1;

    /** Distance metric (ablation knob; the paper uses
     *  ModifiedJaccard). */
    DistanceMetric metric = DistanceMetric::ModifiedJaccard;

    /**
     * When true, return the first record under threshold (the
     * paper's literal Algorithm 2); when false, return the best
     * record under threshold (a stricter variant used to measure
     * how close the second-best match comes).
     */
    bool firstMatch = true;
};

/**
 * Algorithm 2 (IDENTIFY): attribute an approximate output to a
 * known chip.
 *
 * @param approx  the approximate output
 * @param exact   its exact counterpart
 * @param db      known system-level fingerprints
 * @param params  threshold and metric
 */
IdentifyResult identify(const BitVec &approx, const BitVec &exact,
                        const FingerprintDb &db,
                        const IdentifyParams &params = {});

/** Identify from a precomputed error string. */
IdentifyResult identifyErrorString(const BitVec &error_string,
                                   const FingerprintDb &db,
                                   const IdentifyParams &params = {});

/**
 * Data-aware identification: with real (non-worst-case) data only
 * cells written opposite their default value can decay, so a plain
 * comparison under-counts fingerprint hits. This variant masks
 * every database fingerprint down to the cells the published data
 * actually charged (the attacker knows the exact data — they
 * recomputed it for the error string) before measuring distance.
 *
 * @param approx  the approximate output
 * @param exact   its exact counterpart
 * @param config  device layout determining default values
 * @param db      known system-level fingerprints
 * @param params  threshold and metric
 */
IdentifyResult identifyWithData(const BitVec &approx,
                                const BitVec &exact,
                                const DramConfig &config,
                                const FingerprintDb &db,
                                const IdentifyParams &params = {});

/**
 * identifyWithData() over sparse fingerprints (a store's position
 * arena): each masked distance is derived from the masked weight and
 * its overlap with the error string through overlapDistance(), so
 * verdicts and distances equal the dense overload's on the same
 * records bit for bit.
 */
IdentifyResult identifyWithData(const BitVec &approx,
                                const BitVec &exact,
                                const DramConfig &config,
                                const SparseFingerprintSource &fps,
                                const IdentifyParams &params = {});

/**
 * Experimentally calibrate the identification threshold from
 * labeled distances: place it at the geometric midpoint between the
 * largest within-class and smallest between-class distance.
 *
 * When the classes overlap (no threshold separates them cleanly —
 * e.g. under a strong noise defense), no fatal error is raised:
 * a warning is logged and the threshold minimizing the number of
 * misclassified pooled samples (missed within-class matches plus
 * spurious between-class matches) is returned, so downstream
 * evaluation degrades gracefully instead of dying.
 */
double calibrateThreshold(const std::vector<double> &within_class,
                          const std::vector<double> &between_class);

} // namespace pcause

#endif // PCAUSE_CORE_IDENTIFY_HH
