#include "core/attacker.hh"

#include <chrono>

#include "core/characterize.hh"
#include "core/error_string.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pcause
{

namespace
{

/** Seconds elapsed since @p start. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
}

} // anonymous namespace

namespace
{

/** The QueryOptions an attacker's IdentifyParams denote. */
QueryOptions
optionsFor(const IdentifyParams &prm)
{
    QueryOptions o;
    o.threshold = prm.threshold;
    o.metric = prm.metric;
    o.firstMatch = prm.firstMatch;
    return o;
}

/** Strip a facade verdict back to the raw result shape. */
IdentifyResult
resultOf(const IdentifyVerdict &v)
{
    IdentifyResult r;
    r.match = v.record;
    r.bestDistance = v.distance;
    r.nearest = v.nearest;
    return r;
}

} // anonymous namespace

SupplyChainAttacker::SupplyChainAttacker(const IdentifyParams &params)
    : prm(params), svc(FingerprintStore{})
{
}

std::size_t
SupplyChainAttacker::interceptChip(TestHarness &harness,
                                   const std::string &label,
                                   unsigned num_outputs, double accuracy,
                                   const std::vector<Celsius> &temps)
{
    PC_ASSERT(num_outputs > 0 && !temps.empty(),
              "interceptChip: need outputs and temperatures");

    std::vector<BitVec> outputs;
    outputs.reserve(num_outputs);
    const BitVec exact = harness.chip().worstCasePattern();
    for (unsigned i = 0; i < num_outputs; ++i) {
        TrialSpec spec;
        spec.accuracy = accuracy;
        spec.temp = temps[i % temps.size()];
        spec.trialKey = ++trialCounter;
        outputs.push_back(harness.runWorstCaseTrial(spec).approx);
    }
    const auto start = std::chrono::steady_clock::now();
    Fingerprint fp = workers ? characterize(outputs, exact, *workers)
                             : characterize(outputs, exact);
    counters.characterizeSeconds += secondsSince(start);
    const AttackService::AddOutcome added =
        svc.addRecord(label, std::move(fp));
    if (!added.added)
        panic("interceptChip: %s", added.error.c_str());
    return added.record;
}

IdentifyResult
SupplyChainAttacker::attribute(const BitVec &approx,
                               const BitVec &exact) const
{
    IdentifyRequest req;
    req.errorString = errorString(approx, exact);
    req.options = optionsFor(prm);
    return resultOf(svc.identify(req));
}

std::vector<IdentifyResult>
SupplyChainAttacker::attributeBatch(
    const std::vector<BitVec> &approx_outputs,
    const BitVec &exact) const
{
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    std::vector<BitVec> error_strings(approx_outputs.size());
    pool.parallelFor(0, approx_outputs.size(), [&](std::size_t i) {
        error_strings[i] = errorString(approx_outputs[i], exact);
    });
    std::vector<IdentifyResult> results;
    results.reserve(error_strings.size());
    for (const IdentifyVerdict &v :
         svc.identifyBatch(error_strings, optionsFor(prm)))
        results.push_back(resultOf(v));
    return results;
}

std::vector<IdentifyResult>
SupplyChainAttacker::attributeBatch(
    const std::vector<BitVec> &approx_outputs,
    const std::vector<BitVec> &exact_values) const
{
    PC_ASSERT(approx_outputs.size() == exact_values.size(),
              "attributeBatch: output/exact count mismatch");
    ThreadPool &pool = workers ? *workers : ThreadPool::global();
    std::vector<BitVec> error_strings(approx_outputs.size());
    pool.parallelFor(0, approx_outputs.size(), [&](std::size_t i) {
        error_strings[i] =
            errorString(approx_outputs[i], exact_values[i]);
    });
    std::vector<IdentifyResult> results;
    results.reserve(error_strings.size());
    for (const IdentifyVerdict &v :
         svc.identifyBatch(error_strings, optionsFor(prm)))
        results.push_back(resultOf(v));
    return results;
}

IdentifyResult
SupplyChainAttacker::attributeWithData(const BitVec &approx,
                                       const BitVec &exact,
                                       const DramConfig &config) const
{
    return identifyWithData(approx, exact, config,
                            store().sparseFingerprints(), prm);
}

const std::string &
SupplyChainAttacker::label(std::size_t index) const
{
    return store().label(index);
}

const AttackStats &
SupplyChainAttacker::stats() const
{
    // Characterization time lives in this object's counters; query
    // counters accumulate inside the facade. Merge on read.
    merged = counters;
    merged += svc.snapshot();
    return merged;
}

EavesdropperAttacker::EavesdropperAttacker(
    const StitchParams &params, const ClusterParams &cluster_params)
    : stitch(params), whole(cluster_params)
{
}

void
EavesdropperAttacker::setThreadPool(ThreadPool *pool)
{
    stitch.setThreadPool(pool);
    whole.setThreadPool(pool);
}

std::size_t
EavesdropperAttacker::observe(const ApproximateSample &sample)
{
    const auto start = std::chrono::steady_clock::now();
    const std::size_t id = stitch.addSample(sample.pageErrors);
    counters.ingestSeconds += secondsSince(start);
    counters.pagesProbed = stitch.stats().pagesProbed;
    return id;
}

std::vector<std::size_t>
EavesdropperAttacker::observeBatch(
    const std::vector<ApproximateSample> &samples)
{
    const auto start = std::chrono::steady_clock::now();
    // Borrow the page vectors rather than copying samples into the
    // vector-of-vectors shape: the stitcher's batch path truncates
    // into its own storage anyway.
    std::vector<const std::vector<SparseBitset> *> borrowed;
    borrowed.reserve(samples.size());
    for (const auto &s : samples)
        borrowed.push_back(&s.pageErrors);
    std::vector<std::size_t> ids = stitch.addSamples(borrowed);
    counters.ingestSeconds += secondsSince(start);
    counters.pagesProbed = stitch.stats().pagesProbed;
    return ids;
}

std::size_t
EavesdropperAttacker::observeErrorString(const BitVec &error_string)
{
    const auto start = std::chrono::steady_clock::now();
    const std::size_t id = whole.addErrorString(error_string);
    counters.ingestSeconds += secondsSince(start);
    return id;
}

std::vector<std::size_t>
EavesdropperAttacker::observeErrorStrings(
    const std::vector<BitVec> &error_strings)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::size_t> ids = whole.addBatch(error_strings);
    counters.ingestSeconds += secondsSince(start);
    return ids;
}

std::optional<std::size_t>
EavesdropperAttacker::attribute(const ApproximateSample &sample) const
{
    const auto start = std::chrono::steady_clock::now();
    const auto match = stitch.matchSample(sample.pageErrors);
    counters.identifySeconds += secondsSince(start);
    return match;
}

std::vector<std::optional<std::size_t>>
EavesdropperAttacker::attributeBatch(
    const std::vector<ApproximateSample> &samples) const
{
    // The Stitcher is externally synchronized, so samples are
    // matched one at a time; each match's page probing fans out
    // across the stitcher's pool internally.
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::optional<std::size_t>> matches;
    matches.reserve(samples.size());
    for (const auto &s : samples)
        matches.push_back(stitch.matchSample(s.pageErrors));
    counters.identifySeconds += secondsSince(start);
    return matches;
}

std::size_t
EavesdropperAttacker::suspectedMachines() const
{
    return stitch.numSuspectedChips();
}

} // namespace pcause
