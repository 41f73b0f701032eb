/**
 * @file
 * Measurement and reporting helpers shared by the benchmark
 * workloads: sample statistics, process counters, run metadata and
 * the one-line JSON result the benchmark ends with.
 */

#ifndef PCAUSE_PERFBENCH_REPORT_HH
#define PCAUSE_PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pcbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Nearest-rank percentile (0..100) of an unsorted sample; 0 when
 *  empty. */
double percentile(std::vector<double> values, double p);

double mean(const std::vector<double> &values);

/**
 * Closed-loop throughput that host preemption stalls cannot swing:
 * the completion times (seconds, any origin) are sorted and cut into
 * chunks of 16 consecutive completions, and the median chunk rate
 * (16 over the time the chunk spans) is returned. With too few
 * completions for one chunk, (n - 1) over the span, or 0.
 */
double chunkRate(std::vector<double> completions);

/** Process-wide counters from getrusage (all threads). */
struct ProcessSample
{
    double cpuSeconds = 0.0;       //!< user + system
    std::uint64_t ctxSwitches = 0; //!< voluntary + involuntary
    double maxRssMb = 0.0;         //!< peak resident set
};

ProcessSample sampleProcess();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric list rendered into the result line. */
class Metrics
{
  public:
    void add(std::string name, double value, std::string unit);
    const std::vector<Metric> &all() const { return items; }

  private:
    std::vector<Metric> items;
};

/** Operations attempted and failed across a run's checked phases. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Run metadata, printed as one "meta" JSON line before the result. */
class Meta
{
  public:
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, double value);
    void print() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields;
};

/** CPU brand string from CPUID ("unknown" elsewhere). */
std::string cpuModel();

/** Filesystem type of @p dir ("tmpfs", "ext4", ... or a hex magic). */
std::string fsTypeName(const std::string &dir);

/**
 * Print the final result line: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. Must be the last line the
 * process writes to stdout.
 */
void printResult(bool correct, const Tally &tally,
                 const Metrics &metrics);

/**
 * Value of numeric field @p key in a flat JSON object (the Stats and
 * Health payloads); @p fallback when absent.
 */
double jsonNumber(const std::string &json, const std::string &key,
                  double fallback = 0.0);

} // namespace pcbench

#endif // PCAUSE_PERFBENCH_REPORT_HH
