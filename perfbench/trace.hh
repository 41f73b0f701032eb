/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is one timed call the benchmark makes into a layer: name,
 * start, end, the span that caused it (its parent, the next-outer
 * layer's span for the same request) and the request id every span
 * of one request shares. The benchmark calls each layer from outside,
 * one after another, so spans of one request do not overlap in time;
 * nesting is logical, and a layer's self time is its span minus its
 * children's spans for the same request.
 *
 * Spans stay in per-thread lanes while the run records and are
 * written out once, after the run. Untraced runs create no Tracer.
 */

#ifndef PCAUSE_PERFBENCH_TRACE_HH
#define PCAUSE_PERFBENCH_TRACE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "report.hh"

namespace pcbench
{

struct Span
{
    const char *name = "";
    const char *parent = nullptr; //!< null for the outermost span
    std::uint64_t request = 0;
    double startUs = 0.0; //!< from the tracer origin
    double endUs = 0.0;

    double us() const { return endUs - startUs; }
};

/** Per-name aggregate over the requests that were traced end to end
 *  (every span of the request has its children recorded). */
struct SpanSummary
{
    std::size_t count = 0;
    double meanUs = 0.0;     //!< mean span duration
    double meanSelfUs = 0.0; //!< mean duration minus children
};

class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin(origin) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Spans recorded by one thread. */
    class Lane
    {
      public:
        explicit Lane(Clock::time_point origin) : origin(origin) {}

        void record(const char *name, const char *parent,
                    std::uint64_t request, Clock::time_point start,
                    Clock::time_point end);

      private:
        friend class Tracer;
        Clock::time_point origin;
        std::vector<Span> spans;
    };

    /** A new lane for the calling thread; valid while the tracer
     *  lives. */
    Lane &lane();

    /** Every span recorded so far, all lanes. */
    std::vector<Span> spans() const;

    /**
     * Duration and self time per span name, over the requests whose
     * outermost span has at least one child recorded (so a request
     * that was only timed at the client does not read as all self
     * time).
     */
    std::map<std::string, SpanSummary> summarize() const;

    /** Print summarize() as one "span" line per name. */
    void printSummary() const;

    /** Write every span as one JSON line; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin;
    mutable std::mutex m;
    std::deque<Lane> lanes;
};

} // namespace pcbench

#endif // PCAUSE_PERFBENCH_TRACE_HH
