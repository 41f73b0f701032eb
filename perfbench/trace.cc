#include "trace.hh"

#include <cstdio>
#include <set>
#include <utility>

namespace pcbench
{

void
Tracer::Lane::record(const char *name, const char *parent,
                     std::uint64_t request, Clock::time_point start,
                     Clock::time_point end)
{
    spans.push_back({name, parent, request,
                     secondsBetween(origin, start) * 1e6,
                     secondsBetween(origin, end) * 1e6});
}

Tracer::Lane &
Tracer::lane()
{
    std::lock_guard<std::mutex> lock(m);
    return lanes.emplace_back(origin);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(m);
    std::vector<Span> all;
    for (const Lane &l : lanes)
        all.insert(all.end(), l.spans.begin(), l.spans.end());
    return all;
}

std::map<std::string, SpanSummary>
Tracer::summarize() const
{
    const std::vector<Span> all = spans();

    // Children time per (request, parent name), and the requests
    // whose spans go deeper than the outermost call.
    std::map<std::pair<std::uint64_t, std::string>, double> childUs;
    std::set<std::uint64_t> deep;
    for (const Span &s : all) {
        if (s.parent) {
            childUs[{s.request, s.parent}] += s.us();
            deep.insert(s.request);
        }
    }

    std::map<std::string, SpanSummary> out;
    for (const Span &s : all) {
        if (!deep.count(s.request))
            continue;
        SpanSummary &sum = out[s.name];
        const auto it = childUs.find({s.request, s.name});
        const double self =
            s.us() - (it == childUs.end() ? 0.0 : it->second);
        ++sum.count;
        sum.meanUs += s.us();
        sum.meanSelfUs += self;
    }
    for (auto &[name, sum] : out) {
        sum.meanUs /= static_cast<double>(sum.count);
        sum.meanSelfUs /= static_cast<double>(sum.count);
    }
    return out;
}

void
Tracer::printSummary() const
{
    for (const auto &[name, sum] : summarize()) {
        std::printf("span %-20s %8zu calls, mean %11.3f us, "
                    "self %11.3f us\n",
                    name.c_str(), sum.count, sum.meanUs, sum.meanSelfUs);
    }
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans()) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"parent\": %s%s%s, "
                     "\"request\": %llu, \"start_us\": %.3f, "
                     "\"end_us\": %.3f}\n",
                     s.name, s.parent ? "\"" : "",
                     s.parent ? s.parent : "null",
                     s.parent ? "\"" : "",
                     static_cast<unsigned long long>(s.request),
                     s.startUs, s.endUs);
    }
    return std::fclose(f) == 0;
}

} // namespace pcbench
