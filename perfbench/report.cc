#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/resource.h>
#include <sys/statfs.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace pcbench
{

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size());
    std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
    idx = idx > 0 ? idx - 1 : 0;
    return values[std::min(idx, values.size() - 1)];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
chunkRate(std::vector<double> completions)
{
    constexpr std::size_t rateChunk = 16;
    std::sort(completions.begin(), completions.end());
    const std::size_t n = completions.size();
    if (n <= rateChunk) {
        const double span = n >= 2 ? completions.back() - completions[0]
                                   : 0.0;
        return span > 0.0 ? static_cast<double>(n - 1) / span : 0.0;
    }
    std::vector<double> rates;
    for (std::size_t i = 0; i + rateChunk < n; i += rateChunk) {
        const double span = completions[i + rateChunk] - completions[i];
        if (span > 0.0)
            rates.push_back(static_cast<double>(rateChunk) / span);
    }
    return percentile(rates, 50.0);
}

ProcessSample
sampleProcess()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    ProcessSample s;
    s.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
                   static_cast<double>(ru.ru_utime.tv_usec) * 1e-6 +
                   static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    s.ctxSwitches = static_cast<std::uint64_t>(ru.ru_nvcsw) +
                    static_cast<std::uint64_t>(ru.ru_nivcsw);
    s.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return s;
}

void
Metrics::add(std::string name, double value, std::string unit)
{
    items.push_back({std::move(name), value, std::move(unit)});
}

namespace
{

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // anonymous namespace

void
Meta::set(const std::string &key, const std::string &value)
{
    fields.emplace_back(key, jsonString(value));
}

void
Meta::set(const std::string &key, double value)
{
    fields.emplace_back(key, number(value));
}

void
Meta::print() const
{
    std::string line = "meta {";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        line += (i ? ", " : "") + jsonString(fields[i].first) + ": " +
                fields[i].second;
    }
    line += "}";
    std::printf("%s\n", line.c_str());
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

std::string
fsTypeName(const std::string &dir)
{
    struct statfs st{};
    if (::statfs(dir.c_str(), &st) != 0)
        return "unknown";
    const auto magic = static_cast<unsigned long>(st.f_type);
    switch (magic) {
      case 0x01021994ul: return "tmpfs";
      case 0x858458f6ul: return "ramfs";
      case 0xef53ul: return "ext4";
      case 0x58465342ul: return "xfs";
      case 0x9123683eul: return "btrfs";
      case 0x794c7630ul: return "overlayfs";
      case 0x6969ul: return "nfs";
      default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%lx", magic);
    return buf;
}

void
printResult(bool correct, const Tally &tally, const Metrics &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(tally.attempted);
    line += ", \"failed\": " + std::to_string(tally.failed);
    line += ", \"metrics\": {";
    const auto &all = metrics.all();
    for (std::size_t i = 0; i < all.size(); ++i) {
        line += (i ? ", " : "") + jsonString(all[i].name) +
                ": {\"value\": " + number(all[i].value) +
                ", \"unit\": " + jsonString(all[i].unit) + "}";
    }
    line += "}}";
    std::fflush(stdout);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

double
jsonNumber(const std::string &json, const std::string &key,
           double fallback)
{
    const std::string needle = "\"" + key + "\":";
    const auto at = json.find(needle);
    if (at == std::string::npos)
        return fallback;
    const char *start = json.c_str() + at + needle.size();
    char *end = nullptr;
    const double v = std::strtod(start, &end);
    return end == start ? fallback : v;
}

} // namespace pcbench
