/**
 * @file
 * The flag parser of the pcause, pcaused and loadgen tools:
 * `--flag value` pairs and positional arguments, in any order, read
 * strictly. Each command names the flags it takes (only()); a number
 * must be the whole value and inside its flag's range; a yes/no flag
 * takes yes or no. Anything else is refused with a fatal() (exit 1)
 * that names the flag, before the command acts on it.
 */

#ifndef PCAUSE_TOOLS_ARGS_HH
#define PCAUSE_TOOLS_ARGS_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace pcause
{

/** One command line's flags and positionals. */
class Args
{
  public:
    /** The arguments from argv[@p first] on. */
    static Args parse(int argc, char **argv, int first)
    {
        Args args;
        for (int i = first; i < argc; ++i) {
            std::string tok = argv[i];
            if (tok.rfind("--", 0) == 0) {
                const std::string key = tok.substr(2);
                if (i + 1 >= argc)
                    fatal("missing value for --%s", key.c_str());
                args.flags[key] = argv[++i];
            } else {
                args.positional.push_back(std::move(tok));
            }
        }
        return args;
    }

    /** Refuse, as command @p who, any flag given but not in
     *  @p taken. */
    void only(const char *who,
              std::initializer_list<std::string_view> taken) const
    {
        for (const auto &flag : flags) {
            if (std::find(taken.begin(), taken.end(), flag.first) ==
                taken.end())
                fatal("%s takes no --%s", who, flag.first.c_str());
        }
    }

    /** The value of @p key, or @p fallback when it is not given. */
    std::string get(const std::string &key,
                    const std::string &fallback) const
    {
        const auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }

    /**
     * The number @p key holds, or @p fallback when it is not given:
     * the whole value must read as a T (finite, for a floating T) in
     * [@p lo, @p hi].
     */
    template <typename T>
    T number(const std::string &key, T fallback, T lo,
             T hi = std::numeric_limits<T>::max()) const
    {
        const auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        const std::string &text = it->second;
        T value{};
        const char *end = text.data() + text.size();
        const auto [stop, ec] = std::from_chars(text.data(), end, value);
        bool ok = ec == std::errc() && stop == end && value >= lo &&
                  value <= hi;
        if constexpr (std::is_floating_point_v<T>)
            ok = ok && std::isfinite(value);
        if (!ok)
            fatal("--%s %s: want a %s in [%s, %s]", key.c_str(),
                  text.c_str(),
                  std::is_floating_point_v<T> ? "finite number"
                                              : "whole number",
                  show(lo).c_str(), show(hi).c_str());
        return value;
    }

    /** Whether yes/no flag @p key says yes (no when not given). */
    bool yes(const std::string &key) const
    {
        const std::string value = get(key, "no");
        if (value != "yes" && value != "no")
            fatal("--%s %s: want yes or no", key.c_str(), value.c_str());
        return value == "yes";
    }

    /** The arguments that are not flags, in order. */
    std::vector<std::string> positional;

  private:
    template <typename T>
    static std::string show(T v)
    {
        if constexpr (std::is_floating_point_v<T>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%g", v);
            return buf;
        } else {
            return std::to_string(v);
        }
    }

    std::map<std::string, std::string> flags;
};

} // namespace pcause

#endif // PCAUSE_TOOLS_ARGS_HH
