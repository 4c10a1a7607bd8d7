#include "common/strutil.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "common/types.hh"

namespace dlw
{

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::size_t
splitFields(std::string_view s, char delim, std::string_view *out,
            std::size_t cap)
{
    std::size_t n = 0;
    for (;;) {
        const std::size_t pos = s.find(delim);
        if (n < cap)
            out[n] = s.substr(0, pos);
        ++n;
        if (pos == std::string_view::npos)
            return n;
        s.remove_prefix(pos + 1);
    }
}

namespace
{

/** std::isspace in the "C" locale, inlined for the field scanners. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Parse all of trimView(s) as an integer of type T. */
template <typename T>
bool
parseWholeInteger(std::string_view s, T &out)
{
    const std::string_view t = trimView(s);
    T v = 0;
    auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || p != t.data() + t.size())
        return false;
    out = v;
    return true;
}

} // anonymous namespace

std::string
trim(std::string_view s)
{
    return std::string(trimView(s));
}

std::string_view
trimView(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

std::string
formatDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
formatBytes(double bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
    int u = 0;
    double v = bytes;
    while (std::fabs(v) >= 1024.0 && u < 5) {
        v /= 1024.0;
        ++u;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
    return buf;
}

std::string
formatDuration(std::int64_t ticks)
{
    char buf[64];
    double t = static_cast<double>(ticks);
    if (ticks < kUsec) {
        std::snprintf(buf, sizeof(buf), "%lld ns",
                      static_cast<long long>(ticks));
    } else if (ticks < kMsec) {
        std::snprintf(buf, sizeof(buf), "%.2f us", t / kUsec);
    } else if (ticks < kSec) {
        std::snprintf(buf, sizeof(buf), "%.2f ms", t / kMsec);
    } else if (ticks < kHour) {
        std::snprintf(buf, sizeof(buf), "%.2f s", t / kSec);
    } else if (ticks < kDay) {
        std::snprintf(buf, sizeof(buf), "%.2f h", t / kHour);
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f d", t / kDay);
    }
    return buf;
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

double
parseDouble(std::string_view s, std::string_view what)
{
    if (trim(s).empty())
        dlw_fatal("empty field while parsing ", what);
    double v = 0.0;
    if (!tryParseDouble(s, v)) {
        dlw_fatal("malformed number '", trim(s), "' while parsing ",
                  what);
    }
    return v;
}

std::int64_t
parseInt(std::string_view s, std::string_view what)
{
    if (trim(s).empty())
        dlw_fatal("empty field while parsing ", what);
    std::int64_t v = 0;
    if (!tryParseInt(s, v)) {
        dlw_fatal("malformed integer '", trim(s), "' while parsing ",
                  what);
    }
    return v;
}

std::uint64_t
parseUint(std::string_view s, std::string_view what)
{
    if (trim(s).empty())
        dlw_fatal("empty field while parsing ", what);
    std::uint64_t v = 0;
    if (!tryParseUint(s, v)) {
        dlw_fatal("malformed unsigned '", trim(s), "' while parsing ",
                  what);
    }
    return v;
}

bool
tryParseDouble(std::string_view s, double &out)
{
    std::string t = trim(s);
    if (t.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
tryParseInt(std::string_view s, std::int64_t &out)
{
    return parseWholeInteger(s, out);
}

bool
tryParseUint(std::string_view s, std::uint64_t &out)
{
    return parseWholeInteger(s, out);
}

} // namespace dlw
