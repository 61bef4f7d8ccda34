#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lpperf
{

std::vector<double>
Trace::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
}

std::vector<double>
Trace::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(s.end - s.start);
    return out;
}

bool
Trace::writeChrome(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%.*s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"point\": %lld}}",
                     i ? ",\n" : "", s.name,
                     static_cast<int>(std::string(s.name).find('.')),
                     s.name, s.start * 1e6, (s.end - s.start) * 1e6, i,
                     s.parent, static_cast<long long>(s.point));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(n)));
    s.p99 = v[std::max<std::size_t>(rank, 1) - 1];
    return s;
}

} // namespace lpperf
