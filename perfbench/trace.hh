/**
 * @file
 * In-memory span recorder for the benchmark's traced pass. Spans are
 * recorded by the benchmark around its own calls into each layer's
 * public API (never inside the library), kept in memory, and written
 * out as Chrome trace-event JSON when the run ends. When the recorder
 * is disabled a span costs one branch: no clock read, no storage.
 */

#ifndef LPPERF_TRACE_HH
#define LPPERF_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lpperf
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One recorded span; times are seconds since the recorder's origin. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;          //!< index of the enclosing span, -1: root
    std::int64_t point = -1;  //!< live-point id the span works on
};

class Trace
{
  public:
    explicit Trace(bool enabled) : on_(enabled), origin_(Clock::now()) {}

    /** Open a span nested in the innermost open one; -1 when off. */
    int
    open(const char *name, std::int64_t point)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.start = now();
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.point = point;
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = now();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Each span's duration minus the time its direct children cover. */
    std::vector<double> selfTimes() const;

    /** Durations of every span named @p name, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span as a Chrome trace-event "X" event. */
    bool writeChrome(const std::string &path) const;

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Trace &t, const char *name, std::int64_t point = -1)
        : t_(t), id_(t.open(name, point))
    {
    }
    ~Scope() { t_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Trace &t_;
    int id_;
};

/** Median, p99 (nearest rank) and count of a sample. */
struct Summary
{
    double median = 0.0;
    double p99 = 0.0;
    std::size_t n = 0;
};

Summary summarize(std::vector<double> v);

} // namespace lpperf

#endif // LPPERF_TRACE_HH
