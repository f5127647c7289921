/**
 * @file
 * Shared pieces of the perfbench binary: the clock, the in-memory span
 * tracer, latency summaries and the result report.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds. */
int64_t nowNs();

inline double
nsToS(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** splitmix64: derives independent seeds from the benchmark seed. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string self_path;  ///< This executable (setup probes re-exec it).
    std::string serve_bin;  ///< mse_serve built from the same tree.
    std::string run_dir;    ///< Scratch directory of this run.
    std::string trace_dir;  ///< Where traced runs write their spans.
    bool corrupt = false;   ///< Self-test: corrupt one reported mapping.
};

/**
 * One traced interval. Spans stay in memory until the run ends, then
 * are written out as JSON lines.
 */
struct Span
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1; ///< Index of the enclosing span, -1 = root.
    uint64_t request = 0;
};

/** Per-name aggregate of spans: count, total and self time. */
struct SpanTotals
{
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0; ///< Duration minus the children's durations.
};

/** Thread-safe in-memory span recorder. Disabled = every call no-op. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    int32_t begin(const char *name, int32_t parent, uint64_t request);

    void end(int32_t id);

    /** Request id of span `id` (0 for -1). */
    uint64_t requestOf(int32_t id) const;

    /** Totals of every span with this name. */
    SpanTotals totals(const std::string &name) const;

    /** Write all spans as JSON lines; false on I/O failure. */
    bool writeJsonl(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, int32_t parent,
               uint64_t request)
        : t_(t), id_(t.begin(name, parent, request))
    {}
    ~ScopedSpan() { t_.end(id_); }
    int32_t id() const { return id_; }

  private:
    Tracer &t_;
    int32_t id_;
};

/**
 * Latency summary: the median and the highest percentile that still
 * has at least ten samples beyond it. Failed attempts enter as +inf, so
 * they miss every latency limit.
 */
struct LatencySummary
{
    size_t n = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tail_pct = 50.0; ///< Which percentile `tail` is.
};

LatencySummary summarize(std::vector<double> values);

double median(std::vector<double> values);
double geomean(const std::vector<double> &values);

/** Metrics, counts and the correctness verdict of one run. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::vector<Metric> metrics;
    bool correct = true;
    size_t attempted = 0;
    size_t failed = 0;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a correctness failure (printed to stderr). */
    void fail(const std::string &why);

    /** Human-readable lines, then the one-line JSON result. */
    void print() const;
};

/** Describe a latency summary on stdout (percentile and sample count). */
void describeLatency(const char *what, const LatencySummary &s);

/** Shortest decimal that parses back to exactly v. */
std::string formatDouble(double v);

} // namespace perfbench
