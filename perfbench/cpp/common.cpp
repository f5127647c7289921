#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/json.hpp"

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

int32_t
Tracer::begin(const char *name, int32_t parent, uint64_t request)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start_ns = nowNs();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
}

void
Tracer::end(int32_t id)
{
    if (id < 0)
        return;
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].end_ns = t;
}

uint64_t
Tracer::requestOf(int32_t id) const
{
    if (id < 0)
        return 0;
    std::lock_guard<std::mutex> lk(mu_);
    return spans_[static_cast<size_t>(id)].request;
}

SpanTotals
Tracer::totals(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child_s[static_cast<size_t>(s.parent)] +=
                nsToS(s.end_ns - s.start_ns);
    }
    SpanTotals out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (name != spans_[i].name)
            continue;
        const double d = nsToS(spans_[i].end_ns - spans_[i].start_ns);
        ++out.count;
        out.total_s += d;
        out.self_s += d - child_s[i];
    }
    return out;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}\n",
                     i, s.name, static_cast<long long>(s.start_ns - t0),
                     static_cast<long long>(s.end_ns - t0), s.parent,
                     static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
}

LatencySummary
summarize(std::vector<double> values)
{
    LatencySummary s;
    s.n = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    // Nearest-rank percentile: index ceil(p * n) - 1.
    const auto at = [&](double pct) {
        const double rank = std::ceil(pct / 100.0 * values.size());
        const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
        return idx;
    };
    s.p50 = values[at(50.0)];
    s.tail = s.p50;
    s.tail_pct = 50.0;
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        const size_t idx = at(pct);
        if (values.size() - (idx + 1) >= 10) {
            s.tail = values[idx];
            s.tail_pct = pct;
            break;
        }
    }
    return s;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
Report::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    for (const int prec : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
describeLatency(const char *what, const LatencySummary &s)
{
    std::printf("# %s: n=%zu p50=%s ms p%g=%s ms\n", what, s.n,
                formatDouble(s.p50).c_str(), s.tail_pct,
                formatDouble(s.tail).c_str());
}

void
Report::print() const
{
    for (const Metric &m : metrics)
        std::printf("%-32s %s %s\n", m.name.c_str(),
                    formatDouble(m.value).c_str(), m.unit.c_str());
    std::string line = "{\"correct\":";
    line += correct ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(attempted);
    line += ",\"failed\":" + std::to_string(failed);
    line += ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        line += i ? ",\"" : "\"";
        mse::jsonEscape(metrics[i].name, line);
        line += "\":{\"value\":";
        line += formatDouble(metrics[i].value);
        line += ",\"unit\":\"";
        mse::jsonEscape(metrics[i].unit, line);
        line += "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
