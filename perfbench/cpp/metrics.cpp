#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"samples_per_s", "1/s"},
    {"best_edp_geomean", "cycle.uJ"},
    {"converge_samples", "samples"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"req_per_s", "1/s"},
    {"search_p50_ms", "ms"},
    {"search_tail_ms", "ms"},
    {"ops_p50_ms", "ms"},
    {"ok_rate", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"mappers.search_s", "s"},
    {"mappers.gamma_offspring_ns", "ns"},
    {"model.soa_eval_ns", "ns"},
    {"model.pipeline_eval_ns", "ns"},
    {"model.scalar_eval_ns", "ns"},
    {"model.plan_build_us", "us"},
    {"model.eval_cache_hits", "count"},
    {"model.eval_cache_misses", "count"},
    {"model.eval_cache_hit_ratio", "ratio"},
    {"core.sweep_self_s", "s"},
    {"core.unique_jobs", "count"},
    {"core.dedup_hits", "count"},
    {"core.warm_jobs", "count"},
    {"core.samples", "count"},
    {"sparse.evaluate_ns", "ns"},
    {"mapping.random_mapping_ns", "ns"},
    {"mapping.hash_ns", "ns"},
    {"service.search_wall_ms_p50", "ms"},
    {"service.overhead_ms_p50", "ms"},
    {"service.overhead_ms_tail", "ms"},
    {"service.wire_parse_us", "us"},
    {"service.reply_encode_us", "us"},
    {"service.store_lookup_exact_us", "us"},
    {"service.store_lookup_near_us", "us"},
    {"service.store_record_us", "us"},
    {"service.store_load_ms", "ms"},
    {"service.store_exact_hits", "count"},
    {"service.store_near_hits", "count"},
    {"service.store_cold", "count"},
    {"service.store_writes", "count"},
    {"service.rejected_queue_full", "count"},
    {"service.errors", "count"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.accounted_share", "ratio"},
};

void
emitMetrics(const std::vector<MetricDef> &table, const MetricValues &values,
            Report &report)
{
    for (const auto &kv : values) {
        bool known = false;
        for (const MetricDef &d : table)
            known = known || kv.first == d.name;
        if (!known)
            report.fail("metric '" + kv.first + "' is not in the table");
    }
    for (const MetricDef &d : table) {
        const auto it = values.find(d.name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            // Only failed attempts make a metric infinite.
            report.fail(std::string(d.name) + " is not finite");
            v = -1.0;
        }
        report.add(d.name, v, d.unit);
    }
}

void
MeanCurve::add(const std::vector<double> &best_so_far)
{
    size_t first = 0;
    while (first < best_so_far.size() && !std::isfinite(best_so_far[first]))
        ++first;
    if (first == best_so_far.size()) {
        empty_search_ = true;
        return;
    }
    for (size_t t = 0; t < log_sum_.size(); ++t)
        log_sum_[t] += std::log(
            best_so_far[std::clamp(t, first, best_so_far.size() - 1)]);
    ++n_;
}

double
MeanCurve::convergeSamples() const
{
    if (empty_search_ || n_ == 0)
        return 0.0;
    const double n = static_cast<double>(n_);
    const double start = std::exp(log_sum_.front() / n);
    const double total = start - std::exp(log_sum_.back() / n);
    for (size_t t = 0; t < log_sum_.size(); ++t) {
        if (start - std::exp(log_sum_[t] / n) >= 0.995 * total)
            return static_cast<double>(t + 1);
    }
    return static_cast<double>(log_sum_.size());
}

} // namespace perfbench
