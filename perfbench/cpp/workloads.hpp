/**
 * @file
 * The benchmark workloads, the per-layer probes, and the table of
 * metric names every run prints.
 */
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "mappers/mapper.hpp"
#include "workload/workload.hpp"

namespace perfbench {

/** A metric's printed name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed by every run with --trace 0, in this order. */
extern const std::vector<MetricDef> kEndToEnd;

/** Printed by every run with --trace 1, in this order. */
extern const std::vector<MetricDef> kPerLayer;

/** Values by metric name; missing names print as 0. */
using MetricValues = std::map<std::string, double>;

/** Append the named table to the report, failing on unknown names. */
void emitMetrics(const std::vector<MetricDef> &table,
                 const MetricValues &values, Report &report);

/**
 * Forwarding mapper: wraps a mapper and records one "mappers.search"
 * span per Mapper::search, parented to (and sharing the request id of)
 * whatever span the caller set.
 */
class TracedMapper : public mse::Mapper
{
  public:
    TracedMapper(std::unique_ptr<mse::Mapper> inner, Tracer &tracer,
                 const std::atomic<int32_t> &parent)
        : inner_(std::move(inner)), tracer_(tracer), parent_(parent)
    {}

    std::string name() const override { return inner_->name(); }

    mse::SearchResult search(const mse::MapSpace &space,
                             const mse::EvalFn &eval,
                             const mse::SearchBudget &budget,
                             mse::Rng &rng) override;

    void setInitialMappings(std::vector<mse::Mapping> seeds) override
    {
        inner_->setInitialMappings(std::move(seeds));
    }

  private:
    std::unique_ptr<mse::Mapper> inner_;
    Tracer &tracer_;
    const std::atomic<int32_t> &parent_;
};

/**
 * Time the mapping, mappers, model and sparse modules' public functions
 * on a workload's layer shapes and best mappings (plus Gamma offspring
 * of random parents); writes their per-layer metrics.
 */
void probeCompute(const Options &opts, const mse::ArchConfig &arch,
                  const std::vector<mse::Workload> &layers,
                  const std::vector<mse::Mapping> &best,
                  MetricValues &layer);

/** Inputs drawn from serve_mixed for the service probes. */
struct ServiceProbeInputs
{
    mse::ArchConfig arch;

    /** A copy of the pre-seeded store, loaded and queried. */
    std::string store_path;

    /** Stored shapes and a legal mapping of each (parallel). */
    std::vector<mse::Workload> exact;
    std::vector<mse::Mapping> exact_mappings;

    /** Shapes absent from the store. */
    std::vector<mse::Workload> novel;

    /** Search request lines the client sent. */
    std::vector<std::string> request_lines;
};

/** Time wire decode, reply encode and the store's load, lookups and
 *  writeback; writes their per-layer metrics. */
void probeService(const ServiceProbeInputs &in, MetricValues &layer);

/**
 * Geometric mean over a set of searches of the best-so-far EDP at each
 * sample, for the convergence metric: the paper's Sec. 5.1.3 criterion
 * (99.5% of the total improvement) applied to the mean curve. Averaging
 * before thresholding keeps the figure steady where per-search
 * convergence points are heavy-tailed.
 */
class MeanCurve
{
  public:
    /** Curves are padded with their last value to `len` samples. */
    explicit MeanCurve(size_t len) : log_sum_(len, 0.0) {}

    /** Add one search's best-so-far log (samples before its first legal
     *  mapping take that mapping's value). */
    void add(const std::vector<double> &best_so_far);

    /** First sample at which the mean curve made 99.5% of its total
     *  improvement; 0 when a search never found a legal mapping. */
    double convergeSamples() const;

  private:
    std::vector<double> log_sum_;
    size_t n_ = 0;
    bool empty_search_ = false;
};

/** A search request line for a workload on Accel-B. */
std::string searchRequestLine(const mse::Workload &wl, size_t samples,
                              uint64_t seed);

/** Child side of sweep_cnn_gamma's setup_s: build the workload's
 *  inputs, report ready. */
int runSetupProbe();

int runSweep(const Options &opts, Report &report);
int runServe(const Options &opts, Report &report);

} // namespace perfbench
