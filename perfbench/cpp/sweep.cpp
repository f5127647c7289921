/**
 * @file
 * sweep_cnn_gamma: ModelSweep::run, the library entry point a compiler
 * calls to map a whole network, with Gamma, dedup and warm start.
 *
 * A run repeats "rounds" — one sweep of every network with the
 * seed-derived sweep seed — for --seconds. Every round repeats the same
 * searches, so every round must reproduce the first round's results bit
 * for bit; the first (untimed) round also supplies the simulated
 * quality metrics, which therefore depend on the seed only.
 */
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/model_sweep.hpp"
#include "workload/model_zoo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mse;

/** Per-layer search budget of the network sweep. */
constexpr size_t kSweepLayerSamples = 3000;

/** Rounds, each with its own sweep seed, behind the quality metrics:
 *  the reference round plus untimed extra rounds. */
constexpr uint64_t kQualityRounds = 12;

/** Set-up launches before each timed round (setup_s is their median). */
constexpr int kSetupLaunchesPerRound = 4;

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Break a mapping so that a correct checker must reject it. */
void
corruptMapping(Mapping &m)
{
    m.level(0).temporal[0] *= 2;
}

double
msBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) * 1e-6;
}

/** What one round produced. Every round repeats the same searches, so
 *  the per-unit vectors line up across rounds. */
struct RoundStats
{
    double seconds = 0.0;  ///< Sweeps plus result exports.
    size_t samples = 0;
    size_t requests = 0;   ///< Networks swept.
    std::vector<double> search_ms; ///< One per unique layer search.
    std::vector<double> rest_ms;   ///< Per network: its sweep and export
                                   ///< minus its searches.
    std::vector<double> export_ms; ///< Per network.
};

struct Net
{
    std::string name;
    std::vector<Workload> layers;
};

std::vector<Net>
sweepNets()
{
    return {{"resnet18", resnet18Layers(16)},
            {"mobilenetv2", mobilenetV2Layers(16)},
            {"mnasnet", mnasnetLayers(16)},
            {"vgg16", vgg16Layers(16)}};
}

ModelSweepOptions
sweepOptions(uint64_t seed)
{
    ModelSweepOptions o;
    o.layer.budget.max_samples = kSweepLayerSamples;
    o.dedup = true;
    o.warm_start = true;
    o.seed = mixSeed(seed, 1);
    return o;
}

class SweepWorkload
{
  public:
    SweepWorkload(const Options &opts, Tracer &tracer)
        : opts_(opts), arch_(accelB()), nets_(sweepNets()),
          sweep_opts_(sweepOptions(opts.seed)), plain_(arch_),
          traced_(arch_, [this, &tracer]() -> std::unique_ptr<Mapper> {
              return std::make_unique<TracedMapper>(
                  makeMapperFactory("gamma")(), tracer, parent_);
          })
    {}

    /** One sweep of every network; `reference` marks the first,
     *  untimed round, whose results the later rounds must reproduce. */
    RoundStats
    round(Tracer &tracer, uint64_t index, bool reference, bool corrupt,
          Report &report)
    {
        RoundStats st;
        const ModelSweep &sweep = tracer.enabled() ? traced_ : plain_;
        for (size_t i = 0; i < nets_.size(); ++i) {
            const Net &net = nets_[i];
            const int64_t t0 = nowNs();
            ModelSweepResult res;
            {
                ScopedSpan span(tracer, "core.sweep", -1,
                                index * nets_.size() + i);
                parent_ = span.id();
                res = sweep.run(net.name, net.layers, sweep_opts_);
                parent_ = -1;
            }
            const int64_t t1 = nowNs();
            // The result export a caller does next (the stats-like op
            // of this workload).
            if (!writeSweepJson(res, opts_.run_dir + "/sweep.json"))
                report.fail("writeSweepJson failed");
            const int64_t t2 = nowNs();
            // Per-layer search latency: the last sample's timestamp in
            // each unique job's search log.
            double searched_ms = 0.0;
            for (const MseOutcome &job : res.jobs) {
                const auto &ts = job.search.log.seconds_per_sample;
                st.search_ms.push_back(ts.empty() ? 0.0 : ts.back() * 1e3);
                searched_ms += st.search_ms.back();
            }
            st.export_ms.push_back(msBetween(t1, t2));
            st.rest_ms.push_back(msBetween(t0, t2) - searched_ms);
            st.seconds += nsToS(t2 - t0);
            st.samples += res.stats.samples_spent;
            ++st.requests;

            if (reference && corrupt && i == 0)
                corruptMapping(res.layers[0].best_mapping);
            check(net, res, report);
            if (reference) {
                ref_total_edp_.push_back(res.totalEdp());
                ref_.push_back(std::move(res));
            } else if (!sameBits(res.totalEdp(), ref_total_edp_[i])) {
                report.fail(net.name + ": total EDP differs from the "
                            "first round");
            }
        }
        return st;
    }

    /** Counters of the reference round; adds its searches' quality. */
    void
    referenceMetrics(MetricValues &layer, std::vector<double> &best_edp,
                     MeanCurve &curve) const
    {
        size_t unique = 0, dedup = 0, warm = 0, samples = 0, hits = 0,
               misses = 0;
        for (const ModelSweepResult &res : ref_) {
            addQuality(res, best_edp, curve);
            unique += res.stats.unique_jobs;
            dedup += res.stats.dedup_hits;
            warm += res.stats.warm_jobs;
            samples += res.stats.samples_spent;
            hits += res.stats.eval_cache_hits;
            misses += res.stats.eval_cache_misses;
        }
        layer["core.unique_jobs"] = static_cast<double>(unique);
        layer["core.dedup_hits"] = static_cast<double>(dedup);
        layer["core.warm_jobs"] = static_cast<double>(warm);
        layer["core.samples"] = static_cast<double>(samples);
        layer["model.eval_cache_hits"] = static_cast<double>(hits);
        layer["model.eval_cache_misses"] = static_cast<double>(misses);
        layer["model.eval_cache_hit_ratio"] = hits + misses
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    }

    /** Untimed sweeps with the sweep seed derived from `salt`, adding
     *  their searches' quality. */
    void
    qualityRound(uint64_t salt, std::vector<double> &best_edp,
                 MeanCurve &curve, Report &report)
    {
        ModelSweepOptions o = sweep_opts_;
        o.seed = mixSeed(opts_.seed, salt);
        for (const Net &net : nets_) {
            const ModelSweepResult res = plain_.run(net.name, net.layers, o);
            check(net, res, report);
            addQuality(res, best_edp, curve);
        }
    }

    /** The reference round's unique layers and their best mappings. */
    void
    probeInputs(std::vector<Workload> &layers,
                std::vector<Mapping> &best) const
    {
        for (size_t i = 0; i < ref_.size(); ++i) {
            for (const LayerSweepRecord &rec : ref_[i].layers) {
                if (rec.deduped)
                    continue;
                layers.push_back(nets_[i].layers[rec.layer_index]);
                best.push_back(rec.best_mapping);
            }
        }
    }

    const ArchConfig &arch() const { return arch_; }

  private:
    static void
    addQuality(const ModelSweepResult &res, std::vector<double> &best_edp,
               MeanCurve &curve)
    {
        for (const MseOutcome &job : res.jobs) {
            best_edp.push_back(job.bestEdp());
            curve.add(job.search.log.best_edp_per_sample);
        }
    }

    void
    check(const Net &net, const ModelSweepResult &res, Report &report) const
    {
        for (const LayerSweepRecord &rec : res.layers) {
            const CostResult again = CostModel::evaluate(
                net.layers[rec.layer_index], arch_, rec.best_mapping);
            if (!rec.best_cost.valid || !again.valid ||
                !sameBits(again.edp, rec.best_cost.edp)) {
                report.fail(net.name + " layer " +
                            std::to_string(rec.layer_index) +
                            ": best mapping does not re-evaluate to its "
                            "reported EDP");
                return;
            }
        }
    }

    const Options &opts_;
    ArchConfig arch_;
    std::vector<Net> nets_;
    ModelSweepOptions sweep_opts_;
    std::atomic<int32_t> parent_{-1};
    ModelSweep plain_;
    ModelSweep traced_;
    std::vector<ModelSweepResult> ref_;
    std::vector<double> ref_total_edp_;
};

/**
 * Each unit of work's time over a run. Every round repeats the same
 * units (one layer's search; the rest of one network's sweep and its
 * export). Other tenants of a shared host slow repeats at random and
 * never speed them up, so a unit counts at its fastest repeat: the
 * program's own cost, with the slowed repeats set aside. Units of
 * milliseconds find quiet moments that whole rounds, each long enough
 * to meet some interference, do not.
 */
std::vector<double>
unitTimes(const std::vector<RoundStats> &rounds,
          std::vector<double> RoundStats::*field)
{
    std::vector<double> out;
    for (size_t u = 0; u < (rounds.front().*field).size(); ++u) {
        double fastest = (rounds.front().*field)[u];
        for (const RoundStats &st : rounds)
            fastest = std::min(fastest, (st.*field)[u]);
        out.push_back(fastest);
    }
    return out;
}

/** Seconds of one round: the sum of its units' times. */
double
roundSeconds(const std::vector<RoundStats> &rounds)
{
    double ms = 0.0;
    for (auto field : {&RoundStats::search_ms, &RoundStats::rest_ms})
        for (double t : unitTimes(rounds, field))
            ms += t;
    return ms * 1e-3;
}

size_t
requests(const std::vector<RoundStats> &rounds)
{
    size_t n = 0;
    for (const RoundStats &st : rounds)
        n += st.requests;
    return n;
}

/** Process start until ready of one launch of this binary in
 *  --setup-probe mode; 0 when it did not report ready. */
double
launchSetupProbe(const Options &opts)
{
    int fds[2];
    if (pipe(fds) != 0)
        return 0.0;
    // posix_spawn, not fork: the time then does not depend on the size
    // of this process's address space.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string path = opts.self_path, flag = "--setup-probe";
    char *argv[] = {path.data(), flag.data(), nullptr};
    pid_t pid = -1;
    const int64_t t0 = nowNs();
    const bool spawned =
        posix_spawn(&pid, path.c_str(), &actions, nullptr, argv, environ) == 0;
    close(fds[1]);
    char c = 0;
    const bool ready = spawned && read(fds[0], &c, 1) == 1 && c == 'R';
    const int64_t t1 = nowNs();
    close(fds[0]);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned) {
        int status = 0;
        waitpid(pid, &status, 0);
    }
    return ready ? nsToS(t1 - t0) : 0.0;
}

double
selfPeakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

mse::SearchResult
TracedMapper::search(const mse::MapSpace &space, const mse::EvalFn &eval,
                     const mse::SearchBudget &budget, mse::Rng &rng)
{
    const int32_t parent = parent_.load();
    ScopedSpan span(tracer_, "mappers.search", parent,
                    tracer_.requestOf(parent));
    return inner_->search(space, eval, budget, rng);
}

int
runSetupProbe()
{
    // Build what the workload builds before its first search, then
    // report ready.
    Options opts;
    Tracer tracer(false);
    const SweepWorkload w(opts, tracer);
    return std::fputs("R", stdout) >= 0 && std::fflush(stdout) == 0 ? 0 : 1;
}

int
runSweep(const Options &opts, Report &report)
{
    Tracer off(false), tracer(opts.trace);
    SweepWorkload w(opts, tracer);
    MetricValues e2e, layer;

    // Reference round: untimed warm-up, counters, quality.
    uint64_t index = 0;
    w.round(off, index++, true, opts.corrupt, report);
    std::vector<double> best_edp;
    MeanCurve curve(kSweepLayerSamples);
    w.referenceMetrics(layer, best_edp, curve);

    if (!opts.trace) {
        for (uint64_t q = 1; q < kQualityRounds; ++q)
            w.qualityRound(1000000 * q, best_edp, curve, report);
        std::printf("# quality: searches=%zu\n", best_edp.size());
        e2e["best_edp_geomean"] = geomean(best_edp);
        e2e["converge_samples"] = curve.convergeSamples();
        // Set-up launches are spread between the timed rounds, so their
        // median samples the host over the whole run, as serve_mixed's
        // daemon launches do, not over one moment of it.
        std::vector<RoundStats> rounds;
        std::vector<double> setup_s;
        double total = 0.0;
        while (rounds.empty() || (report.correct && total < opts.seconds)) {
            for (int i = 0; i < kSetupLaunchesPerRound; ++i)
                setup_s.push_back(launchSetupProbe(opts));
            rounds.push_back(w.round(off, index++, false, false, report));
            total += rounds.back().seconds;
        }
        if (*std::min_element(setup_s.begin(), setup_s.end()) <= 0.0)
            report.fail("the setup probe did not report ready");
        report.attempted = requests(rounds);
        const double round_s = roundSeconds(rounds);
        std::vector<double> whole_s;
        for (const RoundStats &st : rounds)
            whole_s.push_back(st.seconds);
        std::printf("# rounds: n=%zu, %.4f s as the sum of each unit's "
                    "fastest repeat, %.4f s as the median whole round; "
                    "%zu set-up launches\n",
                    rounds.size(), round_s, median(whole_s), setup_s.size());
        e2e["wall_s"] = round_s;
        e2e["samples_per_s"] =
            static_cast<double>(rounds.front().samples) / round_s;
        e2e["setup_s"] = median(setup_s);
        e2e["peak_rss_mb"] = selfPeakRssMb();
        e2e["req_per_s"] =
            static_cast<double>(rounds.front().requests) / round_s;
        const LatencySummary lat =
            summarize(unitTimes(rounds, &RoundStats::search_ms));
        const LatencySummary ops =
            summarize(unitTimes(rounds, &RoundStats::export_ms));
        describeLatency("search latency", lat);
        describeLatency("result export latency", ops);
        e2e["search_p50_ms"] = lat.p50;
        e2e["search_tail_ms"] = lat.tail;
        e2e["ops_p50_ms"] = ops.p50;
        e2e["ok_rate"] = report.correct ? 1.0 : 0.0;
        if (!report.correct)
            report.failed = report.attempted;
        emitMetrics(kEndToEnd, e2e, report);
        return 0;
    }

    // Traced run: untraced and traced rounds alternate, so both see the
    // same host conditions; then the probes.
    std::vector<RoundStats> plain, traced;
    double total = 0.0;
    while (traced.empty() || (report.correct && total < opts.seconds)) {
        plain.push_back(w.round(off, index++, false, false, report));
        traced.push_back(w.round(tracer, index++, false, false, report));
        total += plain.back().seconds + traced.back().seconds;
    }
    report.attempted = requests(plain) + requests(traced);
    std::vector<Workload> layers;
    std::vector<Mapping> best;
    w.probeInputs(layers, best);
    probeCompute(opts, w.arch(), layers, best, layer);

    const double n = static_cast<double>(traced.size());
    layer["mappers.search_s"] = tracer.totals("mappers.search").total_s / n;
    layer["core.sweep_self_s"] = tracer.totals("core.sweep").self_s / n;
    // Each sample is one generated candidate pushed through the
    // evaluation pipeline.
    layer["bench.accounted_share"] = layer["core.samples"] *
        (layer["mappers.gamma_offspring_ns"] +
         layer["model.pipeline_eval_ns"]) *
        1e-9 / layer["mappers.search_s"];
    layer["bench.trace_overhead_ratio"] =
        roundSeconds(traced) / roundSeconds(plain);
    if (!report.correct)
        report.failed = report.attempted;
    if (!tracer.writeJsonl(opts.trace_dir + "/sweep_cnn_gamma.jsonl"))
        report.fail("could not write the trace");
    emitMetrics(kPerLayer, layer, report);
    return 0;
}

} // namespace perfbench
