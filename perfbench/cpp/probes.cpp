/**
 * @file
 * Per-layer probes: each module's public functions timed on inputs
 * drawn from the running workload — sweep_cnn_gamma's layer shapes,
 * best mappings and Gamma-style offspring of random parents for the
 * compute modules; serve_mixed's store, shapes and request lines for
 * the service. Each probe runs several passes over its inputs and
 * reports the median per-call cost.
 */
#include <functional>

#include "mappers/gamma.hpp"
#include "mapping/mapping_io.hpp"
#include "model/batch_eval.hpp"
#include "service/mapping_store.hpp"
#include "service/wire.hpp"
#include "sparse/sparse_model.hpp"
#include "workload/workload_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mse;

constexpr int kPasses = 5;
constexpr size_t kPoolPerLayer = 96;
constexpr size_t kBatch = 24; // Gamma's default population

/** Median over passes of (pass time / calls), in ns. */
double
perCallNs(size_t calls, const std::function<void()> &pass)
{
    if (calls == 0)
        return 0.0;
    std::vector<double> per;
    for (int i = 0; i < kPasses; ++i) {
        const int64_t t0 = nowNs();
        pass();
        per.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(calls));
    }
    return median(per);
}

/** Keeps results observable so the timed loops are not elided. */
volatile double g_sink = 0.0;

/** Random parents plus Gamma offspring of them, for one layer. */
struct LayerPool
{
    const Workload *wl = nullptr;
    std::unique_ptr<MapSpace> space;
    std::vector<Mapping> parents;
    std::vector<Mapping> offspring;
    std::vector<EvalHint> hints; ///< Parent of each offspring.
};

/** One Gamma child: crossover and mutations at Gamma's default rates,
 *  then repair. */
Mapping
makeOffspring(const MapSpace &space, const Mapping &a, const Mapping &b,
              Rng &rng)
{
    const GammaConfig cfg;
    Mapping child =
        rng.chance(cfg.crossover_prob) ? GammaMapper::crossover(a, b, rng)
                                           : a;
    if (rng.chance(cfg.mutate_tile_prob))
        GammaMapper::mutateTile(space, child, rng);
    if (rng.chance(cfg.mutate_order_prob))
        GammaMapper::mutateOrder(child, rng);
    if (rng.chance(cfg.mutate_parallel_prob))
        GammaMapper::mutateParallel(space, child, rng);
    if (rng.chance(cfg.mutate_bypass_prob))
        GammaMapper::mutateBypass(space, child, rng);
    space.repair(child);
    return child;
}

std::vector<LayerPool>
buildPools(const ArchConfig &arch, const std::vector<Workload> &layers,
           const std::vector<Mapping> &best, Rng &rng)
{
    std::vector<LayerPool> pools(layers.size());
    for (size_t i = 0; i < layers.size(); ++i) {
        LayerPool &p = pools[i];
        p.wl = &layers[i];
        p.space = std::make_unique<MapSpace>(layers[i], arch);
        if (i < best.size())
            p.parents.push_back(best[i]);
        while (p.parents.size() < kBatch)
            p.parents.push_back(p.space->randomMapping(rng));
        for (size_t k = 0; k < kPoolPerLayer; ++k) {
            const size_t a = rng.index(p.parents.size());
            const size_t b = rng.index(p.parents.size());
            p.offspring.push_back(makeOffspring(*p.space, p.parents[a],
                                                p.parents[b], rng));
            p.hints.push_back(EvalHint{&p.parents[a]});
        }
    }
    return pools;
}

SearchReply
replyFor(const Mapping &m, const CostResult &c)
{
    SearchReply r;
    r.ok = true;
    r.mapping = serializeMapping(m);
    r.score = c.edp;
    r.edp = c.edp;
    r.energy_uj = c.energy_uj;
    r.latency_cycles = c.latency_cycles;
    r.samples = 200;
    r.samples_to_converge = 120;
    r.store_hit = StoreHit::Exact;
    r.warm_distance = 0.0;
    r.wall_seconds = 0.002;
    return r;
}

/** Store load, exact and near lookups, and recordIfBetter. */
void
probeStore(const ServiceProbeInputs &in, MetricValues &layer)
{
    MappingStore store(in.store_path);
    std::vector<double> load_ms;
    for (int i = 0; i < kPasses; ++i) {
        const int64_t t0 = nowNs();
        g_sink = g_sink + static_cast<double>(store.load());
        load_ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    layer["service.store_load_ms"] = median(load_ms);

    const auto lookups = [&](const std::vector<Workload> &shapes) {
        return perCallNs(shapes.size(), [&] {
                   for (const Workload &wl : shapes)
                       g_sink = g_sink +
                           store.lookup(wl, in.arch, Objective::Edp, false,
                                        8.0)
                               .distance;
               }) *
            1e-3;
    };
    layer["service.store_lookup_exact_us"] = lookups(in.exact);
    layer["service.store_lookup_near_us"] = lookups(in.novel);

    // Each record is a new key: one in-memory insert plus one append.
    const Mapping &m = in.exact_mappings.front();
    std::vector<double> rec_us;
    for (int pass = 0; pass < kPasses; ++pass) {
        const int64_t t0 = nowNs();
        for (const Workload &wl : in.novel) {
            std::vector<int64_t> b = wl.bounds();
            b[0] += 1 + pass; // a key no earlier pass wrote
            const Workload key("probe", wl.dimNames(), b, wl.tensors());
            store.recordIfBetter(key, in.arch, Objective::Edp, false, m,
                                 1.0, 1.0, 1.0, 1);
        }
        rec_us.push_back(static_cast<double>(nowNs() - t0) * 1e-3 /
                         static_cast<double>(in.novel.size()));
    }
    layer["service.store_record_us"] = median(rec_us);
}

} // namespace

std::string
searchRequestLine(const Workload &wl, size_t samples, uint64_t seed)
{
    JsonValue j = JsonValue::object();
    j["type"] = "search";
    j["workload"] = serializeWorkload(wl);
    j["arch"] = "accel-B";
    j["mapper"] = "gamma";
    j["max_samples"] = static_cast<uint64_t>(samples);
    // Keep the seed inside 2^53 so it survives the JSON number.
    j["seed"] = static_cast<uint64_t>(seed >> 11);
    return j.dump();
}

void
probeCompute(const Options &opts, const ArchConfig &arch,
             const std::vector<Workload> &layers,
             const std::vector<Mapping> &best, MetricValues &layer)
{
    Rng rng(mixSeed(opts.seed, 7));
    const std::vector<LayerPool> pools = buildPools(arch, layers, best, rng);
    size_t n_off = 0;
    for (const LayerPool &p : pools)
        n_off += p.offspring.size();

    // mapping: random generation and the canonical hash.
    layer["mapping.random_mapping_ns"] = perCallNs(pools.size() * kBatch, [&] {
        Rng local(1);
        for (const LayerPool &p : pools)
            for (size_t k = 0; k < kBatch; ++k)
                g_sink = g_sink +
                    static_cast<double>(
                        p.space->randomMapping(local).numLevels());
    });
    layer["mapping.hash_ns"] = perCallNs(n_off, [&] {
        for (const LayerPool &p : pools)
            for (const Mapping &m : p.offspring)
                g_sink = g_sink + static_cast<double>(m.hash() & 1);
    });

    // mappers: one Gamma child (crossover + mutations + repair).
    layer["mappers.gamma_offspring_ns"] = perCallNs(n_off, [&] {
        Rng local(2);
        for (const LayerPool &p : pools)
            for (size_t k = 0; k < p.offspring.size(); ++k)
                g_sink = g_sink +
                    static_cast<double>(
                        makeOffspring(*p.space, p.parents[k % kBatch],
                                      p.parents[(k + 1) % kBatch], local)
                            .numLevels());
    });

    // model: plan, scalar kernel, SoA kernel, the whole pipeline.
    layer["model.plan_build_us"] = perCallNs(pools.size(), [&] {
                                       for (const LayerPool &p : pools)
                                           g_sink = g_sink +
                                               EvalPlan::build(*p.wl, arch)
                                                   .macs;
                                   }) *
        1e-3;
    layer["model.scalar_eval_ns"] = perCallNs(n_off, [&] {
        for (const LayerPool &p : pools)
            for (const Mapping &m : p.offspring)
                g_sink = g_sink +
                    CostModel::evaluate(*p.wl, arch, m).latency_cycles;
    });
    std::vector<EvalPlan> plans;
    for (const LayerPool &p : pools)
        plans.push_back(EvalPlan::build(*p.wl, arch));
    std::vector<CostResult> out(kPoolPerLayer + kBatch);
    layer["model.soa_eval_ns"] = perCallNs(n_off, [&] {
        for (size_t i = 0; i < pools.size(); ++i) {
            evaluateBatchSoA(plans[i], pools[i].offspring, out);
            g_sink = g_sink + out[0].latency_cycles;
        }
    });
    // The engine's path: parents first, then hinted offspring batches,
    // through a fresh evaluator per pass (its store starts empty).
    layer["model.pipeline_eval_ns"] =
        perCallNs(n_off + pools.size() * kBatch, [&] {
            for (const LayerPool &p : pools) {
                BatchCostEvaluator ev(*p.wl, arch);
                ev.evaluateBatch(p.parents.data(), nullptr, p.parents.size(),
                                 out.data());
                for (size_t k = 0; k < p.offspring.size(); k += kBatch) {
                    const size_t n = std::min(kBatch, p.offspring.size() - k);
                    ev.evaluateBatch(p.offspring.data() + k,
                                     p.hints.data() + k, n, out.data());
                }
                g_sink = g_sink + out[0].latency_cycles;
            }
        });

    // sparse: one sparse-model evaluation at the paper's Sec. 5.2 weight
    // density (0.5) and one activation density point.
    const SparseCostModel model;
    std::vector<Workload> annotated;
    for (const LayerPool &p : pools) {
        Workload wl = *p.wl;
        applyDensities(wl, 0.5, 0.5);
        annotated.push_back(std::move(wl));
    }
    layer["sparse.evaluate_ns"] = perCallNs(n_off, [&] {
        for (size_t i = 0; i < pools.size(); ++i)
            for (const Mapping &m : pools[i].offspring)
                g_sink = g_sink +
                    model.evaluate(annotated[i], arch, m).latency_cycles;
    });
}

void
probeService(const ServiceProbeInputs &in, MetricValues &layer)
{
    layer["service.wire_parse_us"] = perCallNs(in.request_lines.size(), [&] {
                                         std::string code, msg;
                                         for (const std::string &l :
                                              in.request_lines)
                                             g_sink = g_sink +
                                                 (parseWireRequest(l, &code,
                                                                   &msg)
                                                      ? 1
                                                      : 0);
                                     }) *
        1e-3;
    std::vector<SearchReply> replies;
    for (size_t i = 0; i < in.exact.size(); ++i) {
        const Mapping &m = in.exact_mappings[i];
        replies.push_back(
            replyFor(m, CostModel::evaluate(in.exact[i], in.arch, m)));
    }
    layer["service.reply_encode_us"] = perCallNs(replies.size(), [&] {
                                           for (const SearchReply &rep :
                                                replies)
                                               g_sink = g_sink +
                                                   static_cast<double>(
                                                       searchReplyJson(rep)
                                                           .dump()
                                                           .size());
                                       }) *
        1e-3;
    probeStore(in, layer);
}

} // namespace perfbench
