/**
 * @file
 * serve_mixed: the mse_serve daemon (event backend, --executors 2,
 * MSE_THREADS=1) on a file store pre-seeded through the MappingStore
 * API, driven over loopback by one client process: four connections,
 * each a closed loop that waits for every reply, like a compiler job.
 *
 * Mix per connection: exact repeats of stored catalog shapes (exact
 * lookup + short warm search), novel shapes (near lookup scanning the
 * whole store + search + writeback append) and `stats` ops. The share
 * of exact repeats is measured, not chosen: it is the share of layers
 * of the catalog networks whose shape an earlier layer already had
 * (what ModelSweep's dedup counts), i.e. the repeats a compiler sees
 * when it compiles those networks.
 *
 * Every round starts a fresh daemon on a copy of the pristine store and
 * sends the same requests, so every round does the same work; novel
 * shapes therefore grow the store only within a round.
 *
 * The catalog is fixed (model-zoo layers); the seed draws the store's
 * filler entries, the catalog's stored mappings, the novel shapes, the
 * request order and every request's search seed. Before the timed phase
 * an untimed quality pass requests every catalog shape a few times, in
 * order on one connection, so its replies (the quality metrics) are
 * deterministic for a seed.
 */
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <thread>

#include "core/model_sweep.hpp"
#include "mappers/gamma.hpp"
#include "mapping/mapping_io.hpp"
#include "service/mapping_store.hpp"
#include "service/wire.hpp"
#include "workload/model_zoo.hpp"
#include "workload/workload_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mse;

constexpr size_t kConnections = 4;
constexpr size_t kExecutors = 2;
constexpr size_t kSearchSamples = 200;
constexpr size_t kQualityPasses = 4;
constexpr size_t kStoreFiller = 3000;
/** Every 100th request of a round is `stats`. An assumption: no
 *  measured compiler traffic gives the share of operator requests. */
constexpr size_t kStatsEvery = 100;
/** Requests per round (each round on a fresh daemon), split evenly
 *  over the connections. */
constexpr size_t kRoundRequests = 300;
constexpr size_t kConnRequests = kRoundRequests / kConnections;
static_assert(kConnRequests * kConnections == kRoundRequests);

/** The catalog networks' layers, and their unique shapes. */
struct Catalog
{
    std::vector<Workload> shapes;  ///< 47 unique shapes.
    double repeat_share = 0.0;     ///< Layers whose shape came earlier.
};

Catalog
makeCatalog(const ArchConfig &arch)
{
    std::vector<Workload> all = resnet18Layers(16);
    for (auto more : {bertLargeLayers(16), mobilenetV2Layers(16),
                      mnasnetLayers(16)})
        all.insert(all.end(), more.begin(), more.end());
    Catalog c;
    std::set<std::string> seen;
    for (const Workload &wl : all) {
        if (seen.insert(layerSignature(wl, arch)).second)
            c.shapes.push_back(wl);
    }
    c.repeat_share = 1.0 - static_cast<double>(c.shapes.size()) /
        static_cast<double>(all.size());
    return c;
}

int64_t
pickDim(Rng &rng, int64_t lo_log2, int64_t hi_log2)
{
    const int64_t base = int64_t{1} << rng.uniformInt(lo_log2, hi_log2);
    return rng.chance(0.3) ? base + base / 2 : base;
}

/** A random GEMM or conv layer with the given batch. */
Workload
randomShape(Rng &rng, int64_t batch, const std::string &name)
{
    if (rng.chance(0.5))
        return makeGemm(name, batch, pickDim(rng, 6, 11), pickDim(rng, 6, 11),
                        pickDim(rng, 6, 10));
    const int64_t yx = int64_t{7} << rng.uniformInt(0, 3);
    const int64_t rs = rng.pick(std::vector<int64_t>{1, 3, 3, 5});
    return makeConv2d(name, batch, pickDim(rng, 4, 9), pickDim(rng, 4, 9), yx,
                      yx, rs, rs);
}

/** Best of `tries` random mappings; false when none was legal. */
bool
seedMapping(const Workload &wl, const ArchConfig &arch, int tries, Rng &rng,
            Mapping &best, CostResult &best_cost)
{
    const MapSpace space(wl, arch);
    bool found = false;
    for (int i = 0; i < tries; ++i) {
        Mapping m = space.randomMapping(rng);
        const CostResult c = CostModel::evaluate(wl, arch, m);
        if (c.valid && (!found || c.edp < best_cost.edp)) {
            best = std::move(m);
            best_cost = c;
            found = true;
        }
    }
    return found;
}

/** Write the pre-seeded store; returns the keys it holds. */
std::set<std::string>
seedStore(const std::string &path, const std::vector<Workload> &catalog,
          const ArchConfig &arch, uint64_t seed, Report &report)
{
    ::unlink(path.c_str());
    MappingStore store(path);
    std::set<std::string> keys;
    Rng rng(mixSeed(seed, 11));
    const auto put = [&](const Workload &wl, const Mapping &m,
                         const CostResult &c, uint64_t samples) {
        store.recordIfBetter(wl, arch, Objective::Edp, false, m, c.edp,
                             c.energy_uj, c.latency_cycles, samples);
        keys.insert(layerSignature(wl, arch));
    };
    // Catalog entries: one cold Gamma search each at the daemon's own
    // budget, like a store that has served these layers once before.
    for (const Workload &wl : catalog) {
        const MapSpace space(wl, arch);
        const EvalFn eval = [&](const Mapping &m) {
            return CostModel::evaluate(wl, arch, m);
        };
        SearchBudget budget;
        budget.max_samples = kSearchSamples;
        GammaMapper gamma;
        const SearchResult r = gamma.search(space, eval, budget, rng);
        if (r.found())
            put(wl, r.best_mapping, r.best_cost, kSearchSamples);
    }
    if (keys.size() != catalog.size())
        report.fail("could not seed every catalog shape");
    const int64_t batches[] = {1, 2, 4, 8, 16};
    while (keys.size() < catalog.size() + kStoreFiller) {
        const Workload wl = randomShape(rng, batches[rng.index(5)], "filler");
        Mapping m;
        CostResult c;
        if (!keys.count(layerSignature(wl, arch)) &&
            seedMapping(wl, arch, 8, rng, m, c))
            put(wl, m, c, 8);
    }
    return keys;
}

// ------------------------------------------------------------ daemon

struct Daemon
{
    pid_t pid = -1;
    int out_fd = -1;
    uint16_t port = 0;
};

int
connectTo(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&a), sizeof a) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/** Line-oriented blocking connection. */
class Conn
{
  public:
    explicit Conn(int fd) : fd_(fd) {}
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string &line)
    {
        std::string msg = line + "\n";
        size_t off = 0;
        while (off < msg.size()) {
            const ssize_t n =
                ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    bool
    readLine(std::string &out)
    {
        for (;;) {
            const size_t nl = buf_.find('\n', scan_);
            if (nl != std::string::npos) {
                out.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                scan_ = 0;
                return true;
            }
            scan_ = buf_.size();
            char tmp[65536];
            const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
            if (n <= 0)
                return false;
            buf_.append(tmp, static_cast<size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
    size_t scan_ = 0;
};

/** A daemon's store copy is discarded after its round, so it is
 *  killed, not drained: a drain waits out the daemon's 100 ms signal
 *  poll and dumps its stats, which would cost each round ~0.2 s. */
void
stopDaemon(Daemon &d)
{
    if (d.pid > 0) {
        ::kill(d.pid, SIGKILL);
        int status = 0;
        ::waitpid(d.pid, &status, 0);
    }
    if (d.out_fd >= 0)
        ::close(d.out_fd);
    d = Daemon{};
}

/** Start mse_serve; returns seconds from exec to the first ping reply
 *  (negative on failure). */
double
startDaemon(const Options &opts, const std::string &store, Daemon &d)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return -1.0;
    const std::string log = opts.run_dir + "/serve.log";
    const std::string executors = std::to_string(kExecutors);
    const std::string samples = std::to_string(kSearchSamples);
    const int64_t t0 = nowNs();
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (err >= 0)
            ::dup2(err, STDERR_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execl(opts.serve_bin.c_str(), opts.serve_bin.c_str(), "--port", "0",
                "--store", store.c_str(), "--executors", executors.c_str(),
                "--samples", samples.c_str(), static_cast<char *>(nullptr));
        _exit(127);
    }
    ::close(fds[1]);
    d.pid = pid;
    d.out_fd = fds[0];
    if (pid < 0)
        return -1.0;
    std::string out;
    char c;
    while (out.find('\n') == std::string::npos && ::read(fds[0], &c, 1) == 1)
        out += c;
    unsigned port = 0;
    if (std::sscanf(out.c_str(), "LISTENING %u", &port) != 1)
        return -1.0;
    d.port = static_cast<uint16_t>(port);
    Conn conn(connectTo(d.port));
    std::string reply;
    if (!conn.ok() || !conn.send("{\"type\":\"ping\"}") ||
        !conn.readLine(reply) || reply.find("\"ok\":true") == std::string::npos)
        return -1.0;
    return nsToS(nowNs() - t0);
}

double
daemonPeakRssMb(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::optional<JsonValue>
fetchStats(uint16_t port)
{
    Conn conn(connectTo(port));
    std::string reply;
    if (!conn.ok() || !conn.send("{\"type\":\"stats\"}") ||
        !conn.readLine(reply))
        return std::nullopt;
    auto doc = parseJson(reply);
    if (!doc || !doc->getBool("ok", false) || !doc->find("stats"))
        return std::nullopt;
    return *doc->find("stats");
}

double
counter(const JsonValue &stats, const char *block, const char *key)
{
    const JsonValue *b = stats.find(block);
    return b ? b->getDouble(key, 0.0) : 0.0;
}

// ------------------------------------------------------------ client

enum class Op { Exact, Novel, Stats };

/** One completed request, validated after the round. */
struct Sample
{
    Op op = Op::Stats;
    int catalog = -1;           ///< Catalog index for exact repeats.
    size_t novel = 0;           ///< Novel-shape index otherwise.
    double rtt_ms = 0.0;
    bool ok = false;
    std::string reply;          ///< Search replies only.
};

/** Deterministic request stream of one connection. */
class Stream
{
  public:
    Stream(size_t conn, uint64_t seed, size_t catalog_size,
           double exact_share, const ArchConfig &arch,
           const std::set<std::string> &stored)
        : conn_(conn), seed_(seed), catalog_size_(catalog_size),
          exact_share_(exact_share), rng_(mixSeed(seed, 2000 + conn)),
          novel_rng_(mixSeed(seed, 3000 + conn)), arch_(arch),
          stored_(stored)
    {}

    /** Next op; fills the catalog index or appends a novel shape. */
    Op
    next(int &catalog)
    {
        // Requests are numbered across the round, connection by
        // connection.
        if ((conn_ * kConnRequests + ++ops_) % kStatsEvery == 0)
            return Op::Stats;
        if (rng_.chance(exact_share_)) {
            catalog = static_cast<int>(rng_.index(catalog_size_));
            return Op::Exact;
        }
        // Batch 3, 5, 6 or 7 per connection: never a filler or catalog
        // batch, so novel shapes never collide across connections.
        static const int64_t kBatch[] = {3, 5, 6, 7};
        for (;;) {
            Workload wl = randomShape(novel_rng_, kBatch[conn_], "novel");
            const std::string key = layerSignature(wl, arch_);
            if (!stored_.count(key) && own_.insert(key).second) {
                novel.push_back(std::move(wl));
                return Op::Novel;
            }
        }
    }

    uint64_t
    requestSeed()
    {
        return mixSeed(seed_, 4000 + conn_ * 1000003 + n_++);
    }

    std::vector<Workload> novel;

  private:
    size_t conn_;
    uint64_t seed_;
    size_t catalog_size_;
    double exact_share_;
    Rng rng_;
    Rng novel_rng_;
    const ArchConfig &arch_;
    const std::set<std::string> &stored_;
    std::set<std::string> own_;
    uint64_t n_ = 0;
    uint64_t ops_ = 0;
};

struct ConnState
{
    std::unique_ptr<Conn> conn;
    std::unique_ptr<Stream> stream;
    std::vector<Sample> samples;
    std::vector<std::string> lines; ///< First request lines (probe input).
};

/** Closed loop on one connection over its share of the round. */
void
clientLoop(ConnState &cs, uint64_t request_base,
           const std::vector<Workload> &catalog, Tracer &tracer)
{
    std::string reply;
    for (size_t k = 0; k < kConnRequests; ++k) {
        Sample s;
        s.op = cs.stream->next(s.catalog);
        std::string line;
        if (s.op == Op::Stats) {
            line = "{\"type\":\"stats\"}";
        } else {
            if (s.op == Op::Novel)
                s.novel = cs.stream->novel.size() - 1;
            const Workload &wl = s.op == Op::Exact
                ? catalog[static_cast<size_t>(s.catalog)]
                : cs.stream->novel[s.novel];
            line = searchRequestLine(wl, kSearchSamples,
                                     cs.stream->requestSeed());
            if (cs.lines.size() < 64)
                cs.lines.push_back(line);
        }
        const int64_t t0 = nowNs();
        bool sent;
        {
            ScopedSpan span(tracer,
                            s.op == Op::Stats ? "service.stats"
                                              : "service.search",
                            -1, request_base + cs.samples.size());
            sent = cs.conn->send(line) && cs.conn->readLine(reply);
        }
        s.rtt_ms = static_cast<double>(nowNs() - t0) * 1e-6;
        s.ok = sent && reply.compare(0, 10, "{\"ok\":true") == 0;
        if (s.op != Op::Stats)
            s.reply = sent ? reply : std::string();
        cs.samples.push_back(std::move(s));
        if (!sent)
            return;
    }
}

/** Aggregates of a set of requests. */
struct PhaseResult
{
    size_t attempted = 0, failed = 0, searches = 0, stats_ops = 0;
    size_t ok = 0;
    double samples = 0.0;
    std::vector<double> search_ms, stats_ms, wall_ms, overhead_ms;

    void
    merge(const PhaseResult &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        searches += o.searches;
        stats_ops += o.stats_ops;
        ok += o.ok;
        samples += o.samples;
        for (auto [to, from] :
             {std::pair{&search_ms, &o.search_ms},
              std::pair{&stats_ms, &o.stats_ms},
              std::pair{&wall_ms, &o.wall_ms},
              std::pair{&overhead_ms, &o.overhead_ms}})
            to->insert(to->end(), from->begin(), from->end());
    }
};

/**
 * Check one search reply: ok, a mapping that parseMapping accepts, and a
 * cost-model re-evaluation bit-identical to the reply's edp. `corrupt`
 * breaks the mapping text first (the self-test).
 */
std::optional<JsonValue>
checkedReply(const std::string &reply, const Workload &wl,
             const ArchConfig &arch, bool corrupt)
{
    auto doc = parseJson(reply);
    if (!doc || !doc->getBool("ok", false))
        return std::nullopt;
    std::string text = doc->getString("mapping", "");
    if (corrupt && !text.empty())
        text[text.size() / 2] = text[text.size() / 2] == '1' ? '2' : '1';
    const auto mapping = parseMapping(text);
    if (!mapping)
        return std::nullopt;
    const CostResult again = CostModel::evaluate(wl, arch, *mapping);
    const double edp = doc->getDouble("edp", -1.0);
    if (!again.valid || std::memcmp(&again.edp, &edp, sizeof edp) != 0)
        return std::nullopt;
    return doc;
}

/**
 * Validate every request of a round (search replies with checkedReply)
 * and aggregate them. A failed request enters every latency as +inf.
 */
PhaseResult
validate(const std::vector<ConnState> &conns,
         const std::vector<Workload> &catalog, const ArchConfig &arch,
         Report &report)
{
    const double inf = std::numeric_limits<double>::infinity();
    PhaseResult pr;
    for (size_t c = 0; c < conns.size(); ++c) {
        for (size_t i = 0; i < conns[c].samples.size(); ++i) {
            const Sample &s = conns[c].samples[i];
            bool ok = s.ok;
            double wall_ms = 0.0;
            if (s.op != Op::Stats && s.ok) {
                const Workload &wl = s.op == Op::Exact
                    ? catalog[static_cast<size_t>(s.catalog)]
                    : conns[c].stream->novel[s.novel];
                const auto doc = checkedReply(s.reply, wl, arch, false);
                ok = doc.has_value();
                if (doc) {
                    wall_ms = doc->getDouble("wall_ms", 0.0);
                    pr.samples += doc->getDouble("samples", 0.0);
                }
            }
            if (!ok)
                report.fail("request " + std::to_string(c) + "/" +
                            std::to_string(i) +
                            " failed or does not re-evaluate: " +
                            s.reply.substr(0, 200));
            const double rtt = ok ? s.rtt_ms : inf;
            ++pr.attempted;
            pr.ok += ok;
            pr.failed += !ok;
            if (s.op == Op::Stats) {
                ++pr.stats_ops;
                pr.stats_ms.push_back(rtt);
                continue;
            }
            ++pr.searches;
            pr.search_ms.push_back(rtt);
            if (ok) {
                pr.wall_ms.push_back(wall_ms);
                pr.overhead_ms.push_back(rtt - wall_ms);
            }
        }
    }
    return pr;
}

/** Quality replies: best EDPs and mean samples-to-converge. */
struct Quality
{
    std::vector<double> edp;
    double converge_sum = 0.0;
};

/**
 * Untimed and sequential on one connection: every catalog shape once
 * per pass, each request with its own seed.
 */
Quality
qualityPass(Conn &conn, const std::vector<Workload> &catalog,
            const ArchConfig &arch, const Options &opts, Report &report)
{
    Quality q;
    std::string reply;
    for (size_t pass = 0; pass < kQualityPasses; ++pass) {
        for (size_t i = 0; i < catalog.size(); ++i) {
            const std::string line = searchRequestLine(
                catalog[i], kSearchSamples,
                mixSeed(opts.seed, 5000 + pass * 1000 + i));
            const bool corrupt = opts.corrupt && pass == 0 && i == 0;
            const auto doc = conn.send(line) && conn.readLine(reply)
                ? checkedReply(reply, catalog[i], arch, corrupt)
                : std::nullopt;
            if (!doc) {
                report.fail("quality reply for catalog shape " +
                            std::to_string(i) +
                            " is not ok or does not re-evaluate");
                continue;
            }
            q.edp.push_back(doc->getDouble("edp", 0.0));
            q.converge_sum += doc->getDouble("samples_to_converge", 0.0);
        }
    }
    return q;
}

void
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
}

/** What a run shares across its rounds. */
struct ServeRun
{
    const Options &opts;
    ArchConfig arch;
    Catalog catalog;
    std::set<std::string> stored;  ///< Keys of the pristine store.
    std::string pristine;          ///< The pre-seeded store file.
    std::vector<double> setup_s;   ///< One per daemon launch.
};

/** Start a daemon on a fresh copy of the pristine store. */
bool
launch(ServeRun &run, Daemon &d, Report &report)
{
    const std::string path = run.opts.run_dir + "/serving.jsonl";
    copyFile(run.pristine, path);
    const double s = startDaemon(run.opts, path, d);
    if (s < 0.0) {
        stopDaemon(d);
        report.fail("mse_serve did not start (see serve.log)");
        return false;
    }
    run.setup_s.push_back(s);
    return true;
}

/** What one round measured. */
struct RoundResult
{
    bool started = false;
    bool traced = false;
    double seconds = 0.0;      ///< First send to the last reply.
    PhaseResult pr;
    double rss_mb = 0.0;
    double entries_start = 0.0, entries_end = 0.0;
    MetricValues counts;       ///< Per-layer counts from the stats diff.
};

/** Daemon `stats` counters behind the per-layer counts. */
const std::pair<const char *, std::pair<const char *, const char *>>
    kCounts[] = {
        {"service.store_exact_hits", {"store", "exact_hits"}},
        {"service.store_near_hits", {"store", "near_hits"}},
        {"service.store_cold", {"store", "cold"}},
        {"service.store_writes", {"store", "improvements_written"}},
        {"service.rejected_queue_full", {"requests", "rejected_queue_full"}},
        {"service.errors", {"requests", "errors"}},
};

/**
 * One round: a fresh daemon on a copy of the pristine store, the same
 * kRoundRequests requests over the connections, then the checks: every
 * reply, and the daemon's counters against what the client sent.
 */
RoundResult
runRound(ServeRun &run, Tracer &tracer, uint64_t index,
         std::vector<std::string> &lines, Report &report)
{
    RoundResult r;
    r.traced = tracer.enabled();
    Daemon d;
    if (!launch(run, d, report))
        return r;
    r.started = true;
    std::vector<ConnState> conns(kConnections);
    for (size_t i = 0; i < kConnections; ++i) {
        conns[i].conn = std::make_unique<Conn>(connectTo(d.port));
        conns[i].stream = std::make_unique<Stream>(
            i, run.opts.seed, run.catalog.shapes.size(),
            run.catalog.repeat_share, run.arch, run.stored);
        if (!conns[i].conn->ok())
            report.fail("could not connect to mse_serve");
    }
    const auto s0 = fetchStats(d.port);
    const int64_t t0 = nowNs();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < conns.size(); ++i)
        threads.emplace_back(clientLoop, std::ref(conns[i]),
                             ((index * kConnections + i) << 32),
                             std::cref(run.catalog.shapes), std::ref(tracer));
    for (std::thread &t : threads)
        t.join();
    r.seconds = nsToS(nowNs() - t0);
    const auto s1 = fetchStats(d.port);
    r.rss_mb = daemonPeakRssMb(d.pid);
    stopDaemon(d);

    r.pr = validate(conns, run.catalog.shapes, run.arch, report);
    if (!s0 || !s1) {
        report.fail("stats fetch failed");
        return r;
    }
    const auto diff = [&](const char *block, const char *key) {
        return counter(*s1, block, key) - counter(*s0, block, key);
    };
    // The daemon must have seen exactly what was sent (the second stats
    // fetch counts itself).
    if (diff("requests", "search") != static_cast<double>(r.pr.searches) ||
        diff("requests", "stats") != static_cast<double>(r.pr.stats_ops + 1))
        report.fail("daemon request counters disagree with the client");
    if (diff("requests", "errors") != 0.0 ||
        diff("requests", "rejected_queue_full") != 0.0)
        report.fail("daemon counted errors or refusals");
    r.entries_start = counter(*s0, "store", "entries");
    r.entries_end = counter(*s1, "store", "entries");
    if (r.entries_start != static_cast<double>(run.stored.size()))
        report.fail("the daemon did not load the whole pre-seeded store");
    for (const auto &[name, at] : kCounts)
        r.counts[name] = diff(at.first, at.second);
    if (lines.empty()) {
        for (const ConnState &c : conns)
            lines.insert(lines.end(), c.lines.begin(), c.lines.end());
    }
    return r;
}

} // namespace

int
runServe(const Options &opts, Report &report)
{
    ServeRun run{opts, accelB(), {}, {}, opts.run_dir + "/store.jsonl", {}};
    run.catalog = makeCatalog(run.arch);
    run.stored = seedStore(run.pristine, run.catalog.shapes, run.arch,
                           opts.seed, report);
    std::printf("# traffic: %.4f of searches are exact repeats (the "
                "catalog networks' repeated layers), every %zuth request "
                "is stats\n",
                run.catalog.repeat_share, kStatsEvery);

    Quality quality;
    if (!opts.trace) {
        Daemon d;
        if (!launch(run, d, report))
            return 1;
        Conn conn(connectTo(d.port));
        quality = qualityPass(conn, run.catalog.shapes, run.arch, opts, report);
        stopDaemon(d);
    }

    // Rounds until the deadline; a traced run alternates untraced and
    // traced rounds, so both see the same host conditions.
    Tracer off(false), tracer(opts.trace);
    std::vector<RoundResult> rounds;
    std::vector<std::string> lines;
    const size_t min_rounds = opts.trace ? 2 : 1;
    const int64_t deadline = nowNs() + static_cast<int64_t>(opts.seconds * 1e9);
    while (report.correct && (rounds.size() < min_rounds || nowNs() < deadline)) {
        const bool traced = opts.trace && rounds.size() % 2 == 1;
        rounds.push_back(runRound(run, traced ? tracer : off, rounds.size(),
                                  lines, report));
        if (!rounds.back().started)
            return 1;
    }
    PhaseResult all;
    std::vector<double> rss, entries_start, entries_end;
    for (const RoundResult &r : rounds) {
        all.merge(r.pr);
        rss.push_back(r.rss_mb);
        entries_start.push_back(r.entries_start);
        entries_end.push_back(r.entries_end);
    }
    report.attempted = all.attempted;
    report.failed = all.failed;
    std::printf("# store entries per round (median): start=%.0f end=%.0f\n",
                median(entries_start), median(entries_end));

    if (!opts.trace) {
        // Every round sends the same requests to a daemon in the same
        // state, so a slower round was slowed by something outside the
        // program (other tenants of a shared host): timings come from
        // the fastest tenth of the rounds. Short rounds make it likely
        // that some fall in quiet moments.
        std::vector<const RoundResult *> by_time;
        for (const RoundResult &r : rounds)
            by_time.push_back(&r);
        std::sort(by_time.begin(), by_time.end(),
                  [](const RoundResult *a, const RoundResult *b) {
                      return a->seconds < b->seconds;
                  });
        by_time.resize((by_time.size() + 9) / 10);
        PhaseResult kept;
        std::vector<double> round_s;
        double seconds = 0.0;
        for (const RoundResult *r : by_time) {
            kept.merge(r->pr);
            round_s.push_back(r->seconds);
            seconds += r->seconds;
        }
        std::printf("# rounds: n=%zu of %zu requests, timing from the "
                    "fastest %zu\n",
                    rounds.size(), kRoundRequests, round_s.size());
        MetricValues e2e;
        e2e["wall_s"] = median(round_s);
        e2e["samples_per_s"] = kept.samples / seconds;
        // Replies carry no per-sample curve: mean samples_to_converge.
        e2e["best_edp_geomean"] = geomean(quality.edp);
        e2e["converge_samples"] =
            quality.converge_sum / static_cast<double>(quality.edp.size());
        e2e["setup_s"] = median(run.setup_s);
        e2e["peak_rss_mb"] = median(rss);
        e2e["req_per_s"] = static_cast<double>(kept.ok) / seconds;
        const LatencySummary lat = summarize(kept.search_ms);
        const LatencySummary ops = summarize(kept.stats_ms);
        describeLatency("search round trip", lat);
        describeLatency("stats round trip", ops);
        e2e["search_p50_ms"] = lat.p50;
        e2e["search_tail_ms"] = lat.tail;
        e2e["ops_p50_ms"] = ops.p50;
        e2e["ok_rate"] =
            static_cast<double>(all.ok) / static_cast<double>(all.attempted);
        emitMetrics(kEndToEnd, e2e, report);
        return 0;
    }

    // Traced run: server-side split from the traced rounds, counts per
    // round, probes on the workload's own store, catalog, novel shapes
    // and request lines.
    PhaseResult traced;
    std::vector<double> plain_s, traced_s;
    for (const RoundResult &r : rounds) {
        (r.traced ? traced_s : plain_s).push_back(r.seconds);
        if (r.traced)
            traced.merge(r.pr);
    }
    MetricValues layer;
    const LatencySummary over = summarize(traced.overhead_ms);
    describeLatency("round trip minus wall_ms", over);
    layer["service.search_wall_ms_p50"] = summarize(traced.wall_ms).p50;
    layer["service.overhead_ms_p50"] = over.p50;
    layer["service.overhead_ms_tail"] = over.tail;
    for (const auto &[name, at] : kCounts) {
        std::vector<double> per_round;
        for (const RoundResult &r : rounds)
            per_round.push_back(r.counts.at(name));
        layer[name] = median(per_round);
    }
    layer["bench.trace_overhead_ratio"] = median(traced_s) / median(plain_s);

    ServiceProbeInputs in;
    in.arch = run.arch;
    in.store_path = opts.run_dir + "/probe_store.jsonl";
    copyFile(run.pristine, in.store_path);
    in.exact = run.catalog.shapes;
    for (size_t i = 0; i < in.exact.size(); ++i) {
        Mapping m;
        CostResult c;
        Rng rng(mixSeed(opts.seed, 6000 + i));
        seedMapping(in.exact[i], run.arch, 8, rng, m, c);
        in.exact_mappings.push_back(m);
    }
    Rng nrng(mixSeed(opts.seed, 9));
    while (in.novel.size() < 64) {
        Workload wl = randomShape(nrng, 9, "probe_novel");
        if (!run.stored.count(layerSignature(wl, run.arch)))
            in.novel.push_back(std::move(wl));
    }
    in.request_lines = lines;
    probeService(in, layer);

    // Share of the client's search round trip explained by the server's
    // search wall time plus the decode, encode and writeback probes.
    double rtt = 0.0, explained = 0.0;
    for (double ms : traced.search_ms)
        rtt += ms;
    for (double w : traced.wall_ms)
        explained += w +
            (layer["service.wire_parse_us"] +
             layer["service.reply_encode_us"]) *
                1e-3;
    explained += layer["service.store_writes"] *
        static_cast<double>(traced_s.size()) *
        layer["service.store_record_us"] * 1e-3;
    layer["bench.accounted_share"] = explained / rtt;
    if (!tracer.writeJsonl(opts.trace_dir + "/serve_mixed.jsonl"))
        report.fail("could not write the trace");
    emitMetrics(kPerLayer, layer, report);
    return 0;
}

} // namespace perfbench
