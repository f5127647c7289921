/**
 * @file
 * perfbench: runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --serve-bin PATH --run-dir DIR --trace-dir DIR [--corrupt]
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. --trace 0 prints the end-to-end metrics,
 * --trace 1 the per-layer ones. --corrupt breaks one reported mapping
 * before the correctness check (a self-test: the run must then fail).
 * Normally started through perfbench/run.py, which builds this binary.
 */
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep_cnn_gamma|serve_mixed "
                 "--seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --run-dir DIR "
                 "--trace-dir DIR [--corrupt]\n");
    return 2;
}

bool
makeDirs(const std::string &path)
{
    for (size_t i = 1; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            const std::string prefix = path.substr(0, i);
            if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--setup-probe") == 0)
        return runSetupProbe();

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--corrupt") {
            opts.corrupt = true;
            continue;
        }
        if (!val)
            return usage();
        ++i;
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed")
            opts.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            opts.trace = std::strcmp(val, "1") == 0;
        else if (arg == "--serve-bin")
            opts.serve_bin = val;
        else if (arg == "--run-dir")
            opts.run_dir = val;
        else if (arg == "--trace-dir")
            opts.trace_dir = val;
        else
            return usage();
    }
    if (opts.run_dir.empty() || opts.trace_dir.empty() ||
        !(opts.seconds > 0.0) || !makeDirs(opts.run_dir) ||
        !makeDirs(opts.trace_dir))
        return usage();
    char self[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0)
        return 2;
    self[n] = '\0';
    opts.self_path = self;

    Report report;
    int rc;
    if (opts.workload == "sweep_cnn_gamma")
        rc = runSweep(opts, report);
    else if (opts.workload == "serve_mixed")
        rc = runServe(opts, report);
    else
        return usage();
    if (report.attempted == 0)
        report.fail("no operation was attempted");
    report.print();
    return rc != 0 || !report.correct ? 1 : 0;
}
