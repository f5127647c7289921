#!/usr/bin/env python3
"""Build and run one perfbench workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_cnn_gamma --seed 1 \
        --seconds 10 --trace 0

Builds the library, the mse_serve daemon and the perfbench binary from
this checkout into .bench_build/ (CMake, Release), runs the workload
with MSE_THREADS=1 and every other MSE_* variable cleared, checks that
the printed metrics match BENCHMARK.json, and relays the binary's
output. The last stdout line is the JSON result. The exit code is
non-zero when the build fails, the sources are missing, a metric is
missing or misnamed, or any correctness check failed.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; False on failure."""
    for needed in ("src/CMakeLists.txt", "tools/mse_serve.cpp"):
        if not (ROOT / needed).is_file():
            log(f"missing {needed}: run from a full source checkout")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MSE_")}
    env["MSE_THREADS"] = "1"
    return env


def run_bench(args):
    """Run the perfbench binary in its own process group."""
    run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", str(BUILD / "mse_serve"),
           "--run-dir", str(run_dir),
           "--trace-dir", str(BUILD / "traces")]
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env(), text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        out = ""
    finally:
        # The binary's daemons share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, out


def check_result(line, spec, trace):
    """Problems with the result line (empty list = well formed)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys differ from " + str(sorted(RESULT_KEYS))]
    table = spec["per_layer" if trace else "end_to_end"]
    want = [(m["name"], m["unit"]) for m in table]
    got = [(k, v.get("unit")) for k, v in result["metrics"].items()]
    problems = []
    if got != want:
        problems.append(f"metrics {got} differ from BENCHMARK.json {want}")
    for name, value in result["metrics"].items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(value.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: corrupt one reported mapping")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file() or not build():
        return 2
    spec = load_spec()
    # The perfbench binary rejects unknown workload names itself.
    rc, out = run_bench(args)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], spec, args.trace) if lines else [
        "no output"]
    if problems:
        for p in problems:
            log(p)
        return 1
    print(lines[-1], flush=True)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
