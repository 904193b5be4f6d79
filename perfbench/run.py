#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload serve_mixed|stream_drift|cold_solve \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark (perfbench/
CMakeLists.txt: the library, mincutd, the harness and their traced twins)
in .bench_build/perfbench as a Release build, then runs the harness with
UMC_THREADS set to the workload's width.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the plain harness and then the traced one for half of --seconds each, with
the same seed; it reports the per-layer metrics, the tracing overhead
between the two, and fails if their value checksum or Minor-Aggregation
round total differ.

Standard output: one line with the host and run settings, one line per
metric, and last the JSON result
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only if every answer was correct.
"""

import argparse
import json
import os
import pathlib
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = pathlib.Path(".bench_build") / "perfbench"

# Each workload's thread width, passed to it as UMC_THREADS.
WIDTH = {"serve_mixed": 2, "stream_drift": 1, "cold_solve": 2}
# Layers a workload's path does not reach; their per-layer metrics are 0.
OFF_PATH = {
    "serve_mixed": ("stream.",),
    "stream_drift": ("server.", "fault.non_exact_tier_share"),
    "cold_solve": ("server.", "stream.", "fault.non_exact_tier_share",
                   "mincut.packing_cache_hit_ratio"),
}
# A harness run must end within the benchmark's per-run limit of 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def private_env(**extra):
    """The environment for child processes: temporary files stay in the build
    directory, so a run writes nothing outside the checkout."""
    tmp = (BUILD / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), **extra)


def build():
    """Configures (once) and builds the Release benchmark executables."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=private_env()).returncode != 0:
                tail = logfile.read_text().splitlines()[-30:]
                log("build failed:\n" + "\n".join(tail))
                sys.exit(1)


def cmake_cache(key):
    text = (BUILD / "CMakeCache.txt").read_text()
    m = re.search(rf"^{key}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else ""


def stamp(args, width):
    """Host and run settings every result is reported with."""
    cpu = "unknown"
    try:
        m = re.search(r"^model name\s*:\s*(.*)$", pathlib.Path("/proc/cpuinfo").read_text(), re.M)
        cpu = m.group(1) if m else platform.processor() or "unknown"
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    try:
        sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"), "git_sha": sha,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "width": width}


def run_harness(args, traced, seconds, deadline):
    suffix = "_traced" if traced else ""
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(BUILD / f"perfbench{suffix}"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--work-dir", str(work)]
    if args.workload == "serve_mixed":
        cmd += ["--daemon", str(BUILD / f"mincutd{suffix}")]
    if args.quick:
        cmd += ["--quick", "1"]
    # Its own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, env=private_env(UMC_THREADS=str(WIDTH[args.workload])),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):  # up to 5 s for the group's last process to exit
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        log(f"{cmd[0]} did not finish in time")
        sys.exit(1)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"{cmd[0]} exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WIDTH))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="shortened workload units (the harness self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    build()
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    width = WIDTH[args.workload]
    settings = stamp(args, width)
    if settings["build_type"] != "Release":
        log(f"refusing to report from a {settings['build_type'] or 'unset'} build")
        sys.exit(1)

    failures = []
    if args.trace == 0:
        runs = [run_harness(args, False, args.seconds, deadline)]
        wanted = spec["end_to_end"]
    else:
        runs = [run_harness(args, False, args.seconds / 2, deadline),
                run_harness(args, True, args.seconds / 2, deadline)]
        wanted = spec["per_layer"]
        plain, traced = runs
        for key in ("checksum", "ma_rounds"):
            if plain[key] != traced[key]:
                failures.append(f"{key} drifted between runs: {plain[key]} vs {traced[key]}")
        base = statistics.median(plain["unit_wall_s"])
        traced["metrics"]["obs.trace_overhead_frac"] = (
            statistics.median(traced["unit_wall_s"]) - base) / base
    result = runs[-1]
    for run in runs:
        failures += run["failures"]
        if run["width"] != width:
            failures.append(f"ran at width {run['width']}, expected {width}")
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None and args.trace and m["name"].startswith(OFF_PATH[args.workload]):
            value = 0
        if value is None:
            failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    if failures and failed == 0:
        failed = 1  # a drift or a missing metric fails the run as a whole
    correct = failed == 0

    print(json.dumps({"stamp": settings}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':36s} {failed / max(attempted, 1):.6g} share "
          f"({failed} of {attempted} attempted)")
    print(f"{'solve_samples':36s} {result['metrics']['solve_samples']:.0f} count")
    for why in failures:
        log(f"FAIL {why}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
