#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run it from the repository root. It runs every workload shortened
(run.py --quick for 1 second) under the development seed and the holdout
seed, once with --trace 0 and once with --trace 1, and checks that each run
is correct and reports exactly the metrics BENCHMARK.json names for that
mode, each with its unit. It takes about two minutes after the build.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
# The seed benchmark work is developed on, and a holdout seed to re-check
# a claimed gain on inputs it was not tuned on.
DEV_SEED = 1
HOLDOUT_SEED = 7919


def check(spec, workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("nothing attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"metrics differ: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        if m.get("unit") != wanted.get(name) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
    return problems


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failed = 0
    for w in spec["workloads"]:
        for seed in (DEV_SEED, HOLDOUT_SEED):
            for trace in (0, 1):
                problems = check(spec, w["name"], seed, trace)
                status = "ok" if not problems else "FAIL " + "; ".join(problems)
                print(f"{w['name']:14s} seed {seed:<5d} trace {trace}: {status}", flush=True)
                failed += bool(problems)
    print("selftest: " + ("all runs passed" if not failed else f"{failed} run(s) failed"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
