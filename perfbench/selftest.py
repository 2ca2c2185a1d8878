#!/usr/bin/env python3
"""Short self-test of the simulator benchmark.

    python3 perfbench/selftest.py

Checks, in about a minute:
  * BENCHMARK.json has the documented shape (keys, name and unit
    syntax, bounds, a setup_s metric);
  * a short run of every workload, untraced and traced, prints a
    correct result line holding exactly the end-to-end or per-layer
    metrics that BENCHMARK.json names, each with its unit. Each run
    simulates every seed at least twice in-process, and "correct"
    requires identical deterministic results across those runs and
    between untraced, profiled and audited ones;
  * without the simulator sources beside it, the benchmark exits
    non-zero and prints no result.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_KEYS = {"name", "unit", "better", "bound"}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")
    return ok


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        check(set(m) == METRIC_KEYS, f"end_to_end keys of {m['name']}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"},
              f"per_layer keys of {m['name']}")
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit syntax of {m['name']}")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for n in names:
        check(NAME.match(n), f"name syntax of {n}")
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower", "setup_s metric")
    check(setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check_run(spec, workload, trace):
    what = f"{workload} --trace {trace}"
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds",
                      "1", "--trace", str(trace), "--quick"])
    if not check(proc.returncode == 0, f"{what} exits 0"):
        print(proc.stderr[-2000:])
        return
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{what} result keys")
    check(res["correct"] is True and res["failed"] == 0,
          f"{what} is correct")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
          f"{what} attempted >= 1")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = res["metrics"]
    check(set(got) == {m["name"] for m in want},
          f"{what} emits exactly the named metrics")
    for m in want:
        v = got.get(m["name"], {})
        check(set(v) == {"value", "unit"} and v["unit"] == m["unit"],
              f"{what} {m['name']} carries unit {m['unit']}")
        value = v.get("value")
        if check(isinstance(value, (int, float)) and math.isfinite(value),
                 f"{what} {m['name']} is a finite number") and not trace:
            check(value != 0, f"{what} {m['name']} is not 0")


def check_bare():
    """A checkout holding only BENCHMARK.json and perfbench/ fails."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "bare checkout fails without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare()
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
