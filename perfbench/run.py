#!/usr/bin/env python3
"""Build the NIFDY simulator benchmark from source and run it.

    python3 perfbench/run.py --workload fig2-heavy --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the simulator it includes from src/) with CMake
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs one workload. Build output goes to
stderr; the benchmark's report goes to stdout, whose last line is the
JSON result. Exits non-zero, printing no result, when the sources are
missing, the build fails, or the benchmark fails. README.md in this
directory documents the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2-heavy", "bigtree-light", "cshift-cm5", "lossy-faults")

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run cmd in its own process group and return (exit code, stdout).

    On a timeout, or when this script is told to terminate, the whole
    group (a build's compilers too) is killed and waited for."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)

    def kill_group(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    handlers = {sig: signal.signal(sig, on_signal)
                for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        raise
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found: expected "
                           "src/CMakeLists.txt beside perfbench/")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4",
                  "--target", "nifdy_perfbench"])
    for cmd in steps:
        rc, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            raise RuntimeError(f"{cmd[0]} exited with {rc}")
    return os.path.join(bdir, "nifdy_perfbench")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrunken workloads (self-test only)")
    args = ap.parse_args(argv)

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    try:
        rc, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 3
    if rc != 0:
        sys.stderr.write(out)
        print(f"perfbench: benchmark exited with {rc}", file=sys.stderr)
        return rc if rc > 0 else 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
