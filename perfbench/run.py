#!/usr/bin/env python3
"""Entry point of the rtdrm benchmark.

Builds the benchmark binary from source (perfbench/CMakeLists.txt compiles
../src into it), runs the benchmark's own unit tests, then runs one workload
in a child process so that its peak RSS is its own:

    python3 perfbench/run.py --workload paper_sweep --seed 42 --seconds 20 --trace 0

`--workload all` runs every workload, each in its own process, and prints
every metric of each. The last stdout line of a single-workload run is the
result object {"correct", "attempted", "failed", "metrics"}; the full record
(run context, both metric sets, tail percentile, failures) and the traced
pass's spans are written under .bench_out/.

Run it from the repository root. Default workload seed: 42; held-out seed
for checking later claims: 7.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ["paper_sweep", "scale_fabric", "fuzz_cross"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; True on success."""
    cfg = subprocess.run(
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if cfg.returncode != 0:
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    res = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown-not-a-git-checkout"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_result(line, trace):
    """Problems with the benchmark binary's result line against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(res))
    got = res.get("metrics", {})
    for name, unit in want.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name].get("unit") != unit:
            problems.append("unit of %s is %s, not %s"
                            % (name, got[name].get("unit"), unit))
    for name in got:
        if name not in want:
            problems.append("unlisted metric " + name)
    for name, unit in want.items():
        if not NAME.match(name) or not UNIT.match(unit):
            problems.append("bad metric name or unit: %s [%s]" % (name, unit))
    return problems


def run_workload(name, args):
    cmd = [str(BUILD / "perfbench_rtdrm"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", str(OUT), "--git-sha", git_sha(),
           "--expect", str(ROOT / "perfbench" / "expected.json")]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(res.stdout)
        log("perfbench: %s exited with %d" % (name, res.returncode))
        return res.returncode or 1
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("perfbench: %s result does not match BENCHMARK.json: %s"
            % (name, "; ".join(problems)))
        return 1
    sys.stdout.write(res.stdout)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    OUT.mkdir(exist_ok=True)
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("perfbench: self-test failed")
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        sys.stdout.flush()
        worst = max(worst, run_workload(name, args))
    return worst


if __name__ == "__main__":
    sys.exit(main())
