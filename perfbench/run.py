#!/usr/bin/env python3
"""The Effective PRE benchmark.

One run (run from the repository root, or anywhere: the script finds it):

    python3 perfbench/run.py --workload suite-distribution --seed 1 --seconds 30 --trace 0

builds the driver package (perfbench/driver) in release mode into
$CARGO_TARGET_DIR (default .bench_build), prints a host fingerprint line,
runs the workload, and ends its stdout with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. A failed check exits
non-zero.

Tooling around single runs:

    python3 perfbench/run.py series --workload W --runs 10 --out A.jsonl
        runs W on seeds 1..10 for BENCHMARK.json's run_seconds, appends
        each run to A.jsonl, and prints every metric's median and quartile
        spread over the runs whose checks passed, against its bound;
    python3 perfbench/run.py compare A.jsonl B.jsonl
        compares two sets of runs, one row per workload and metric, and
        refuses sets taken on different hosts or toolchains; a new run
        whose checks failed is a regression;
    python3 perfbench/run.py selftest
        runs the Python and Rust self-tests and checks that
        BENCHMARK.json declares exactly what the driver reports.

perfbench/README.md says why each workload exists and which layer metric
should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = BENCH_DIR / "driver" / "Cargo.toml"
BINARY_NAME = "perfbench-driver"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# Fingerprint fields that must agree before two sets of runs compare.
HOST_KEYS = ("nproc", "cpu", "rustc", "profile")
FINGERPRINT_PREFIX = "# fingerprint "


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def check_sources():
    """The driver builds the repository's crates from source."""
    missing = [p for p in ("Cargo.toml", "crates/core", "crates/serve") if not (ROOT / p).exists()]
    if missing:
        fail(f"not a checkout of the repository: missing {', '.join(missing)} under {ROOT}")


def build():
    """Release-build the driver; returns the binary's path."""
    check_sources()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"building the driver: {e}", 1)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        fail("building the driver failed", 1)
    binary = target_dir() / "release" / BINARY_NAME
    return binary if binary.is_absolute() else ROOT / binary


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """Content hash of what the driver builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.parts and "__pycache__" not in p.parts)
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return "tree:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(workload, seed):
    commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else ""
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "commit": f"git:{commit}" if commit else source_digest(),
        "workload": workload,
        "seed": seed,
    }


def run_once(workload, seed, seconds, trace):
    """One contract run; prints the driver's stdout and returns its exit code."""
    binary = build()
    print(FINGERPRINT_PREFIX + json.dumps(fingerprint(workload, seed), sort_keys=True), flush=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


# ---------------------------------------------------------------- statistics

def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative = better)."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(base_values, new_values, metric):
    """One comparison row's verdict for one metric on one workload."""
    base, new = statistics.median(base_values), statistics.median(new_values)
    worse = worsening(base, new, metric["better"])
    noise = spread(base_values) if len(base_values) >= 2 else float("inf")
    if worse > metric["bound"]:
        return "regressed"
    if noise > metric["bound"]:
        return "unresolved"
    if -worse > noise:
        return "better"
    return "same"


# ---------------------------------------------------------------- run sets

def load_runs(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            runs.append(json.loads(line))
    if not runs:
        fail(f"{path}: no runs")
    return runs


def parse_run(stdout):
    """(fingerprint, result) from one run's stdout."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    fp = next((json.loads(l[len(FINGERPRINT_PREFIX):]) for l in lines
               if l.startswith(FINGERPRINT_PREFIX)), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return fp, result


def host_of(fp):
    return {k: fp.get(k) for k in HOST_KEYS}


def passed(record):
    """Whether a recorded run's checks all passed."""
    result = record["result"]
    return result.get("correct") is True and result.get("failed") == 0


def series(args):
    spec = benchmark_spec()
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    seconds = spec["run_seconds"]
    out = Path(args.out)
    values = {m["name"]: [] for m in metrics}
    bad = 0
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        fp, result = parse_run(done.stdout)
        ok = done.returncode == 0 and result is not None and result["correct"]
        bad += not ok
        print(f"seed {seed}: exit {done.returncode}, "
              f"{'correct' if ok else 'FAILED'}", flush=True)
        if fp is None or result is None:
            continue
        record = {"fingerprint": fp, "trace": args.trace, "result": result}
        with out.open("a") as f:
            f.write(json.dumps(record) + "\n")
        if not passed(record):
            continue
        for m in metrics:
            values[m["name"]].append(result["metrics"][m["name"]]["value"])
    print(f"\n{args.workload}: {args.runs} runs, seeds 1..{args.runs}, {bad} failed "
          f"(left out of the medians)")
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>7}  status")
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        s = spread(v)
        bound = m.get("bound")
        status = ""
        if bound is not None:
            status = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO NOISY")
        print(f"{m['name']:40} {statistics.median(v):>14.6g} {s:>8.4f} "
              f"{'' if bound is None else bound:>7}  {status}")
    return 1 if bad else 0


def compare(args):
    spec = benchmark_spec()
    a, b = load_runs(args.base), load_runs(args.new)
    hosts = {json.dumps(host_of(r["fingerprint"]), sort_keys=True) for r in a + b}
    if len(hosts) != 1:
        print("perfbench: refusing to compare runs whose host fingerprints differ:", file=sys.stderr)
        for h in sorted(hosts):
            print(f"  {h}", file=sys.stderr)
        return 2
    commits = lambda runs: sorted({r["fingerprint"]["commit"] for r in runs})
    print(f"base: {', '.join(commits(a))} ({len(a)} runs)")
    print(f"new:  {', '.join(commits(b))} ({len(b)} runs)")
    print(f"{'workload':20} {'metric':16} {'base':>12} {'new':>12} {'worse':>8} {'bound':>6} "
          f"{'spread':>7}  verdict")
    regressed = False
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        ra = [r for r in a if r["fingerprint"]["workload"] == w and r["trace"] == 0]
        rb = [r for r in b if r["fingerprint"]["workload"] == w and r["trace"] == 0]
        failed_a = sum(not passed(r) for r in ra)
        failed_b = sum(not passed(r) for r in rb)
        if failed_a:
            print(f"{w:20} {'checks':16} {failed_a} of {len(ra)} base runs failed their checks; "
                  f"left out")
        if failed_b:
            print(f"{w:20} {'checks':16} {failed_b} of {len(rb)} new runs failed their checks  "
                  f"regressed")
            regressed = True
        ra = [r for r in ra if passed(r)]
        rb = [r for r in rb if passed(r)]
        if not ra or not rb:
            continue
        for m in spec["end_to_end"]:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in rb]
            v = verdict(va, vb, m)
            regressed |= v == "regressed"
            noise = spread(va) if len(va) >= 2 else float("nan")
            print(f"{w:20} {m['name']:16} {statistics.median(va):>12.6g} {statistics.median(vb):>12.6g} "
                  f"{worsening(statistics.median(va), statistics.median(vb), m['better']):>8.4f} "
                  f"{m['bound']:>6} {noise:>7.4f}  {v}")
    return 1 if regressed else 0


def selftest(_args):
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_run"], cwd=BENCH_DIR)
    check_sources()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cargo = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                            "--manifest-path", str(MANIFEST)], cwd=ROOT, env=env)
    listed = json.loads(subprocess.run([str(build()), "--list-metrics"], cwd=ROOT,
                                       capture_output=True, text=True, check=True).stdout)
    spec = benchmark_spec()
    declared_ok = (
        [w["name"] for w in spec["workloads"]] == listed["workloads"]
        and [[m["name"], m["unit"]] for m in spec["end_to_end"]] == listed["end_to_end"]
        and [[m["name"], m["unit"]] for m in spec["per_layer"]] == listed["per_layer"]
    )
    if not declared_ok:
        print("perfbench: BENCHMARK.json does not declare what the driver reports", file=sys.stderr)
    return 0 if tests.returncode == 0 and cargo.returncode == 0 and declared_ok else 1


def main(argv):
    if argv and argv[0] in ("series", "compare", "selftest"):
        p = argparse.ArgumentParser(prog="perfbench/run.py " + argv[0])
        if argv[0] == "series":
            p.add_argument("--workload", required=True)
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--out", required=True)
        elif argv[0] == "compare":
            p.add_argument("base")
            p.add_argument("new")
        args = p.parse_args(argv[1:])
        return {"series": series, "compare": compare, "selftest": selftest}[argv[0]](args)
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")
    return run_once(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
