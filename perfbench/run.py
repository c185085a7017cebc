#!/usr/bin/env python3
"""Build and run the pragma benchmark; compare result sets.

Run one measurement (from the repository root):

    python3 perfbench/run.py --workload managed_study --seed 1 --seconds 20 --trace 0

The last line of stdout is the result JSON
({"correct", "attempted", "failed", "metrics"}).  --trace 1 is the separate
traced run: it reports the per-layer metrics and validates the exported
Chrome trace with the unmodified tools/trace_check binary.  --out DIR also
stores each result as a record for the compare mode.

Other modes:

    python3 perfbench/run.py compare BASE_DIR_OR_FILE CHANGE_DIR_OR_FILE
    python3 perfbench/run.py selftest

The benchmark compiles the library from ../src with its own CMake build in
$CARGO_TARGET_DIR (default .bench_build); the first run of a checkout builds.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("managed_study", "replay_sweep", "admission_stream")
RUN_TIMEOUT_S = 170
# Span categories the program itself must emit in each workload's traced
# unit.  The exported trace holds only that unit: the benchmark's own spans
# are in the "bench" category and its standalone probes run untraced.  The
# scheduler path and the emulator have no spans, so "service" and "amr"
# cannot be required.
REQUIRED_CATEGORIES = {
    "managed_study": "core,partition,agents",
    "replay_sweep": "core,partition",
    "admission_stream": "core,partition,agents",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configure (once) and build the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pragma", "service", "runtime.hpp")):
        log("perfbench: the pragma sources (src/pragma) are not in this checkout")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "trace_check"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(2)
    return out


def run_once(args, out_dir=None):
    """One measurement; echoes the binary's output and returns (code, result)."""
    binary_dir = build()
    tag = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work = os.path.join(".bench_work", tag)
    # One trace per workload (about 10 MB), overwritten by the next traced run.
    trace_out = os.path.join(".bench_work", "trace-%s.json" % args.workload)
    cmd = [os.path.join(binary_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--trace-out", trace_out,
           "--digests", os.path.join(HERE, "digests.txt")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 5, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log("perfbench: no result line (exit %d)" % proc.returncode)
        return proc.returncode or 6, None
    code = proc.returncode
    extra = {}
    for line in lines:
        if line.startswith("extra: "):
            extra = json.loads(line[len("extra: "):])
    if args.trace:
        check = subprocess.run(
            [os.path.join(binary_dir, "trace_check"), trace_out,
             "--require", REQUIRED_CATEGORIES[args.workload]],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        lines.insert(-1, "  trace_check: " + check.stdout.strip().replace("\n", " | "))
        result["attempted"] += 1
        if check.returncode != 0:
            result["failed"] += 1
            result["correct"] = False
            code = code or 1
        lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "exit": code, "result": result,
                  "extra": extra}
        name = "%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(out_dir, name), "w") as f:
            json.dump(record, f, indent=1)
    return code, result


# ---------------------------------------------------------------------------
# Statistics and verdicts
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound):
    """better / worse / unchanged / unresolved for one metric.

    Worse: the change's median is worse than the base median by more than the
    bound.  Better: it is better by more than either side's spread and the
    interquartile ranges do not overlap.  When a side's spread exceeds the
    bound the result is unresolved unless every change run beats (or loses
    to) every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    _, med_a, _ = quartiles(base)
    _, med_b, _ = quartiles(change)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wide = max(spread(base), spread(change))
    all_better = all(sign * b < sign * a for a in base for b in change)
    all_worse = all(sign * b > sign * a for a in base for b in change)
    if bound is None or wide > bound:
        if all_better:
            return "better"
        if all_worse:
            return "worse"
        if bound is None and abs(worse_by) <= wide:
            return "unchanged"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    q1a, _, q3a = quartiles(base)
    q1b, _, q3b = quartiles(change)
    no_overlap = (q3b < q1a) if better == "lower" else (q1b > q3a)
    if -worse_by > wide and no_overlap:
        return "better"
    return "unchanged"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_records(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if "result" in record and "workload" in record:
            record["file"] = name
            records.append(record)
    return records


def record_metrics(record):
    """Gated metrics, then the table-only figures, of one record."""
    metrics = dict(record["result"]["metrics"])
    for name, value in record.get("extra", {}).items():
        if name != "failed_ratio":  # printed from the counts instead
            metrics.setdefault(name, value)
    return metrics


def side_text(values, bound):
    """One side's quartiles and spread; '!' marks a spread above the bound."""
    s = spread(values)
    mark = "!" if bound is not None and s > bound else ""
    return "%.4g/%.4g/%.4g %.3f%s" % (quartiles(values) + (s, mark))


def compare(base_path, change_path):
    bench = load_benchmark()
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = {"base": load_records(base_path), "change": load_records(change_path)}
    for side, records in sides.items():
        print("%s: %d runs read" % (side, len(records)))
        for r in records:
            res = r["result"]
            print("  %s  workload=%s seed=%s trace=%s correct=%s attempted=%d failed=%d"
                  % (r["file"], r["workload"], r["seed"], r["trace"], res["correct"],
                     res["attempted"], res["failed"]))
    keys = sorted({(r["workload"], r["trace"]) for rs in sides.values() for r in rs})
    worse = 0
    for workload, trace in keys:
        group = {side: [r for r in rs if (r["workload"], r["trace"]) == (workload, trace)]
                 for side, rs in sides.items()}
        print("\n== %s (trace=%d) ==" % (workload, trace))
        for side, rs in group.items():
            attempted = sum(r["result"]["attempted"] for r in rs)
            failed = sum(r["result"]["failed"] for r in rs)
            print("  failed_ratio %-6s %d/%d = %.4g" % (side, failed, attempted,
                                                       failed / attempted if attempted else 0.0))
        if not group["base"] or not group["change"]:
            print("  (one side has no runs)")
            continue
        print("  %-38s %-7s %-6s %-42s %-42s %s" % ("metric", "unit", "gated",
                                                   "base q1/median/q3 spread",
                                                   "change q1/median/q3 spread",
                                                   "verdict"))
        base_metrics = [record_metrics(r) for r in group["base"]]
        change_metrics = [record_metrics(r) for r in group["change"]]
        for name, first in base_metrics[0].items():
            a = [m[name]["value"] for m in base_metrics if name in m]
            b = [m[name]["value"] for m in change_metrics if name in m]
            if not b:
                continue
            d = defs.get(name, {"unit": first["unit"], "better": first.get("better", "lower")})
            bound = d.get("bound")
            v = verdict(a, b, d["better"], bound)
            worse += v == "worse" and bound is not None
            print("  %-38s %-7s %-6s %-42s %-42s %s"
                  % (name, d["unit"], "yes" if bound is not None else "no",
                     side_text(a, bound), side_text(b, bound), v))
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def selftest():
    binary_dir = build()
    failures = []
    proc = subprocess.run([os.path.join(binary_dir, "perfbench"), "--self-test"],
                          stdout=subprocess.PIPE, text=True)
    print(proc.stdout.strip())
    if proc.returncode != 0:
        failures.append("perfbench --self-test")
    listed = json.loads(subprocess.run([os.path.join(binary_dir, "perfbench"), "--list-metrics"],
                                       stdout=subprocess.PIPE, text=True).stdout)
    bench = load_benchmark()
    strip = lambda ms: [{k: m[k] for k in ("name", "unit", "better")} for m in ms]
    for key in ("end_to_end", "per_layer"):
        if strip(bench[key]) != listed[key]:
            failures.append("BENCHMARK.json %s differs from the printed metric table" % key)
    if [w["name"] for w in bench["workloads"]] != listed["workloads"]:
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    cases = [
        (([1.0] * 5, [0.5] * 5, "lower", 0.1), "better"),
        (([1.0] * 5, [1.5] * 5, "lower", 0.1), "worse"),
        (([1.0, 1.01, 0.99, 1.0, 1.02], [1.02, 1.0, 1.01, 0.99, 1.0], "lower", 0.1), "unchanged"),
        (([1.0, 2.0, 1.0, 2.0], [1.5, 1.0, 2.0, 1.2], "lower", 0.1), "unresolved"),
        (([100.0] * 4, [130.0] * 4, "higher", 0.2), "better"),
        (([100.0] * 4, [70.0] * 4, "higher", 0.2), "worse"),
    ]
    for (a, b, better, bound), want in cases:
        got = verdict(a, b, better, bound)
        if got != want:
            failures.append("verdict(%s, %s) = %s, want %s" % (a, b, got, want))
    for f in failures:
        print("FAIL " + f)
    print("run.py self-test: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare BASE CHANGE")
            return 2
        return compare(argv[1], argv[2])
    if argv and argv[0] == "selftest":
        return selftest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    code, _ = run_once(args, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
