#!/usr/bin/env python3
"""Build and run the tagspin benchmark.

Benchmark run (prints a detail line, then the result line last):
    python3 perfbench/run.py --workload survey|fleet|ingest --seed N \
        --seconds S --trace 0|1

Steadiness mode (N runs of one workload, one seed each; prints median,
quartiles and extremes of every metric, raw and normalized side by side):
    python3 perfbench/run.py --steadiness N --workload W [--seconds S]
        [--first-seed K] [--trace 0|1]

Probe calibration (medians of back-to-back probes, for calibration.json):
    python3 perfbench/run.py --calibrate-probe SECONDS

Run from the root of a checkout.  The program is built from ../src into
.bench_build/perfbench; nothing is written outside the checkout.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
WORKLOADS = ("survey", "fleet", "ingest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the runner; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(RUNNER)


def calibration():
    with open(os.path.join(HERE, "calibration.json")) as f:
        return json.load(f)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, listed):
    """Give `result` exactly the metrics `listed` (BENCHMARK.json entries):
    a per-layer metric the workload does not exercise reads 0.  Returns
    the names whose printed unit disagrees with BENCHMARK.json, and the
    names printed but not listed."""
    printed = result["metrics"]
    wrong = [m["name"] for m in listed
             if m["name"] in printed and printed[m["name"]]["unit"] != m["unit"]]
    names = {m["name"] for m in listed}
    extra = sorted(set(printed) - names)
    result["metrics"] = {
        m["name"]: printed.get(m["name"], {"value": 0.0, "unit": m["unit"]})
        for m in listed}
    return wrong, extra


def runner_args(cal, workload, seed, seconds, trace):
    nominal = cal["probe_nominal_s"]
    args = [RUNNER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--probe-part", cal["probe_part"][workload],
            "--probe-nominal-fp", repr(nominal["fp"]),
            "--probe-nominal-int", repr(nominal["int"])]
    for metric, k in sorted(cal["elasticity"][workload].items()):
        args += ["--elasticity", "%s=%r" % (metric, k)]
    if trace:
        args += ["--spans", os.path.join(
            ROOT, ".bench_build", "spans_%s_%d.jsonl" % (workload, seed))]
    return args


def run_once(cal, bench, workload, seed, seconds, trace):
    """Run the runner; returns (exit code, detail, result).  The result
    holds every metric BENCHMARK.json lists for the mode (end_to_end
    untraced, per_layer traced); detail and result are None when the runner
    printed no result."""
    try:
        done = subprocess.run(runner_args(cal, workload, seed, seconds, trace),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None, None
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        return done.returncode or 1, None, None
    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])
    printed = set(result["metrics"])
    wrong, extra = complete(result, bench["per_layer" if trace else "end_to_end"])
    if extra:
        log("perfbench: not in BENCHMARK.json, left out: %s" % ", ".join(extra))
    # Every end-to-end metric must be measured; none may default to 0.
    missing = [] if trace else [m["name"] for m in bench["end_to_end"]
                                if m["name"] not in printed]
    code = done.returncode
    if wrong or missing:
        log("perfbench: metrics disagree with BENCHMARK.json: units of %s, "
            "missing %s" % (wrong, missing))
        result["correct"] = False
        code = code or 1
    return code, detail, result


def spread_row(name, values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    rel = (q3 - q1) / med if med else float("nan")
    return {"metric": name, "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "iqr_over_median": rel}


def steadiness(cal, bench, workload, runs, seconds, first_seed, trace):
    results = []
    for i in range(runs):
        seed = first_seed + i
        code, detail, result = run_once(cal, bench, workload, seed, seconds, trace)
        if code != 0 or result is None:
            log("perfbench: run with seed %d failed (exit %d)" % (seed, code))
            return 1
        results.append((seed, detail, result))
        print(json.dumps({"seed": seed, "detail": detail["detail"],
                          "metrics": result["metrics"]}))
        log("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))))
    names = sorted(results[0][2]["metrics"])
    rows = []
    for name in names:
        row = spread_row(name, [r[2]["metrics"][name]["value"] for r in results])
        key = "host.raw." + name
        if key in results[0][1]["detail"]:
            row["raw"] = spread_row(
                key, [r[1]["detail"][key]["value"] for r in results])
        rows.append(row)
    # Normalized and raw spreads side by side.
    print("%-18s %12s %12s %12s %12s %12s %8s | %12s %8s" % (
        "metric", "median", "q1", "q3", "min", "max", "iqr/med",
        "raw median", "raw i/m"))
    for row in rows:
        raw = row.get("raw")
        print("%-18s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f | %12s %8s" % (
            row["metric"], row["median"], row["q1"], row["q3"], row["min"],
            row["max"], row["iqr_over_median"],
            "%.6g" % raw["median"] if raw else "-",
            "%.4f" % raw["iqr_over_median"] if raw else "-"))
    print(json.dumps({"workload": workload, "runs": runs, "seconds": seconds,
                      "seeds": [r[0] for r in results], "spreads": rows}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=None)
    parser.add_argument("--calibrate-probe", type=float, default=0.0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    if args.calibrate_probe > 0:
        return subprocess.run([RUNNER, "--calibrate-probe",
                               str(args.calibrate_probe)]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    cal = calibration()
    bench = benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.steadiness > 0:
        first = args.first_seed if args.first_seed is not None else cal["seeds"]["default"]
        return steadiness(cal, bench, args.workload, args.steadiness, seconds,
                          first, args.trace)
    seed = args.seed if args.seed is not None else cal["seeds"]["default"]
    code, detail, result = run_once(cal, bench, args.workload, seed, seconds,
                                    args.trace)
    if result is not None:
        print(json.dumps(detail))
        print(json.dumps(result))
    if code != 0:
        log("perfbench: %s run failed (exit %d)" % (args.workload, code))
    return code


if __name__ == "__main__":
    sys.exit(main())
