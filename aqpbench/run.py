#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.md).

One run, from the root of a checkout:

    python3 aqpbench/run.py --workload serve_cold --seed 1 --trace 0

builds the library sources under src/ and the aqpbench program into
.bench_build/, runs the workload, prints every metric by name with its unit,
and prints as its last line one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1, as listed in BENCHMARK.json).

Steadiness report:

    python3 aqpbench/run.py --steadiness [--runs 10] [--workloads a,b]

runs each workload on --runs different seeds and prints each end-to-end
metric's median and quartiles against the bounds in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "aqpbench")
BINARY = os.path.join(BUILD_DIR, "aqpbench")
# Program time of one benchmark run (one or two processes), after the build.
RUN_BUDGET_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds aqpbench; exits nonzero on failure."""
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        log("aqpbench: library sources not found at %s" % SRC_DIR)
        sys.exit(1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "aqpbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("aqpbench: build step failed: %s" % " ".join(cmd))
            sys.exit(1)


def source_identity():
    """The commit when the checkout is a git repository, and always a digest
    of src/ and the benchmark sources, so results compare like for like."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for base in (SRC_DIR, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_program(workload, seed, seconds, trace, deadline):
    """Runs aqpbench once, killing it at `deadline` (time.monotonic()), and
    returns its parsed result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        log("aqpbench: no time left for the run (%d s budget)" % RUN_BUDGET_S)
        sys.exit(1)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log("aqpbench: program timed out (%d s budget)" % RUN_BUDGET_S)
        sys.exit(1)
    if r.stderr:
        sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("aqpbench: program failed with code %d" % r.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value


def report(result, spec, trace, identity):
    config = dict(result["config"])
    del config["traced"]
    config["commit"], config["source_digest"] = identity
    print("config: " + " ".join("%s=%s" % kv for kv in config.items()))
    untraced = result["untraced"]
    traced = result.get("traced")
    print("end-to-end metrics (%s, untraced%s):" %
          (config["workload"], " vs traced" if traced else ""))
    for m in spec["end_to_end"]:
        u = untraced["e2e"][m["name"]]
        line = "  %-24s %14s %-6s" % (m["name"], fmt(u["value"]), u["unit"])
        if traced:
            t = traced["e2e"][m["name"]]["value"]
            over = (t - u["value"]) / u["value"] * 100 if u["value"] else 0.0
            line += "  traced %14s  tracing overhead %+.1f%%" % (fmt(t), over)
        print(line)
    for name, outcome in (("untraced", untraced), ("traced", traced)):
        if outcome is None:
            continue
        notes = outcome["notes"]
        print("%s: attempted=%d failed=%d failed_ratio=%s mismatches=%d "
              "correct=%s" % (name, outcome["attempted"], outcome["failed"],
                              fmt(notes["failed_ratio"]),
                              outcome["mismatches"], outcome["correct"]))
        print("  notes: " + " ".join("%s=%s" % (k, fmt(v))
                                     for k, v in notes.items()))
        for p in outcome["problems"]:
            print("  problem: " + p)
    if traced:
        print("per-layer metrics (traced run):")
        for m in spec["per_layer"]:
            v = traced["layers"].get(m["name"])
            print("  %-32s %14s %s" % (m["name"], fmt(v["value"]), v["unit"])
                  if v else "  %-32s missing" % m["name"])


def result_line(result, spec, trace):
    outcomes = [result["untraced"]] + ([result["traced"]] if trace else [])
    source = result["traced"]["layers"] if trace else result["untraced"]["e2e"]
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        if m["name"] not in source:
            log("aqpbench: no metric %s in the program output" % m["name"])
            sys.exit(1)
        metrics[m["name"]] = {"value": source[m["name"]]["value"],
                              "unit": m["unit"]}
    return {
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }


def steadiness(spec, runs, workloads, seconds):
    """Runs each workload on `runs` seeds; flags every end-to-end metric
    whose quartile spread (as a share of the median) is not below a third
    of its bound. setup_s is reported but exempt, as its bound only limits
    drift between medians."""
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(runs):
            out = run_program(workload, 1000 + i, seconds, 0,
                              time.monotonic() + RUN_BUDGET_S)["outcome"]
            if not out["correct"] or out["failed"]:
                print("%s seed %d: not correct (%s)" %
                      (workload, 1000 + i, out["problems"][:3]))
                ok = False
            for name in values:
                values[name].append(out["e2e"][name]["value"])
            print("  seed %d: %s" % (1000 + i, " ".join(
                "%s=%s" % (m["name"], fmt(values[m["name"]][-1]))
                for m in spec["end_to_end"])), flush=True)
        print("%s (%d runs):" % (workload, runs))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            target = m["bound"] / 3
            flag = "ok"
            if m["name"] == "setup_s":
                flag = "exempt"
            elif spread >= m["bound"]:
                flag = "UNSTEADY (over bound)"
                ok = False
            elif spread >= target:
                flag = "above bound/3"
            print("  %-24s median %12s  q1 %12s  q3 %12s  spread %6.3f  "
                  "bound %.2f  %s" % (m["name"], fmt(med), fmt(q1), fmt(q3),
                                       spread, m["bound"], flag))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    build()
    if args.steadiness:
        chosen = args.workloads.split(",") if args.workloads else names
        sys.exit(0 if steadiness(spec, args.runs, chosen, seconds) else 1)
    if args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    # The traced run is a second process on the same seed, so peak RSS and
    # set-up time compare like for like with the untraced one.
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_program(args.workload, args.seed, seconds, 0, deadline)
    result = {"config": untraced["config"], "untraced": untraced["outcome"]}
    if args.trace:
        result["traced"] = run_program(args.workload, args.seed, seconds,
                                       1, deadline)["outcome"]
    report(result, spec, args.trace, source_identity())
    print(json.dumps(result_line(result, spec, args.trace)))


if __name__ == "__main__":
    main()
