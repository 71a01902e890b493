#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --self-test

Builds perfbench/ (CMake, from the checkout's src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own process, checks its outputs, prints every metric by
name with its unit and, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 gives every
end-to-end metric, --trace 1 every per-layer metric of a traced run (0 for
the metrics of a layer the workload does not run).
Without --workload every workload runs in turn.

Every result is appended, with its provenance (git revision and dirty
flag, argv, seed, host, and the workload's exec mode, threads, system and
scale), to perfbench-ledger.jsonl in the build directory; nothing is ever
overwritten. The exit code is non-zero when an output check fails, the
build fails, or the program refuses to run because a COSPARSE_* variable
that changes what runs is set.
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    bdir = os.path.join(build_base(), "perfbench")
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return bdir


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_registry(binary, bench):
    """Every metric the program can print is in BENCHMARK.json in the same
    section with the same unit, a direction and (end to end) a bound, and
    every metric BENCHMARK.json declares is one the program prints.
    Returns a list of problems."""
    out = subprocess.run([binary, "--list-metrics"], check=True,
                         capture_output=True, text=True).stdout
    registry = {m["name"]: m for m in json.loads(out)["metrics"]}
    declared = {}
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            declared[m["name"]] = dict(m, section=section)
    problems = []
    for name, m in registry.items():
        d = declared.get(name)
        if d is None:
            problems.append("%s is printed but not in BENCHMARK.json" % name)
            continue
        for key in ("section", "unit"):
            if m[key] != d[key]:
                problems.append("%s: %s is %r in the program, %r in "
                                "BENCHMARK.json" % (name, key, m[key], d[key]))
        if d.get("better") not in ("lower", "higher"):
            problems.append("%s: no direction in BENCHMARK.json" % name)
        if d["section"] == "end_to_end" and not 0 < d.get("bound", 0) <= 0.25:
            problems.append("%s: bound outside (0, 0.25]" % name)
    for name in declared:
        if name not in registry:
            problems.append("%s is in BENCHMARK.json but never printed" % name)
    names = {w["name"] for w in bench["workloads"]}
    used = {w for m in registry.values() for w in m["workloads"]}
    if names != used:
        problems.append("workloads differ: BENCHMARK.json %s, program %s"
                        % (sorted(names), sorted(used)))
    for name, m in registry.items():
        if m["section"] == "end_to_end" and set(m["workloads"]) != names:
            problems.append("%s is end to end but not measured on %s"
                            % (name, sorted(names - set(m["workloads"]))))
    return problems


def git_provenance():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"revision": "unknown (not a git checkout)", "dirty": None}
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                check=True, capture_output=True,
                                text=True).stdout
        return {"revision": rev, "dirty": bool(status.strip())}
    except (OSError, subprocess.CalledProcessError):
        return {"revision": "unknown (git failed)", "dirty": None}


def run_workload(binary, bench, workload, args, stamp):
    """Runs one workload; returns its record (None when it printed none)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", PINNED]
    if args.trace:
        spans_dir = os.path.join(build_base(), "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d-%s.json" % (workload, args.seed, stamp))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("%s printed no result (exit %d)" % (workload, proc.returncode))
        return None
    rec = json.loads(lines[-1])
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    for name, m in rec["metrics"].items():
        if units.get(name) != m["unit"]:
            log("%s printed %s [%s], not declared in BENCHMARK.json %s"
                % (workload, name, m["unit"], section))
            rec["correct"] = False
    for name in sorted(set(units) - set(rec["metrics"])):
        log("%s did not print %s" % (workload, name))
        rec["correct"] = False
    if proc.returncode != 0:
        rec["correct"] = False
    return rec


def print_record(rec):
    print("== %s (seed %d, %s)" % (rec["workload"], rec["seed"],
                                   "traced" if rec["trace"] else "untraced"))
    for name in sorted(rec["metrics"]):
        m = rec["metrics"][name]
        print("  %-36s %.6g %s" % (name, m["value"], m["unit"]))
    cfg = rec["workload_config"]
    if "service_tail_percentile" in cfg:
        print("  service_tail_ms is p%g (%d samples beyond it)"
              % (cfg["service_tail_percentile"], cfg["service_tail_beyond"]))
    if "stream_array_bytes" in cfg:
        print("  triad arrays %.0f MiB, last-level cache %.0f MiB; native "
              "kernel bytes are computed from array sizes"
              % (cfg["stream_array_bytes"] / 2**20,
                 cfg["stream_llc_bytes"] / 2**20))
    if cfg.get("not_exercised"):
        print("  0 (layer not run by this workload): "
              + ", ".join(cfg["not_exercised"]))
    print("  failed_frac %.6g (%d of %d operations)"
          % (rec["failed_frac"], rec["failed"], rec["attempted"]))
    for m in rec["mismatches"]:
        print("  MISMATCH " + m)


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"]
                                           for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the helper unit tests and the "
                         "BENCHMARK.json consistency check")
    args = ap.parse_args()

    try:
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    binary = os.path.join(bdir, "perfbench")
    problems = check_registry(binary, bench)
    for p in problems:
        log("BENCHMARK.json mismatch: " + p)
    if args.self_test:
        tests = subprocess.run([os.path.join(bdir, "perfbench_tests")])
        ok = tests.returncode == 0 and not problems
        log("self-test " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    if problems:
        return 1

    now = datetime.datetime.now(datetime.timezone.utc)
    provenance = {
        "time_utc": now.isoformat(),
        "argv": sys.argv,
        "git": git_provenance(),
        "run_seconds": args.seconds,
    }
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    records = []
    for w in workloads:
        rec = run_workload(binary, bench, w, args,
                           now.strftime("%Y%m%dT%H%M%S%fZ"))
        if rec is None:
            return 1
        rec["provenance"] = provenance
        with open(os.path.join(build_base(), "perfbench-ledger.jsonl"),
                  "a") as f:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
        print_record(rec)
        records.append(rec)

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s/%s" % (r["workload"], k): v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
