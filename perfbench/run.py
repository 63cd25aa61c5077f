#!/usr/bin/env python3
"""Sweep benchmark: builds the library and sweep_bench, runs one workload,
checks its reports and prints its metrics.

    python3 perfbench/run.py --workload suite_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload

Run from anywhere inside a full checkout (the library sources in src/
are built from scratch into .bench_build/perfbench).  The human-readable
summary goes to standard output, build and progress logs to standard
error, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (a separate traced run).  perfbench/README.md maps
every metric to its layer and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "run")
EXE = os.path.join(BUILD, "sweep_bench")
WORKLOADS = ("suite_sweep", "lint_sweep", "gen_sweep")
# Traced runs should attribute this share of the untraced 1-job wall
# time to the serial layers; outside it a layer is missing or doubled.
# The upper side allows for host drift within a single pass.
ATTRIBUTED_BAND = (0.85, 1.15)
# A run of one workload must end within 180 s, build included once the
# checkout is built; leave room to exit.
TIME_LIMIT_S = 165


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found in src/ next to perfbench/; "
             "run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    cmd = ["cmake", "--build", BUILD, "-j", str(min(4, nproc()))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def metric_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def measure(workload, seed, gen_seed, seconds, trace, deadline):
    """Run sweep_bench once; returns its result document."""
    os.makedirs(WORK, exist_ok=True)
    mode = "layers" if trace else "e2e"
    out = os.path.join(WORK, f"{workload}-{mode}.json")
    spans = os.path.join(WORK, f"{workload}-spans.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--gen-seed", str(gen_seed), "--seconds", str(seconds), "--mode", mode, "--out", out,
           "--work-dir", WORK]
    if trace:
        cmd += ["--spans", spans]
    # LP_* variables steer the library (jobs, budgets, faults, metrics);
    # the benchmark sets what it needs itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LP_")}
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, env=env,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: sweep_bench did not finish in time", 4)
    if proc.returncode != 0:
        fail(f"{workload}: sweep_bench exited with {proc.returncode}", 4)
    with open(out) as f:
        doc = json.load(f)
    doc["load_before"] = load_before
    doc["load_after"] = os.getloadavg()
    if trace:
        doc["spans_file"] = os.path.relpath(spans, ROOT)
    return doc


def spread(samples):
    if len(samples) < 2:
        return ""
    q = statistics.quantiles(samples, n=4)
    return f"IQR {q[0]:.4g}..{q[2]:.4g} over {len(samples)}"


def summarize(doc, spec, trace):
    """Print the human-readable block; return (correct, metrics)."""
    host = doc["host"]
    res = doc["result"]
    values = res["layers"] if trace else res
    entries = spec["per_layer" if trace else "end_to_end"]
    flags = []
    fell_back = False
    metrics = {}
    for m in entries:
        if m["name"] not in values:
            fail(f"{doc['workload']}: sweep_bench reported no {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"{doc['workload']} ({'traced run' if trace else 'untraced'}, "
          f"seed {doc['seed']}, {doc['cells']} cells per sweep)")
    for name, m in metrics.items():
        extra = spread(res.get(name + "_samples", []))
        if name + "_raw" in res:
            extra += f"; as measured {res[name + '_raw']:.4g} s"
        print(f"  {name:28s} {m['value']:<14.6g} {m['unit']:6s} {extra}")
    ratio = doc["failed"] / doc["attempted"]
    print(f"  {'cell_fail_ratio':28s} {ratio:<14.6g} {'ratio':6s} "
          f"{doc['failed']} of {doc['attempted']} checked cells failed")
    if trace:
        lo, hi = ATTRIBUTED_BAND
        share = values["attributed_share"]
        if not lo <= share <= hi:
            flags.append(f"attributed_share {share:.3f} outside "
                         f"[{lo}, {hi}]")
        for k in ("retry.trace_fallbacks", "retry.batch_fallbacks"):
            if values[k] != 0:
                fell_back = True
                flags.append(f"{k} = {values[k]}: a fast path fell back")
        print(f"  passes {res['passes']}, traced sweep "
              f"{res['traced_wall_s']:.4f} s vs untraced "
              f"{res['untraced_wall_1j_s']:.4f} s; spans in "
              f"{doc['spans_file']}")
    print(f"  host: nproc {host['nproc']}, hardware threads "
          f"{host['hardware_threads_raw']} raw / "
          f"{host['hardware_threads_guarded']} guarded, full width "
          f"{host['full_width_jobs']} jobs, build {host['build_type']}"
          f"{'' if host['optimised'] else ' (NOT optimised)'}")
    if "calibration_reference_s" in res:
        one = statistics.median(res["calibration_one_cpu_s"])
        every = statistics.median(res["calibration_all_cpus_s"])
        print(f"  calibration kernel: median {one:.4f} s on one CPU, "
              f"{every:.4f} s on every CPU at once; timings scaled to "
              f"{res['calibration_reference_s']} s")
    lb, la = doc["load_before"], doc["load_after"]
    print(f"  load average {lb[0]:.2f} before, {la[0]:.2f} after")
    inputs = {k: v for k, v in doc["inputs"].items() if k != "program_seeds"}
    print(f"  inputs {json.dumps(inputs)}")
    print(f"  report digest {doc['report_digest']} "
          f"({doc['sample_cells']} cells checked against the "
          f"interpret-every-cell path)")
    for note in doc["notes"]:
        print(f"  MISMATCH {note}")
    for f in flags:
        print(f"  FLAG {f}")
    return doc["failed"] == 0 and host["optimised"] and not fell_back, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="picks the cells checked against the "
                         "interpret-every-cell path")
    ap.add_argument("--gen-seed", type=int, default=1,
                    help="draws gen_sweep's programs; check claims on "
                         "20211 too")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0 or args.gen_seed < 0:
        fail("--seconds must be >= 1 and the seeds >= 0")

    spec = metric_spec()
    build()  # a no-op after the first run in a checkout
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        doc = measure(name, args.seed, args.gen_seed, args.seconds,
                      args.trace, deadline)
        ok, m = summarize(doc, spec, args.trace)
        correct = correct and ok
        attempted += doc["attempted"]
        failed += doc["failed"]
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
