#!/usr/bin/env python3
"""Builds the solver from source and runs one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, which is also the one
list of metric names: the result carries exactly its end_to_end
metrics (--trace 0) or its per_layer metrics (--trace 1), a per-layer
metric the workload does not touch reading 0, and a metric the harness
reports that BENCHMARK.json does not list is an error. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout; the first
run configures and compiles (a few minutes), later runs reuse it. The
workload runs in a fresh process of the perfbench harness, which checks
every answer against an independent oracle. The last stdout line is
one JSON object: correct, attempted, failed and metrics (the traced
run also writes its spans under <build>/traces/).

--plant-wrong makes the harness expect a wrong answer for the first
measured unit; the run must then fail (exit 1, correct=false).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def select_metrics(res, spec, trace):
    """Keeps the metrics BENCHMARK.json lists for this trace mode."""
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(res["metrics"]) - set(listed))
    if unknown:
        fail("the harness reported metrics that BENCHMARK.json does not "
             "list: " + ", ".join(unknown))
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = res["metrics"].get(m["name"])
        if got is None:
            # An untouched layer reads 0; a missing end-to-end metric
            # means the run did not finish its measurement.
            if not trace and res["correct"]:
                fail("the harness did not report " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail("%s: the harness reports unit %s, BENCHMARK.json %s" %
                 (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    res["metrics"] = out
    return res


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no solver sources (src/) next to perfbench/; run from the root "
             "of a full checkout")
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build step %s failed" % " ".join(cmd[:2]))
    return os.path.join(cmake_dir, "perfbench")


def check_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    for m in res["metrics"].values():
        if set(m) != {"value", "unit"}:
            return None
    return res


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = load_spec(root)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)

    work = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.jsonl" %
                                            (args.workload, args.seed))]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    # Its own process group, so that the daemon the harness starts is
    # reaped with it even if the harness dies.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    res = check_result(lines[-1]) if lines else None
    if res is None:
        sys.stdout.write(out)
        fail("the harness printed no result (exit %s)" % proc.returncode)
    res = select_metrics(res, spec, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(res))
    return 0 if proc.returncode == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
