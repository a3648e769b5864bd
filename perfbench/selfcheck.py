#!/usr/bin/env python3
"""Checks the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seconds S] [--seed N]

For every workload it verifies that
  * a planted wrong expectation is caught (exit 1, correct=false,
    failed >= 1);
  * two traced runs of one seed report identical layer counters;
  * the traced run names the expected dominant layer, and on the batch
    workloads the unattributed residual is at most 5% of unit wall.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

DOMINANT = {
    "ebpf-corpus": "flow",
    "pdmc-packages": "core",
    "proof-audit": "check",
    "service-edit": "service",
}
# Counters that must repeat exactly for one seed (they are read over a
# fixed input set, never over a time-dependent number of units).
EXACT = ("automata.monoid_size", "flow.distinct_pair_automata",
         "flow.shared_pair_pct", "core.edges", "core.dup_ratio",
         "core.compose_calls", "core.memory_mb", "core.proof_bytes_per_edge")
RUN = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]


def run(workload, seed, seconds, trace, plant=False):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(trace)]
    if plant:
        cmd.append("--plant-wrong")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    problems = []
    for w, dominant in DOMINANT.items():
        rc, res, _ = run(w, args.seed, args.seconds, 0, plant=True)
        caught = rc == 1 and not res["correct"] and res["failed"] >= 1
        print("%-14s planted wrong expectation %s (exit %d, failed %d/%d)" %
              (w, "caught" if caught else "MISSED", rc, res["failed"],
               res["attempted"]))
        if not caught:
            problems.append(w + ": planted fault not caught")

        runs = [run(w, args.seed, args.seconds, 1) for _ in range(2)]
        m = [r[1]["metrics"] for r in runs]
        for rc, res, _ in runs:
            if rc != 0 or res["failed"]:
                problems.append(w + ": traced run failed")
        diff = [k for k in EXACT if m[0][k]["value"] != m[1][k]["value"]]
        print("%-14s counters %s" % (w, "repeat exactly" if not diff else
                                     "DIFFER: " + ", ".join(diff)))
        if diff:
            problems.append(w + ": counters differ: " + ", ".join(diff))

        layers = {k[len("layer."):-len("_ms")]: v["value"]
                  for k, v in m[0].items() if k.startswith("layer.")}
        top = max(layers, key=layers.get)
        share = 100 * layers[top] / sum(layers.values())
        residual = m[0]["trace.residual_pct"]["value"]
        print("%-14s dominant layer %s (%.1f%%), residual %.2f%%, tracing "
              "overhead %+.1f%%" % (w, top, share, residual,
                                   m[0]["trace.overhead_pct"]["value"]))
        if top != dominant:
            problems.append("%s: dominant layer %s, expected %s" %
                            (w, top, dominant))
        if w != "service-edit" and residual > 5:
            problems.append("%s: residual %.2f%% > 5%%" % (w, residual))
    for p in problems:
        print("FAIL: " + p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problem(s)" %
                             len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
