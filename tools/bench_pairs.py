#!/usr/bin/env python3
"""Interleaved parent-versus-change benchmark pairs -> BENCH_<n>.json.

Runs the repository benchmark (perfbench/run.py) in two checkouts, one
pair at a time, alternating which side runs first, and writes the
medians, quartiles and every raw run to one JSON file:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --pairs 5 --seconds 30 --out BENCH_12.json

End-to-end metrics come from untraced runs (--trace 0). Per-layer
metrics named with --layer come from separate traced runs
(--trace 1), also paired and alternated. Each checkout builds its own
benchmark binary (perfbench/run.py builds on first use). Any run whose
output check fails (correct false or failed > 0) aborts the script.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

END_TO_END = ["setup_s", "wall_s", "refs_per_s", "peak_rss_mb"]


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench_pairs: %s failed in %s:\n%s" %
                 (" ".join(cmd), checkout, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("bench_pairs: output check failed in %s (%s)" %
                 (checkout, workload))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "runs": values}


def paired(args, workload, trace, names):
    """Run args.pairs alternating pairs; return per-side summaries."""
    sides = {"parent": {n: [] for n in names},
             "change": {n: [] for n in names}}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            metrics = run_once(checkout, workload, args.seed,
                               args.seconds if not trace
                               else args.trace_seconds, trace)
            for n in names:
                sides[side][n].append(metrics[n])
        print("%s trace=%d pair %d/%d done" %
              (workload, trace, i + 1, args.pairs), file=sys.stderr)
    out = {}
    for n in names:
        out[n] = {side: summary(sides[side][n]) for side in sides}
        p = out[n]["parent"]["median"]
        out[n]["change_over_parent"] = out[n]["change"]["median"] / p \
            if p else None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace-seconds", type=float, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="suite,large,axes,campaign")
    ap.add_argument("--layer", action="append", default=[],
                    help="per-layer metric from the traced run "
                         "(repeatable)")
    ap.add_argument("--trace-workloads", default="suite")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("bench_pairs: --pairs must be at least 2")

    doc = {
        "schema": "wsg-bench-pairs-v1",
        "command": "python3 perfbench/run.py --workload W --seed %d "
                   "--seconds S --trace 0|1" % args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace_seconds": args.trace_seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "date": datetime.date.today().isoformat(),
        "end_to_end": {},
        "per_layer": {},
    }
    for w in args.workloads.split(","):
        doc["end_to_end"][w] = paired(args, w, 0, END_TO_END)
    if args.layer:
        for w in args.trace_workloads.split(","):
            doc["per_layer"][w] = paired(args, w, 1, args.layer)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
