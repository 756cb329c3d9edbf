#!/usr/bin/env python3
"""Build and run the wall-clock NEXMark Q5 benchmark.

One run (run it from the repository root):

    python3 perfbench/run.py --workload q5-open --seed 1 --seconds 20 --trace 0

builds `perfbench/` (a cargo package of its own, against the engine crates
by path) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload in a fresh process and passes its output through. The last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Steadiness mode:

    python3 perfbench/run.py --steadiness --runs 5 [--workloads a,b] [--seconds 20]

runs two interleaved sets of runs of the same build (set A and set B, with
distinct seeds) and prints, for every metric, each set's median and
quartiles, the spread (interquartile range over median) and the difference
between the set medians, next to the bound `BENCHMARK.json` gives, so the
bounds can be re-derived on any machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "release", "jet-perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Run one workload; returns the parsed result line (None on failure)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    if echo:
        sys.stdout.write(p.stdout)
        sys.stdout.flush()
    if p.returncode != 0:
        return None
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 1001)):
                r = run_once(binary, w, base + i, seconds, args.trace, False)
                if r is None or not r["correct"]:
                    print(f"{w} set {name} seed {base + i}: failed run {r}")
                    ok = False
                    continue
                sets[name].append(r)
                print(f"{w} set {name} seed {base + i}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        print(f"\n{w}: metric, set A q1/median/q3, set B q1/median/q3, spread A, spread B, "
              f"spread of all, B vs A, bound")
        for metric in bounds:
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            if not a or not b:
                continue
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spread = lambda q: (q[2] - q[0]) / q[1] if q[1] else float("nan")
            diff = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            bound = bounds[metric]
            flag = ""
            if bound is not None and metric != "setup_s" and max(spread(qa), spread(qb)) > bound:
                flag = "  SPREAD OVER BOUND"
                ok = False
            if bound is not None and abs(diff) > bound:
                flag += "  SETS DIFFER BY MORE THAN BOUND"
                ok = False
            print(f"  {metric:26} {qa[0]:.5g}/{qa[1]:.5g}/{qa[2]:.5g}  {qb[0]:.5g}/{qb[1]:.5g}/{qb[2]:.5g}"
                  f"  {spread(qa):.3f} {spread(qb):.3f} {spread(qall):.3f}  {diff:+.3f}  {bound}{flag}")
        shares = {n: sorted({r["failed"] / r["attempted"] for r in s}) for n, s in sets.items()}
        print(f"  failed share: A {shares['A']}  B {shares['B']}\n", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=5, help="runs per set in steadiness mode")
    ap.add_argument("--workloads", help="comma-separated workloads for steadiness mode")
    args = ap.parse_args()
    if not args.steadiness and not args.workload:
        ap.error("--workload is required")
    binary = build()
    if args.steadiness:
        return steadiness(binary, args)
    r = run_once(binary, args.workload, args.seed, args.seconds or 20, args.trace, True)
    return 0 if r is not None else 1


if __name__ == "__main__":
    sys.exit(main())
