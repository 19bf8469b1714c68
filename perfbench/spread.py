"""Run every workload untraced on seeds 1-10 and report, for each end-to-end
metric, the median and the spread (distance between the first and third
quartile, as a share of the median); then run it traced on seeds 1 and 2
and check that the counts which do not depend on the seed (all of them on
sweep5, the catalog counts elsewhere) agree. Optionally write the result,
with the seed-1 traced run, as a baseline file.

    python3 perfbench/spread.py [--baseline perfbench/baseline.json --label NAME]

It takes about 40 minutes and exits 1 when a run is incorrect or a count
differs between the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics as M

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CATALOG_COUNTS = ("enumeration.semigroup_classes", "enumeration.models")
SEEDS = tuple(range(1, 11))
TRACE_SEEDS = (1, 2)


def run_once(workload, seed, trace):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(M.RUN_SECONDS),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct {res['correct']} "
          f"attempted {res['attempted']} failed {res['failed']} "
          f"wall {time.perf_counter() - t0:.1f} s", flush=True)
    return res


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def seed_invariant(workload):
    if workload == "sweep5":
        return [name for name, unit, *_ in M.PER_LAYER if unit == "count"]
    return list(CATALOG_COUNTS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", help="write the baseline file here")
    ap.add_argument("--label", default="", help="what the baseline measures")
    args = ap.parse_args(argv)
    units = {name: unit for name, unit, *_ in M.END_TO_END}
    bounds = {name: bound for name, _, _, bound, _ in M.END_TO_END}
    ok = True
    out = {}
    for workload, _ in M.WORKLOADS:
        runs = []
        for seed in SEEDS:
            res = run_once(workload, seed, 0)
            runs.append(res)
            ok = ok and res["correct"]
            print("  " + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        e2e = {}
        for name in bounds:
            med, spr = spread([r["metrics"][name]["value"] for r in runs])
            e2e[name] = {"median": med, "unit": units[name], "spread": spr,
                         "bound": bounds[name]}
            flag = "ok" if spr < bounds[name] / 3 else ("within bound" if spr <= bounds[name]
                                                        else "OVER BOUND")
            print(f"  {workload:9s} {name:14s} median {med:12.5g}  spread {spr:7.2%}  "
                  f"bound {bounds[name]:.0%}  {flag}", flush=True)
        entry = {"seeds": list(SEEDS), "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": e2e}
        traced = [run_once(workload, seed, 1) for seed in TRACE_SEEDS]
        ok = ok and all(res["correct"] for res in traced)
        entry["trace_seed"] = TRACE_SEEDS[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        for res in traced[1:]:
            for name in seed_invariant(workload):
                a, b = traced[0]["metrics"][name]["value"], res["metrics"][name]["value"]
                if a != b:
                    ok = False
                    print(f"  {workload}: {name} differs between seeds: {a} != {b}")
        out[workload] = entry
    if args.baseline:
        doc = {"label": args.label, "run_seconds": M.RUN_SECONDS,
               "workloads": {w: dict(why=why, **out[w]) for w, why in M.WORKLOADS},
               "layer_map": {name: moves for name, _, _, _, moves in M.PER_LAYER}}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
