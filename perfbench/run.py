"""Benchmark of the starsemi workbench.

    python3 perfbench/run.py --workload {sweep5,analyze4,canon8} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout holding ``src/starsemi``; it exits with code 2 when the
sources are missing. Every measured run is a fresh single-threaded
interpreter (perfbench/worker.py), so the program's caches start cold.

--trace 0 prints the end-to-end metrics. Set-up is repeated in separate
interpreters and setup_s is the median of seven set-ups. --trace 1 runs the
workload untraced and then traced over the same rounds, and prints the
per-layer metrics: self time per span, counts, claim verdicts and the
tracing overhead (traced wall time minus untraced wall time).

End-to-end times are scaled to a reference CPU speed by a probe that runs
beside the work (speed.py): on a shared host the raw times of one run
differ by up to a factor of two from the next. Per-layer span times are
net of the probe but not scaled, so that they add up to trace.wall_s.

A human-readable report comes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. An operation
fails when it raises or its correctness check does not match; a claim
verdict of "fail" is a finding, not a failed operation. failed_ratio is
failed / attempted; it is printed, not listed as a metric, because it is 0
when the program is correct.

Files: metrics.py names the workloads and metrics (and writes
BENCHMARK.json), workloads.py builds and checks the inputs, worker.py runs
one interpreter, tracer.py wraps the program's public functions,
spread.py measures run-to-run spread and writes baseline.json, and
check_bench.py checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import metrics as M

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 7  # set-ups per untraced run, the measured one included
# Whole run, all interpreters, inside the 180 s a run may take. The longest
# run, sweep5 --trace 1 (two cold sweeps), took 100 s on a shared 2-core
# x86-64 VM running at 0.56 of the reference speed; it ends without a result
# when the host or the program is about 1.75 times slower than that.
RUN_LIMIT_S = 175.0


class RunError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run one worker; returns its result with setup_s, the scaled time from
    the spawn to its first timed call."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise RunError("time limit reached before starting a worker")
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    # interpreter start-up, before the worker's clock runs, at its first probe's speed
    result["setup_s"] = ((result["t_first"] - t0) * result["first_factor"]
                         + result["setup_scaled_s"])
    return result


def end_to_end(runs, main):
    # sweep5 meets its first model in the timed region, so only its measured
    # run has one; the other workloads meet theirs in every set-up
    first = [r["first_model_s"] for r in runs if r["first_model_s"] is not None]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "items_per_s": main["items_per_s"],
        "first_model_s": statistics.median(first),
        "item_p50_ms": main["item_p50_ms"],
        "item_p99_ms": main["item_p99_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _, _ in M.END_TO_END}


def per_layer(traced, plain):
    tr = traced["trace"]
    self_s, calls = {}, {}
    for name, label, n, _, slf in tr["rows"]:
        for key in ((name,), (name, label)):
            self_s[key] = self_s.get(key, 0.0) + slf
            calls[key] = calls.get(key, 0) + n
    overhead = traced["wall_s"] - plain["wall_s"]
    run = {"wall_s": traced["raw_wall_s"], "spans_self_s": tr["self_s"],
           "outside_spans_s": traced["raw_wall_s"] - tr["self_s"],
           "overhead_s": overhead, "overhead_ratio": overhead / plain["wall_s"],
           "spans": tr["spans"]}
    out = {}
    for name, unit, _, (kind, *key), _ in M.PER_LAYER:
        if kind == "self":
            value = self_s.get(tuple(key), 0.0)
        elif kind == "calls":
            value = calls.get(tuple(key), 0)
        elif kind == "count":
            value = tr["counts"].get(key[0], 0)
        elif kind == "verdict":
            value = traced["verdicts"][key[0]]
        else:
            value = run[key[0]]
        out[name] = {"value": value, "unit": unit}
    return out


def report(args, runs, main, metrics, attempted, failed):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {main['rounds']}  items {main['items']}")
    print(f"  latency samples {main['latency_samples']} (a recurring item counts once, "
          f"at its median); {main['beyond_p99']} beyond the 99th percentile")
    print(f"  interpreters: {len(runs)}  speed factor (reference/probe): "
          f"{main['mean_factor']:.3f}  unscaled items_per_s: "
          f"{main['items'] / main['raw_timed_s']:.6g}")
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    v = main["verdicts"]
    print("  claims: " + "  ".join(f"{k} {v[k]}" for k in v))
    for k, val in sorted(main["counts"].items()):
        print(f"  {k} {val}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[n for n, _ in M.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=M.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "starsemi", "__init__.py")):
        print(f"perfbench: no starsemi sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        plain = spawn(common + ["--seconds", str(args.seconds)], deadline)
        if args.trace:
            traced = spawn(common + ["--rounds", str(plain["rounds"]), "--trace"], deadline)
            runs = [plain, traced]
            main_run, metrics = traced, per_layer(traced, plain)
        else:
            runs = [plain] + [spawn(common + ["--setup-only"], deadline)
                              for _ in range(SETUPS - 1)]
            main_run, metrics = plain, end_to_end(runs, plain)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report(args, runs, main_run, metrics, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
