"""One run of a benchmark workload in a fresh interpreter; started by run.py.

It imports ``starsemi`` from the checkout's ``src/`` and writes one JSON
object on stdout. Times are scaled to the reference speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def latency_summary(clock, ops):
    """Median and 99th percentile in ms of the items' latencies (each the
    median of its rounds), with the sample count and the number of samples
    beyond the 99th percentile."""
    latencies = ops.latencies(clock)
    if len(latencies) < 2:
        p50 = p99 = latencies[0] if latencies else 0.0
    else:
        p50 = statistics.median(latencies)
        p99 = statistics.quantiles(latencies, n=100)[98]
    return {"item_p50_ms": p50 * 1e3, "item_p99_ms": p99 * 1e3,
            "latency_samples": len(latencies), "beyond_p99": sum(1 for x in latencies if x > p99)}


def main(argv=None):
    t_first = perf_counter()
    clock = speed.SpeedClock()
    clock.start()
    try:
        return run(clock, t_first, argv)
    finally:
        clock.stop()


def run(clock, t_first, argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run rounds until this many seconds have passed")
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds instead")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import starsemi
    if not os.path.abspath(starsemi.__file__).startswith(SRC + os.sep):
        print(f"perfbench: starsemi imported from {starsemi.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tr
    import workloads

    ops = workloads.Ops()
    wl = workloads.WORKLOADS[args.workload](args.seed, clock)
    tracer = None
    if args.trace:
        tracer = tr.Tracer(clock.net)
        tracer.install()
    else:
        ops.check("no trace wrapper installed", not tr.wrapped_bindings())

    t_begin = clock.stamp()
    wl.setup(ops)
    t_ready = clock.stamp()
    rounds = []  # (items, start stamp, end stamp)
    if not args.setup_only:
        t_start = perf_counter()
        while wl.max_rounds is None or len(rounds) < wl.max_rounds:
            wl.prepare_round(len(rounds))
            items = ops.items
            a = clock.stamp()
            wl.run_round(len(rounds), ops)
            rounds.append((ops.items - items, a, clock.stamp()))
            if args.rounds:
                if len(rounds) == args.rounds:
                    break
            elif len(rounds) >= wl.min_rounds and perf_counter() - t_start >= args.seconds:
                break
        wl.finish(ops)
    t_end = clock.stamp()
    clock.stop()
    result = {"t_first": t_first, "first_factor": clock.factor(t_first, t_first),
              "setup_scaled_s": clock.elapsed((t_first, t_first), t_ready),
              "first_model_s": clock.elapsed(*wl.first_model) if wl.first_model else None}
    if rounds:
        result.update(latency_summary(clock, ops), rounds=len(rounds),
                      items=ops.items, raw_timed_s=sum(b[1] - a[1] for _, a, b in rounds),
                      items_per_s=statistics.median(n / clock.elapsed(a, b)
                                                    for n, a, b in rounds),
                      wall_s=clock.elapsed(t_begin, t_end), raw_wall_s=t_end[1] - t_begin[1],
                      mean_factor=clock.mean_factor(), verdicts=wl.verdicts.n,
                      counts=wl.counts)
    if tracer is not None:
        tracer.uninstall()
        ops.check("trace wrappers removed", not tr.wrapped_bindings())
        result["trace"] = tracer.summary()
        wl.check_trace(ops, result["trace"]["counts"])
    result.update(attempted=ops.attempted, failed=ops.failed,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
