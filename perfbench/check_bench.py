"""Checks of the benchmark itself. Run from the repository root:

    python3 perfbench/check_bench.py

It takes about ten seconds and exits 1 when a check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import starsemi  # noqa: E402

import metrics  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def check_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        expect(json.load(fh) == metrics.benchmark_json(),
               "BENCHMARK.json differs from metrics.benchmark_json()")
    ids = tuple(c.id for c in starsemi.list_claims())
    expect(ids == metrics.CLAIM_IDS, "metrics.CLAIM_IDS differs from the claim registry")


def _bindings():
    return {(m.__name__, attr): val for m in tr.package_modules()
            for attr, val in vars(m).items()}


def check_wrappers_removed():
    before = _bindings()
    t = tr.Tracer()
    t.install()
    try:
        expect(tr.wrapped_bindings(), "install() wrapped nothing")
        expect(hasattr(starsemi.automorphisms, tr.MARK)
               and hasattr(starsemi.enumeration.automorphisms, tr.MARK),
               "package and module bindings of automorphisms are not both wrapped")
    finally:
        t.uninstall()
    expect(not tr.wrapped_bindings(), "wrappers left after uninstall()")
    after = _bindings()
    expect(all(after[k] is v for k, v in before.items()),
           "uninstall() did not restore the original objects")


def check_self_times_account_for_spans():
    t = tr.Tracer()
    t.install()
    try:
        ops = wl.Ops()
        models, _ = wl.build_catalog(ops, speed.SpeedClock(), {1: 1, 2: 4, 3: 34})
        for model in models:
            ctx = starsemi.StructureAnalysis(model)
            for cid in metrics.CLAIM_IDS:
                starsemi.check_claim(model, cid, ctx)
    finally:
        t.uninstall()
    s = t.summary()
    expect(abs(s["self_s"] - s["top_level_s"]) < 1e-6,
           "span self times do not add up to the top-level span time")
    expect(all(0 <= slf <= inc + 1e-9 for _, _, _, inc, slf in s["rows"]),
           "a self time is negative or exceeds its inclusive time")
    names = {name for name, *_ in s["rows"]}
    expect({"enumeration.enumerate_models", "enumeration.semigroup_representatives",
            "claims.check_claim", "ideals.classify_all"} <= names, "expected spans missing")
    expect(s["counts"]["enumeration.semigroup_classes"] == 1 + 3 + 12,
           "class count not taken from the wrapper")
    expect(s["counts"]["enumeration.enumerate_models#yields"] == 39, "model count wrong")


def check_wrong_golden_count_fails():
    ops = wl.Ops()
    wl.build_catalog(ops, speed.SpeedClock(), {1: 1, 2: 5})
    expect(ops.failed == 1 and ops.attempted == 2, "wrong golden count not registered")
    sweep = wl.Sweep5(1, speed.SpeedClock())
    for classes, failed in ((wl.SWEEP_CLASSES, 0), (wl.SWEEP_CLASSES - 1, 1)):
        ops = wl.Ops()
        sweep.check_trace(ops, {"enumeration.semigroup_classes": classes})
        expect(ops.failed == failed, f"class count {classes} registered {ops.failed} failures")


class _SmallCanon8(wl.Canon8):
    RANDOM_QUOTA = {5: 1}
    CATALOG_PER_ROUND = 24
    max_rounds = 1


def _small_canon8_round(w=None):
    """One round of a small canon8 run and its run-level checks."""
    ops = wl.Ops()
    if w is None:
        w = _SmallCanon8(1, speed.SpeedClock())
        w.setup(ops)
    w.catalog_seen.clear()
    w.run_round(0, ops)
    w.finish(ops)
    return w, ops


def check_mismatched_canonical_form_fails():
    w, ops = _small_canon8_round()
    expect(ops.failed == 0 and len(ops.item_ids) == 50, "clean small canon8 round failed")

    original = starsemi.canonical_form
    calls = []

    def wrong(S):
        calls.append(1)
        return starsemi.CanonicalForm(original(S).data + bytes([len(calls) % 2]))

    starsemi.canonical_form = wrong
    try:
        ops = wl.Ops()
        w.run_round(0, ops)
    finally:
        starsemi.canonical_form = original
    expect(ops.failed == 25, f"mismatched canonical forms registered {ops.failed} of 25")


def check_coarse_canonical_form_and_wrong_group_fail():
    """Answers that agree on relabeled copies but are wrong: one canonical
    form for every structure, and only the identity as automorphism."""
    w, _ = _small_canon8_round()
    fakes = (("canonical_form", lambda S: starsemi.CanonicalForm(b"")),
             ("automorphisms", lambda mult, leq=None, star=None: [tuple(range(len(mult)))]))
    for attr, fake in fakes:
        original = getattr(starsemi, attr)
        setattr(starsemi, attr, fake)
        try:
            _, ops = _small_canon8_round(w)
        finally:
            setattr(starsemi, attr, original)
        expect(ops.failed >= 1, f"a wrong {attr} registered no failure")


def check_no_sources_exits_nonzero():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep5",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=60)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "run.py without sources did not fail without a result")


CHECKS = (
    check_benchmark_json_matches_metrics,
    check_wrappers_removed,
    check_self_times_account_for_spans,
    check_wrong_golden_count_fails,
    check_mismatched_canonical_form_fails,
    check_coarse_canonical_form_and_wrong_group_fail,
    check_no_sources_exits_nonzero,
)


def main():
    failed = 0
    for check in CHECKS:
        try:
            check()
            print(f"ok    {check.__name__}")
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL  {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
