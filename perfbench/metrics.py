"""Workloads and metrics of the starsemi benchmark: the one source of
BENCHMARK.json (``python3 perfbench/metrics.py > BENCHMARK.json``) and of the
names run.py reports."""

from __future__ import annotations

import json

RUN_SECONDS = 10

WORKLOADS = (
    ("sweep5", "the headline user path, cold: all order-5 involution-poe models, 33 claims "
               "on each; enumeration does about 80% of the work"),
    ("analyze4", "claim registry, ideals, regularity and filters on relabeled order<=4 "
                 "catalog copies, with almost no enumeration"),
    ("canon8", "canonical_form and automorphisms on random models of order 5-8 and relabeled "
               "catalog copies, plus compatible orders and the file round trip"),
)

# name, unit, better, bound (share of the parent's median), what it is
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "interpreter start to the first timed call: import, corpus, preflight; median of 7"),
    ("items_per_s", "1/s", "higher", 0.2,
     "items completed per second in the timed region"),
    ("first_model_s", "s", "lower", 0.2,
     "enumerate_models call to its first model, cold: order 5 on sweep5, "
     "order 4 (median of 7 set-ups) elsewhere"),
    ("item_p50_ms", "ms", "lower", 0.25, "median latency of one item"),
    ("item_p99_ms", "ms", "lower", 0.25, "99th-percentile latency of one item"),
    ("peak_rss_mb", "MB", "lower", 0.1, "ru_maxrss of the measured process"),
)

CLAIM_IDS = (
    "prop04", "prop04-bi", "prop05", "prop06", "prop07", "prop07-bi", "prop08",
    "prop08-idem", "prop09", "prop11", "prop11-plain", "thm13-fwd", "thm13-conv", "prop14",
    "prop15", "prop16", "prop16-eq", "prop17", "prop17-idem", "prop18", "thm19", "thm20",
    "thm20-eq", "thm22-fwd", "thm22-conv", "prop23", "prop24-fwd", "prop24-conv",
    "prop25-reg", "prop25-intra", "thm26-fwd", "thm26-conv", "prop27",
)

_SWEEP = "sweep5 items_per_s"
_ANALYZE = "analyze4 items_per_s, item_p99_ms"
_CANON = "canon8 items_per_s, item_p99_ms"

# name, unit, better, source in the traced run, end-to-end metrics it moves.
# Sources: ("self", span) self seconds, ("calls", span) span count,
# ("count", key) tracer count, ("verdict", key) claim verdicts.
PER_LAYER = (
    ("enumeration.semigroups_s", "s", "lower",
     ("self", "enumeration.semigroup_representatives"),
     "sweep5 first_model_s, items_per_s; setup_s elsewhere"),
    ("enumeration.semigroup_classes", "count", "lower",
     ("count", "enumeration.semigroup_classes"), "golden: 405 on sweep5"),
    ("enumeration.stream_s", "s", "lower", ("self", "enumeration.enumerate_models"), _SWEEP),
    ("enumeration.models", "count", "higher",
     ("count", "enumeration.enumerate_models#yields"), "golden: 10200 on sweep5"),
    ("enumeration.automorphisms_s", "s", "lower", ("self", "enumeration.automorphisms"),
     _CANON + "; sweep5 slightly"),
    ("enumeration.automorphisms_calls", "count", "lower",
     ("calls", "enumeration.automorphisms"), _CANON),
    ("enumeration.canonical_form_s", "s", "lower", ("self", "enumeration.canonical_form"),
     _CANON),
    ("enumeration.canonical_form_calls", "count", "lower",
     ("calls", "enumeration.canonical_form"), _CANON),
    ("enumeration.compatible_orders_s", "s", "lower",
     ("self", "enumeration.compatible_orders"), _CANON),
    ("enumeration.orders_yielded", "count", "higher",
     ("count", "enumeration.compatible_orders#yields"), _CANON),
    ("structure.validate_s", "s", "lower", ("self", "structure.validate_structure"), _SWEEP),
    ("structure.validate_calls", "count", "lower",
     ("calls", "structure.validate_structure"), _SWEEP),
    ("structure.bounds_tables_s", "s", "lower", ("self", "structure.bounds_tables"), _SWEEP),
    ("structure.bounds_tables_calls", "count", "lower",
     ("calls", "structure.bounds_tables"), _SWEEP),
    ("claims.check_s", "s", "lower", ("self", "claims.check_claim"), _ANALYZE + "; " + _SWEEP),
    ("claims.checks", "count", "higher", ("calls", "claims.check_claim"), _ANALYZE),
    *((f"claims.{cid}_s", "s", "lower", ("self", "claims.check_claim", cid), _ANALYZE)
      for cid in CLAIM_IDS),
    ("claims.pass", "count", "higher", ("verdict", "pass"), "none: a finding"),
    ("claims.fail", "count", "lower", ("verdict", "fail"), "none: a finding (1 on sweep5)"),
    ("claims.na_tier", "count", "lower", ("verdict", "na_tier"), "none: a finding"),
    ("claims.na_hypothesis", "count", "lower", ("verdict", "na_hypothesis"), "none: a finding"),
    ("claims.instances", "count", "higher", ("verdict", "instances"), "none: a finding"),
    ("ideals.classify_all_s", "s", "lower", ("self", "ideals.classify_all"), _ANALYZE),
    ("regularity.profile_s", "s", "lower", ("self", "regularity.regularity_profile"), _ANALYZE),
    ("filters.saturate_s", "s", "lower", ("self", "filters.filter_generated"), _ANALYZE),
    ("filters.oracle_s", "s", "lower", ("self", "filters.filter_oracle"), _ANALYZE),
    ("filters.window_s", "s", "lower", ("self", "filters.thm26_set"), _ANALYZE),
    ("filters.partition_s", "s", "lower", ("self", "filters.n_class_partition"), _ANALYZE),
    ("fileformat.serialize_s", "s", "lower", ("self", "fileformat.serialize_structure"), _CANON),
    ("fileformat.parse_s", "s", "lower", ("self", "fileformat.parse_structure"), _CANON),
    ("sampling.random_models_s", "s", "lower", ("self", "sampling.random_models"),
     "canon8 setup_s"),
    ("trace.wall_s", "s", "lower", ("run", "wall_s"),
     "traced run from set-up to the last check, unscaled like the span times"),
    ("trace.spans_self_s", "s", "lower", ("run", "spans_self_s"),
     "sum of all span self times"),
    ("trace.outside_spans_s", "s", "lower", ("run", "outside_spans_s"),
     "benchmark code between spans: trace.wall_s - trace.spans_self_s"),
    ("trace.overhead_s", "s", "lower", ("run", "overhead_s"),
     "scaled wall time traced minus untraced, same rounds"),
    ("trace.overhead_ratio", "ratio", "lower", ("run", "overhead_ratio"),
     "trace.overhead_s over the untraced scaled wall time"),
    ("trace.spans", "count", "lower", ("run", "spans"), "spans recorded"),
)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
