"""The workloads of the starsemi benchmark.

Every workload is a closed loop in one process. ``setup`` builds the inputs
from the seed and runs the golden-count and preflight checks; ``run_round``
times each item and records whether the item's correctness check matched.
Items of the program are called through the ``starsemi`` package namespace,
looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
import statistics
import sys
import traceback
from array import array
from itertools import permutations
from math import factorial
import starsemi as api
from starsemi.claims import FAIL, NOT_APPLICABLE, PASS

INV_POE = frozenset({api.INVOLUTION, api.POE})

# involution-poe models per order (ROADMAP golden counts)
CATALOG_COUNTS = {1: 1, 2: 4, 3: 34, 4: 482}
SWEEP_ORDER, SWEEP_MODELS, SWEEP_CLASSES = 5, 10200, 405

# the two-element chain 0 <= e, xy = 0 except e.e = e, identity involution
PREFLIGHT_TEXT = """\
n 2
labels 0 e
mult
0 0
0 e
leq
0 <= e
star
0 -> 0
e -> e
"""


class Ops:
    """Operations attempted and failed in one run, and the stamps of every
    timed item. An operation fails when it raises or its check does not
    match. The stamps go into flat arrays, so that the benchmark's own memory
    hardly grows with the number of rounds and does not move peak_rss_mb."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.item_ids: dict[object, int] = {}  # item key -> id; an item may recur
        self.item_id = array("i")  # per timed item
        self.stamps = array("d")  # per timed item: both fields of its two stamps

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def item(self, key, a, b, ok, what):
        """One item timed from stamp a to stamp b; scaled when the run ends."""
        self.items += 1
        self.item_id.append(self.item_ids.setdefault(key, len(self.item_ids)))
        self.stamps.extend((*a, *b))
        self.check(what, ok)

    def latencies(self, clock):
        """Scaled latency of each item, the median over its rounds."""
        by_item = [[] for _ in self.item_ids]
        s = self.stamps
        for i, kid in enumerate(self.item_id):
            by_item[kid].append(clock.elapsed(s[4 * i:4 * i + 2], s[4 * i + 2:4 * i + 4]))
        return [statistics.median(v) for v in by_item]


def guarded(fn, *args):
    """Run one operation; an exception is reported and yields None."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


class Verdicts:
    """Claim verdict counts; not-applicable is split by the reason prefix."""

    KEYS = ("pass", "fail", "na_tier", "na_hypothesis", "instances")

    def __init__(self):
        self.n = dict.fromkeys(self.KEYS, 0)

    def record(self, rep):
        """Count one report; False when its status or reason is not one the
        report contract names."""
        if rep.status == PASS:
            self.n["pass"] += 1
        elif rep.status == FAIL:
            self.n["fail"] += 1
        elif rep.status == NOT_APPLICABLE and rep.reason.startswith("missing tier"):
            self.n["na_tier"] += 1
        elif rep.status == NOT_APPLICABLE and rep.reason.startswith("hypothesis not met"):
            self.n["na_hypothesis"] += 1
        else:
            return False
        self.n["instances"] += rep.instances_checked
        return True


def relabel(raw, perm):
    """The copy of ``raw`` whose element i is element perm[i] of ``raw``."""
    n = raw.n
    inv = [0] * n
    for i, x in enumerate(perm):
        inv[x] = i
    mult = tuple(tuple(inv[raw.mult[perm[x]][perm[y]]] for y in range(n)) for x in range(n))
    leq = tuple(tuple(raw.leq[perm[x]][perm[y]] for y in range(n)) for x in range(n))
    star = None if raw.star is None else tuple(inv[raw.star[perm[x]]] for x in range(n))
    return api.RawStructure(n=n, mult=mult, leq=leq, star=star)


def tables(raw):
    return raw.n, raw.mult, raw.leq, raw.star


def same_tables(a, b):
    return tables(a) == tables(b)


def build_catalog(ops, clock, golden=CATALOG_COUNTS):
    """Involution-poe models of every order in ``golden``, each order's count
    checked. Also returns the stamps of calling enumerate_models at the
    largest order and of its first model."""
    models, first = [], None
    for n, want in golden.items():
        t0 = clock.stamp()
        got = []
        for model in api.enumerate_models(api.ModelSpec(n, INV_POE)):
            if not got:
                first = (t0, clock.stamp())
            got.append(model)
        ops.check(f"order-{n} model count {len(got)} == {want}", len(got) == want)
        models.extend(got)
    return models, first


def preflight(ops, seed, verdicts):
    """Put a fixed two-element structure with known answers through every
    public layer once, so that a run confirms the program answers correctly
    before timing starts. Its claim verdicts are counted in ``verdicts``."""
    raw = api.parse_structure(PREFLIGHT_TEXT)
    S, report = api.validate_structure(raw)
    ops.check("preflight tiers", report.accepted == frozenset(api.ALL_TIERS))
    back = api.parse_structure(api.serialize_structure(S))
    ops.check("preflight round trip", same_tables(back, raw))
    ops.check("preflight canonical form",
              api.canonical_form(S) == api.canonical_form(relabel(raw, (1, 0))))
    ops.check("preflight automorphisms", len(api.automorphisms(S.mult, S.leq, S.star)) == 1)
    orders = sum(1 for _ in api.compatible_orders(S.mult, S.star, require_greatest=True))
    ops.check("preflight compatible orders", orders == 2)
    ops.check("preflight filters", all(
        api.filter_generated(S, x).members == api.filter_oracle(S, x)
        and x in api.thm26_set(S, x) for x in S.elements()))
    ops.check("preflight partition", len(api.n_class_partition(S).blocks) == 2)
    ctx = api.StructureAnalysis(S)
    fails = verdicts.n["fail"]
    ops.check("preflight claims", all(
        verdicts.record(api.check_claim(S, c.id, ctx)) for c in api.list_claims())
        and verdicts.n["fail"] == fails)
    sample = api.random_models(2, 3, INV_POE, seed=seed)
    ops.check("preflight samples", all(INV_POE <= m.tiers for m in sample))


class Workload:
    """Base of the workloads. A run has between ``min_rounds`` and
    ``max_rounds`` rounds (None: as many as --seconds allows)."""

    name = ""
    min_rounds = 1
    max_rounds = None

    def __init__(self, seed: int, clock):
        self.seed = seed
        self.clock = clock
        self.first_model = None  # stamps of the enumerate_models call and its first model
        self.verdicts = Verdicts()
        self.counts: dict[str, int] = {}
        self.claim_ids = [c.id for c in api.list_claims()]

    def setup(self, ops):
        raise NotImplementedError

    def prepare_round(self, k):
        """Build round k's inputs; runs outside the timed region."""

    def run_round(self, k, ops):
        raise NotImplementedError

    def finish(self, ops):
        """Run-level checks after the last round."""

    def check_trace(self, ops, counts):
        """Checks of the counts a traced run's wrappers recorded."""

    def _claims(self, S, ctx):
        """All registered claims on S; returns (statuses, reports well-formed)."""
        ok = True
        statuses = []
        for cid in self.claim_ids:
            rep = api.check_claim(S, cid, ctx)
            ok = self.verdicts.record(rep) and ok
            if rep.status == FAIL:
                ok = api.replay_counterexample(S, rep) and ok
            statuses.append(rep.status)
        return tuple(statuses), ok


class Sweep5(Workload):
    """Stream every order-5 involution-poe model, cold, and run all claims on
    each, sharing one StructureAnalysis per model. Unlike
    search_counterexample it does not stop at the first counterexample."""

    name = "sweep5"
    max_rounds = 1  # a second sweep in the process would find warm caches

    def setup(self, ops):
        preflight(ops, self.seed, self.verdicts)

    def run_round(self, k, ops):
        clock = self.clock
        models = 0
        t0 = prev = clock.stamp()
        try:
            for model in api.enumerate_models(api.ModelSpec(SWEEP_ORDER, INV_POE)):
                if models == 0:
                    self.first_model = (t0, clock.stamp())
                ok = guarded(self._sweep_one, model)
                now = clock.stamp()
                ops.item(models, prev, now, bool(ok), f"model {models}")
                prev = now
                models += 1
        except Exception:
            traceback.print_exc()
            ops.check("enumerate_models raised", False)
        if self.first_model is None:
            self.first_model = (t0, clock.stamp())
        self.counts["models"] = models

    def _sweep_one(self, model):
        _, ok = self._claims(model, api.StructureAnalysis(model))
        return ok and INV_POE <= model.tiers

    def finish(self, ops):
        got = self.counts["models"]
        ops.check(f"order-{SWEEP_ORDER} model count {got} == {SWEEP_MODELS}",
                  got == SWEEP_MODELS)

    def check_trace(self, ops, counts):
        # semigroup_representatives is called once per run; its cache keys
        # differ by argument spelling, so a second call could repeat the search
        got = counts.get("enumeration.semigroup_classes")
        ops.check(f"order-{SWEEP_ORDER} semigroup class count {got} == {SWEEP_CLASSES}",
                  got == SWEEP_CLASSES)


class Analyze4(Workload):
    """Claim, ideal, regularity and filter analysis of relabeled copies of the
    order <= 4 catalog. Every round holds COPIES items per model; item j of
    round k is the model under relabeling k * COPIES + j of a seeded order of
    all n! relabelings, so a labeled table recurs only after n! / |Aut| / 2
    rounds. An item's latency is its median over the rounds."""

    name = "analyze4"
    COPIES = 2

    def setup(self, ops):
        self.catalog, self.first_model = build_catalog(ops, self.clock)
        preflight(ops, self.seed, self.verdicts)
        rng = random.Random(f"analyze4/{self.seed}")
        self.orbits = []
        for model in self.catalog:
            perms = list(permutations(range(model.n)))
            rng.shuffle(perms)
            self.orbits.append(perms)
        self.reference: dict[int, tuple] = {}

    def prepare_round(self, k):
        self.batch = [(idx, j, relabel(m.raw, orbit[(k * self.COPIES + j) % len(orbit)]))
                      for j in range(self.COPIES)
                      for idx, (m, orbit) in enumerate(zip(self.catalog, self.orbits))]

    def run_round(self, k, ops):
        clock = self.clock
        for idx, j, raw in self.batch:
            t = clock.stamp()
            ok = guarded(self._analyze, idx, raw)
            ops.item((idx, j), t, clock.stamp(), bool(ok), f"round {k} model {idx} copy {j}")

    def _analyze(self, idx, raw):
        S, report = api.validate_structure(raw)
        statuses, ok = self._claims(S, api.StructureAnalysis(S))
        # claim statuses are invariant under relabeling
        ok = statuses == self.reference.setdefault(idx, statuses) and ok
        for x in S.elements():
            ok = api.filter_generated(S, x).members == api.filter_oracle(S, x) and ok
            api.thm26_set(S, x)
        blocks = api.n_class_partition(S).blocks
        ok = sorted(x for b in blocks for x in b) == list(S.elements()) and ok
        return ok and INV_POE <= report.accepted


class Canon8(Workload):
    """Canonical forms, automorphism groups, compatible orders and the text
    round trip on seeded random models of order 5-8 and relabeled catalog
    models of order <= 4 (the catalog carries the nontrivial stars that
    random_models never produces). Every base structure comes as two
    relabeled items, which must agree. The catalog holds one model per
    isomorphism class, so the run also checks that the catalog bases it saw
    have pairwise distinct canonical forms, and that each one's automorphism
    count is n! over the number of distinct tables among its relabelings."""

    name = "canon8"
    min_rounds = 2  # at least 1000 items, so that the 99th percentile has 10 beyond it
    # random_models bases per round, by order; few large ones, since one
    # order-8 item costs about as much as a thousand catalog items. With
    # under 1% of the items of order 8, the 99th percentile falls among the
    # order-7 items.
    RANDOM_QUOTA = {8: 1, 7: 4, 6: 8, 5: 16}
    CATALOG_PER_ROUND = 261  # two rounds cover the 521 catalog models
    ORDERS_MAX_N = 6  # compatible_orders only up to this order
    SAMPLE_MAX_ORDER = 8
    max_rounds = 6  # inputs are drawn in setup for this many rounds

    def setup(self, ops):
        self.catalog, self.first_model = build_catalog(ops, self.clock)
        preflight(ops, self.seed, self.verdicts)
        pool = self._sample_pool()
        rng = random.Random(f"canon8/{self.seed}")
        walk = list(range(len(self.catalog)))
        rng.shuffle(walk)
        self.rounds = []
        self.catalog_index = []  # per round and base: catalog index, or None
        self.catalog_seen: dict[int, tuple] = {}  # catalog index -> (form, |Aut|)
        for k in range(self.max_rounds):
            bases = [pool[n].pop() for n, q in self.RANDOM_QUOTA.items() for _ in range(q)]
            index = [None] * len(bases)
            start = k * self.CATALOG_PER_ROUND
            index += [walk[(start + i) % len(walk)] for i in range(self.CATALOG_PER_ROUND)]
            bases += [self.catalog[idx] for idx in index[len(bases):]]
            self.catalog_index.append(index)
            items = []
            for model in bases:
                a = list(range(model.n))
                b = list(a)
                rng.shuffle(a)
                while model.n > 1 and b == a:
                    rng.shuffle(b)
                items += [relabel(model.raw, a), relabel(model.raw, b)]
            self.rounds.append(items)

    def _sample_pool(self):
        need = {n: q * self.max_rounds for n, q in self.RANDOM_QUOTA.items()}
        pool = {n: [] for n in need}
        batch = 0
        while any(len(pool[n]) < need[n] for n in need):
            for model in api.random_models(64, self.SAMPLE_MAX_ORDER, INV_POE,
                                           seed=self.seed * 1000 + batch):
                if model.n in pool and len(pool[model.n]) < need[model.n]:
                    pool[model.n].append(model)
            batch += 1
        return pool

    def run_round(self, k, ops):
        clock = self.clock
        base = None
        for i, raw in enumerate(self.rounds[k]):
            t = clock.stamp()
            sig = guarded(self._canon, raw)
            t_end = clock.stamp()
            if i % 2 == 0:
                base = sig
                ok = sig is not None
            else:
                ok = sig is not None and sig == base
                idx = self.catalog_index[k][i // 2]
                if ok and idx is not None:
                    # a class met again in a later round keeps its form and |Aut|
                    ok = self.catalog_seen.setdefault(idx, sig[:2]) == sig[:2]
            ops.item((k, i), t, t_end, ok, f"round {k} item {i} (n={raw.n})")

    def finish(self, ops):
        seen = self.catalog_seen
        forms = {form for form, _ in seen.values()}
        ops.check(f"{len(forms)} distinct canonical forms for {len(seen)} catalog classes",
                  len(forms) == len(seen))
        for idx, (_, auts) in sorted(seen.items()):
            raw = self.catalog[idx].raw
            orbit = {tables(relabel(raw, p)) for p in permutations(range(raw.n))}
            want = factorial(raw.n) // len(orbit)
            ops.check(f"catalog model {idx}: |Aut| {auts} == n!/orbit {want}", auts == want)

    def _canon(self, raw):
        """(canonical form, automorphism count, compatible-order count), or
        None when the serialize/parse round trip changes the tables."""
        form = api.canonical_form(raw)
        auts = len(api.automorphisms(raw.mult, raw.leq, raw.star))
        orders = None
        if raw.n <= self.ORDERS_MAX_N:
            orders = sum(1 for _ in api.compatible_orders(raw.mult, raw.star,
                                                          require_greatest=True))
        back = api.parse_structure(api.serialize_structure(raw))
        _, report = api.validate_structure(back)
        if not same_tables(back, raw) or not INV_POE <= report.accepted:
            return None
        return form, auts, orders


WORKLOADS = {w.name: w for w in (Sweep5, Analyze4, Canon8)}
