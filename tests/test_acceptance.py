"""Acceptance criteria, one test per criterion.

Each test records a one-line PASS/FAIL verdict that pytest prints in the
"acceptance criteria" terminal section at the end of the run.
"""

import hashlib
import io
import json
import os
import time
from contextlib import contextmanager

import pytest

from starsemi import (
    INVOLUTION, PO_SEMIGROUP, POE,
    ModelSpec, StructureAnalysis, canonical_form, check_claim, enumerate_models, enumeration,
    filter_generated, filter_oracle, list_claims, list_mutants, n_class_partition,
    regularity_profile, search_counterexample, thm26_set, validate_structure,
)
from starsemi.claims import FAIL
from starsemi.cli import run as cli_run
from starsemi.fileformat import load_structure
from starsemi.filters import ORACLE_MAX_ORDER
from starsemi.sampling import random_models

from conftest import STRUCTURES, fingerprint, record_acceptance
from support import brute_canonical_form, naive_model_forms

INV_POE = frozenset({INVOLUTION, POE})

# Criterion 3 golden list: claims allowed to report zero non-vacuous instances
# over the order-<=4 sweep because their hypotheses are never met there.
# The sweep itself established that every claim is exercised; the list is empty.
HYPOTHESIS_UNMET_AT_ORDER_4 = frozenset()

# Criterion 8 golden outcomes over the order-<=4 sweep. mut-prop23-nostar and
# mut-thm13-swapped are provable consequences of the registered claims, so no
# finite catalog can falsify them. mut-thm13-conv-swapped first fails at order
# 5, on one model: the class of structures/thm13_conv_swapped_counterexample.txt.
MUTANT_OUTCOMES = {
    "mut-prop23-nostar": "unfalsified-at-bound",
    "mut-thm13-swapped": "unfalsified-at-bound",
    "mut-thm13-conv-swapped": "unfalsified-at-bound",
    "mut-prop15-all": "falsified",
    "mut-prop07-noswap": "falsified",
    "mut-prop17-all-idem": "falsified",
}


# Criterion 2 fingerprints of the order-5 involution-poe catalog: its canonical
# digests, and its per-model verdict records (digest, claim id, status,
# instances checked, vacuous) over the registered claims, and the same records
# over the mutants
CATALOG_5_FINGERPRINT = "v2-31cea26995317ba20da382ef53c8e8df9b84abcb4aad60a315b166e633b1c202"
VERDICTS_5_FINGERPRINT = "v2-1e71955b5209360bbe618066ac25007167e36a48b0c6d1f8751ef095b8dce492"
MUTANTS_5_FINGERPRINT = "v2-d7c2ad9222b2fe88e0132237e60ea0052e143378cd327de4ab3244eabb5c2907"
# The same two fingerprints of the order-6 involution-poe catalog (319,587
# models). Criterion 2's form would be 10.5 M verdict lines, so the verdict
# fingerprint has one line per model: its digest, then the sha256 of its
# per-claim lines "id status instances vacuous", in registry order
CATALOG_6_FINGERPRINT = "v2-fa465434094981fd7338c4f2aaff5b52a37073f8e21807e042f9f7a221a9a55f"
VERDICTS_6_FINGERPRINT = "v2-4e49a2292445c1c3fa4a251950d4b32a40a80848aae3439f11e4a0da4e578721"
# sha256 of the output of `search --order 6 --tiers involution,poe --claims all --json`
ORDER6_SWEEP_SHA256 = "a3ff650cb14685f2bddef47446f5f232b56c577f76024889dadd170173c6dc26"


@contextmanager
def criterion(number, title):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {number} ({title}): FAIL")
        raise
    record_acceptance(
        f"criterion {number} ({title}): PASS ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_example2_fidelity(example2_path):
    with criterion(1, "example2 fidelity"):
        t0 = time.perf_counter()
        raw = load_structure(example2_path)
        S, report = validate_structure(raw)
        assert {PO_SEMIGROUP, INVOLUTION} <= report.accepted
        n = raw.n
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v == raw.mult[i][j]:
                        continue
                    mult = [list(row) for row in raw.mult]
                    mult[i][j] = v
                    mutant, mreport = validate_structure(
                        type(raw)(n=n, mult=tuple(map(tuple, mult)), leq=raw.leq,
                                  star=raw.star, labels=raw.labels))
                    broken = {(a, b) for a in range(n) for b in range(n)
                              if mutant.star[mutant.mult[a][b]]
                              != mutant.mult[mutant.star[b]][mutant.star[a]]}
                    if broken:
                        assert INVOLUTION not in mreport.accepted
                        witnesses = {w.witness for w in mreport.violations_for(INVOLUTION)
                                     if w.axiom == "anti-homomorphism"}
                        assert witnesses == broken
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_exhaustive_claim_sweep(catalog_5):
    with criterion(2, "order-4 and order-5 claim sweeps, zero failures"):
        t0 = time.perf_counter()
        code = cli_run(["search", "--order", "3", "--tiers", "involution,poe",
                        "--claims", "all"], stdout=_Discard())
        order3_time = time.perf_counter() - t0
        assert code == 0
        assert order3_time < 10.0
        t0 = time.perf_counter()
        sweep = search_counterexample(ModelSpec(order=4, required_tiers=INV_POE), ("all",))
        order4_time = time.perf_counter() - t0
        assert sweep.complete and not sweep.failed
        assert sweep.models_checked == 482
        assert all(st.failures == 0 for st in sweep.stats.values())
        assert order4_time < 600.0
        # order 5 on the catalog that criterion 4 also reads
        assert len(catalog_5) == 10200
        ids = [c.id for c in list_claims()]
        mutant_ids = [c.id for c in list_mutants()]
        digests, verdicts, mutants = [], [], []
        for S in catalog_5:
            digest = canonical_form(S).digest
            digests.append(digest)
            ctx = StructureAnalysis(S)
            for cid in ids:
                rep = check_claim(S, cid, ctx)
                assert rep.status != FAIL, (cid, S.raw)
                verdicts.append(f"{digest} {cid} {rep.status} {rep.instances_checked} "
                                f"{rep.vacuous}")
            for cid in mutant_ids:
                rep = check_claim(S, cid, ctx)
                mutants.append(f"{digest} {cid} {rep.status} {rep.instances_checked} "
                               f"{rep.vacuous}")
        assert fingerprint(digests) == CATALOG_5_FINGERPRINT
        assert fingerprint(verdicts) == VERDICTS_5_FINGERPRINT
        assert len(mutants) == 61200
        assert fingerprint(mutants) == MUTANTS_5_FINGERPRINT


@pytest.mark.skipif(os.environ.get("STARSEMI_SLOW") != "1",
                    reason="set STARSEMI_SLOW=1 to sweep and fingerprint the order-6 catalog")
def test_slow_order6_sweep_and_fingerprints(monkeypatch):
    # one walk of the order-6 stream and one pass of the claims: the CLI
    # sweep, whose claim checks are recorded per model as it makes them,
    # and whose models each have their generated filters certified by the
    # subset oracle
    ids = [c.id for c in list_claims()]
    digests, verdicts, lines, filter_mismatches = [], [], [], []

    def recorded(S, cid, ctx):
        rep = check_claim(S, cid, ctx)
        lines.append(f"{cid} {rep.status} {rep.instances_checked} {rep.vacuous}")
        if len(lines) == len(ids):
            assert [line.split(" ", 1)[0] for line in lines] == ids
            digest = canonical_form(S).digest
            digests.append(digest)
            verdicts.append(f"{digest} {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
            lines.clear()
            if any(filter_generated(S, x).members != filter_oracle(S, x) for x in S.elements()):
                filter_mismatches.append(digest)
        return rep

    monkeypatch.setattr(enumeration, "check_claim", recorded)
    buf = io.StringIO()
    code = cli_run(["search", "--order", "6", "--tiers", "involution,poe", "--claims", "all",
                    "--json"], stdout=buf)
    out = buf.getvalue()
    doc = json.loads(out)
    assert code == 0 and doc["complete"] and "counterexample" not in doc
    assert doc["models_checked"] == len(digests) == 319587 and not lines
    assert all(st["failures"] == 0 for st in doc["stats"])
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER6_SWEEP_SHA256
    assert fingerprint(digests) == CATALOG_6_FINGERPRINT
    assert fingerprint(verdicts) == VERDICTS_6_FINGERPRINT
    assert not filter_mismatches


class _Discard:
    def write(self, _):
        pass


def test_criterion_3_non_vacuity():
    with criterion(3, "non-vacuity of every claim over the order-<=4 sweep"):
        totals = {c.id: 0 for c in list_claims()}
        ever_applicable = {c.id: False for c in list_claims()}
        for n in (1, 2, 3, 4):
            sweep = search_counterexample(ModelSpec(order=n, required_tiers=INV_POE),
                                          ("all",))
            assert not sweep.failed
            for cid, st in sweep.stats.items():
                totals[cid] += st.nonvacuous_instances
                ever_applicable[cid] |= st.applicable > 0
        for cid, total in totals.items():
            if cid in HYPOTHESIS_UNMET_AT_ORDER_4:
                assert not ever_applicable[cid]
            else:
                assert total >= 1, f"{cid} never exercised non-vacuously"


def test_criterion_4_filter_oracle_equivalence(catalog_upto_4, catalog_5):
    with criterion(4, "filter saturation equals subset-intersection oracle"):
        mismatches = 0
        for S in list(catalog_upto_4) + list(catalog_5):
            for x in S.elements():
                if filter_generated(S, x).members != filter_oracle(S, x):
                    mismatches += 1
        for S in random_models(100, ORACLE_MAX_ORDER, (PO_SEMIGROUP, POE), seed=74):
            for x in S.elements():
                if filter_generated(S, x).members != filter_oracle(S, x):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_5_thm26_bidirectional(catalog_upto_4):
    with criterion(5, "star-intra-regular iff filters match the window sets"):
        star_intra = set()
        window_match = set()
        for k, S in enumerate(catalog_upto_4):
            if regularity_profile(S).star_intra_regular:
                star_intra.add(k)
            if all(filter_generated(S, x).members == thm26_set(S, x)
                   for x in S.elements()):
                window_match.add(k)
        assert star_intra == window_match
        assert star_intra  # the equivalence is witnessed non-vacuously


def test_criterion_6_class_partition_consequence(catalog_upto_4):
    with criterion(6, "every class of a star-intra-regular structure has a top"):
        checked = 0
        for S in catalog_upto_4:
            if not regularity_profile(S).star_intra_regular:
                continue
            checked += 1
            part = n_class_partition(S)
            assert all(g is not None for g in part.block_greatest)
            for x in S.elements():
                t = S.prod(S.e, S.star[x], S.e)
                assert t in part.blocks[part.block_of(S.star[x])]
                assert all(S.le(y, t) for y in part.blocks[part.block_of(x)])
        assert checked > 0


def test_criterion_7_enumerator_soundness_completeness(catalog_upto_4):
    with criterion(7, "enumerator matches the naive oracle; forms distinct"):
        for n in (1, 2, 3):
            emitted = list(enumerate_models(ModelSpec(order=n, required_tiers=INV_POE)))
            assert len({canonical_form(S) for S in emitted}) == len(emitted)
            assert {brute_canonical_form(S) for S in emitted} == naive_model_forms(n)
        order4 = [canonical_form(S) for S in catalog_upto_4 if S.n == 4]
        assert len(order4) == 482
        assert len(set(order4)) == len(order4)


def test_criterion_8_mutation_sensitivity(catalog_5):
    with criterion(8, "corrupted claim variants are caught or reported unfalsified"):
        outcomes = {}
        for mut in MUTANT_OUTCOMES:
            outcome = "unfalsified-at-bound"
            for n in (1, 2, 3, 4):
                sweep = search_counterexample(
                    ModelSpec(order=n, required_tiers=INV_POE), (mut,))
                if sweep.failed:
                    model, creport = sweep.counterexample
                    # the counterexample must replay as a genuine violation
                    from starsemi import replay_counterexample
                    assert replay_counterexample(model, creport)
                    outcome = "falsified"
                    break
                assert sweep.complete  # "unfalsified at bound" is explicit
            outcomes[mut] = outcome
        assert outcomes == MUTANT_OUTCOMES
        assert sum(1 for v in outcomes.values() if v == "falsified") >= 1
        spec_listed = ("mut-prop23-nostar", "mut-thm13-swapped", "mut-prop15-all")
        assert len(spec_listed) >= 3
        assert any(outcomes[m] == "falsified" for m in spec_listed)
        failing = [S for S in catalog_5
                   if check_claim(S, "mut-thm13-conv-swapped").status == FAIL]
        fixture = load_structure(STRUCTURES / "thm13_conv_swapped_counterexample.txt")
        assert [canonical_form(S) for S in failing] == [canonical_form(fixture)]
