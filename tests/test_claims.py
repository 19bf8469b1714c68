import dataclasses
import hashlib
import itertools
import json
import os
import random

import pytest

from starsemi import (
    ALL_TIERS, INVOLUTION, LE, POE, ModelSpec, RawStructure,
    StructureAnalysis, check_all, check_claim, expand_claim_ids,
    filter_oracle, get_claim, in_ideal_generated, list_claims, list_mutants,
    regularity_profile, replay_counterexample, report_record, search_counterexample,
    thm26_set, validate_structure,
)
from starsemi import claims
from starsemi.claims import (
    CONDITIONS, FAIL, ClaimReport, MUTANT, NOT_APPLICABLE, PASS, PROOF_STEP, _body_prop05, _plan,
)
from starsemi.fileformat import load_structure
from starsemi.sampling import random_models
from starsemi.structure import _STAR_BOUNDS_CACHE_SIZE, _lazy, _star_bounds, bounds_tables

from conftest import STRUCTURES, catalog

from support import (
    chain2, example2, mk, one_point, oracle_classify, oracle_star_on_bounds, reference_check,
    scan_meet, with_relabelings,
)

# sha256 of json.dumps(report_record(r, S)) + "\n" over the involution-poe
# catalog of one order, every claim and then every mutant in registry order
# on each model, with one fresh analysis per model: the statuses, instance
# counts, witnesses and reasons of every report
REPORTS_4_SHA256 = "d38879553c8b88a5e987b839bfbd55eee2120b28449155e694e55d8a920591d8"
REPORTS_5_SHA256 = "b63c64eaecde619e5b3b31a27833956fda68a7f6219fbc9b3b416b049f87b685"


def condition_holds(ctx, name):
    """A hypothesis holds when no body of its conjunction has a failing binding."""
    return all(ctx.outcome(body)[1] is None for body in CONDITIONS[name])


def test_registry_size_and_stability():
    claims = list_claims()
    assert len(claims) == 33
    assert len({c.id for c in claims}) == len(claims)
    assert claims == list_claims()  # stable order


def test_every_condition_is_some_claims_hypothesis():
    used = {c.condition for c in list_claims() + list_mutants()}
    assert set(CONDITIONS) <= used


def test_iff_theorems_split():
    ids = {c.id for c in list_claims()}
    assert {"thm26-fwd", "thm26-conv", "thm13-fwd", "thm13-conv",
            "thm22-fwd", "thm22-conv", "thm19"} <= ids


def test_every_claim_has_statement_and_tiers():
    for c in list_claims():
        assert c.statement.strip()
        assert c.requires_tiers
        assert get_claim(c.id) == c


def test_proof_step_claims_flagged():
    kinds = {c.id: c.kind for c in list_claims()}
    assert kinds["prop16-eq"] == PROOF_STEP
    assert kinds["thm20-eq"] == PROOF_STEP
    assert kinds["prop16"] != PROOF_STEP
    assert all(c.kind == MUTANT for c in list_mutants())
    assert len(list_mutants()) >= 3


def test_prop05_on_one_point():
    S, _ = one_point()
    rep = check_claim(S, "prop05")
    assert rep.status == PASS
    assert rep.instances_checked == 1
    assert not rep.vacuous


def test_thm26_fwd_on_chain2():
    S, _ = chain2()
    rep = check_claim(S, "thm26-fwd")
    assert rep.status == PASS and rep.instances_checked == 2


def test_check_all_on_one_point():
    S, _ = one_point()
    reports = check_all(S)
    assert len(reports) == len(list_claims())
    assert all(r.status in (PASS, NOT_APPLICABLE) for r in reports)
    assert not any(r.status == FAIL for r in reports)


def test_check_all_on_non_associative_structure():
    S, _ = mk(((0, 1), (0, 0)), pairs=((0, 1),), star=(0, 1))  # not associative
    for r in check_all(S):
        assert r.status == NOT_APPLICABLE


def test_hypothesis_gate_reports_missing_tiers():
    S, _ = chain2()
    S2, _ = example2()  # no greatest element
    rep = check_claim(S2, "thm13-conv")
    assert rep.status == NOT_APPLICABLE and "tier" in rep.reason
    rep2 = check_claim(S2, "prop05")  # only needs involution po-groupoid
    assert rep2.status == PASS


def test_missing_tier_reasons_name_each_structures_own_gaps():
    # one-point (every tier), example2 (no top), a non-associative table, a
    # constant table without a star: each report names exactly its own gaps
    structures = [one_point()[0], example2()[0],
                  mk(((0, 1), (0, 0)), pairs=((0, 1),), star=(0, 1))[0],
                  mk(((0, 0), (0, 0)), pairs=((0, 1),))[0]]
    for claim in list_claims():
        for S in structures:
            rep = check_claim(S, claim.id)
            missing = [t for t in ALL_TIERS if t in claim.requires_tiers and t not in S.tiers]
            if missing:
                assert rep.status == NOT_APPLICABLE
                assert rep.reason == "missing tier(s): " + ", ".join(missing)
            else:
                assert not rep.reason.startswith("missing tier")
    assert check_claim(example2()[0], "thm13-conv").reason == "missing tier(s): le"


def test_hypothesis_gate_reports_unmet_condition():
    # chain with constant multiplication: involution poe but NOT regular
    S, _ = mk(((0, 0), (0, 0)), pairs=((0, 1),), star=(0, 1))
    rep = check_claim(S, "prop08-idem")
    assert rep.status == NOT_APPLICABLE
    assert "regular" in rep.reason


def test_unknown_claim_id():
    S, _ = chain2()
    with pytest.raises(ValueError):
        check_claim(S, "prop99")


def test_expand_claim_ids():
    assert expand_claim_ids(["all"]) == tuple(c.id for c in list_claims())
    assert expand_claim_ids(["prop25"]) == ("prop25-reg", "prop25-intra")
    assert expand_claim_ids(["thm13-fwd", "thm13-fwd"]) == ("thm13-fwd",)
    assert expand_claim_ids(["mut-prop15-all"]) == ("mut-prop15-all",)
    with pytest.raises(ValueError) as err:
        expand_claim_ids(["prop99", "thm1"])
    assert "prop99" in str(err.value) and "thm1" in str(err.value)


def test_catalog_sweep_order_3_zero_failures(catalog_upto_3):
    for S in catalog_upto_3:
        ctx = StructureAnalysis(S)
        for rep in check_all(S, ctx):
            assert rep.status != FAIL, (rep.claim_id, S.raw)


def test_mutant_counterexample_replay():
    spec = ModelSpec(order=3, required_tiers=frozenset({INVOLUTION, POE}))
    sweep = search_counterexample(spec, ("mut-prop15-all",))
    assert sweep.failed
    model, rep = sweep.counterexample
    assert rep.status == FAIL and rep.counterexample is not None
    assert len(rep.counterexample) == len(rep.variables)
    assert replay_counterexample(model, rep)
    # the witness genuinely violates the corrupted statement
    (a,) = rep.counterexample
    assert model.star[a] != a
    # ... on a structure that really is star-regular
    from starsemi import regularity_profile
    assert regularity_profile(model).star_regular


def test_report_record_round_trip():
    S, _ = chain2()
    for rep in check_all(S):
        rec = report_record(rep, S)
        parsed = json.loads(json.dumps(rec))
        assert parsed == rec
        assert set(rec) == {"id", "status", "witness", "instances_checked",
                            "vacuous", "reason"}
    spec = ModelSpec(order=3, required_tiers=frozenset({INVOLUTION, POE}))
    sweep = search_counterexample(spec, ("mut-prop15-all",))
    model, rep = sweep.counterexample
    rec = json.loads(json.dumps(report_record(rep, model)))
    assert rec["status"] == "fail"
    assert rec["witness"] == {var: model.label(el)
                              for var, el in zip(rep.variables, rep.counterexample)}


def test_thm19_checks_equivalence_both_ways(catalog_upto_3):
    from starsemi import regularity_profile
    seen_true = seen_false = False
    for S in catalog_upto_3:
        if LE not in S.tiers:
            continue
        rep = check_claim(S, "thm19")
        assert rep.status == PASS
        if regularity_profile(S).star_regular:
            seen_true = True
        else:
            seen_false = True
    assert seen_true and seen_false  # the equivalence is exercised on both sides


def test_example2_with_recovered_order_checkable():
    # decorate the five-element table with a search-recovered greatest-element
    # order and run the full registry on it
    from starsemi.enumeration import compatible_orders
    from support import EXAMPLE2_MULT, EXAMPLE2_STAR
    for leq in compatible_orders(EXAMPLE2_MULT, EXAMPLE2_STAR, require_greatest=True):
        pairs = [(a, b) for a in range(5) for b in range(5) if a != b and leq[a][b]]
        S, report = example2(pairs=pairs)
        assert POE in report.accepted and INVOLUTION in report.accepted
        reports = check_all(S)
        assert all(r.status in (PASS, NOT_APPLICABLE) for r in reports)
        break
    else:
        pytest.fail("no greatest-element order recovered")


def test_sided_pair_claims_run_over_their_pairs(catalog_upto_4):
    # thm13-fwd and its mutant take pairs with a left or b right ideal, thm22-fwd
    # and the meets-below conditions pairs with a left and b right, all with a
    # defined meet
    applicable = set()
    for S in catalog_upto_4:
        flags = oracle_classify(S)
        left = [f["left_ideal"] for f in flags]
        right = [f["right_ideal"] for f in flags]
        meets = {(a, b): scan_meet(S, a, b) for a in S.elements() for b in S.elements()}
        either = [(a, b) for (a, b), m in meets.items() if m is not None and (left[a] or right[b])]
        both = [(a, b) for (a, b), m in meets.items() if m is not None and left[a] and right[b]]
        for cid, pairs in (("thm13-fwd", either), ("mut-thm13-swapped", either),
                           ("thm22-fwd", both)):
            rep = check_claim(S, cid)
            if rep.status != NOT_APPLICABLE:
                applicable.add(cid)
                assert rep.instances_checked == len(pairs)
        star, mult = S.star, S.mult
        ctx = StructureAnalysis(S)
        for name, reverse in (("sided-meets-below-star-products", False),
                              ("sided-meets-below-reversed-star-products", True)):
            want = all(S.le(meets[a, b], mult[star[b]][star[a]] if reverse
                            else mult[star[a]][star[b]]) for a, b in both)
            assert condition_holds(ctx, name) == want
    assert applicable == {"thm13-fwd", "mut-thm13-swapped", "thm22-fwd"}


def test_swapped_thm13_converse_fails_on_the_order5_fixture():
    # thm13-fwd concludes a ^ b <= a*b* and thm22-fwd b*a*; each converse
    # assumes the inequality its forward direction concludes. The fixture
    # meets only the b*a* hypothesis, and is intra-regular but not regular.
    raw = load_structure(STRUCTURES / "thm13_conv_swapped_counterexample.txt")
    S, report = validate_structure(raw)
    assert LE in report.accepted and INVOLUTION in report.accepted
    profile = regularity_profile(S)
    assert not profile.regular and profile.intra_regular and profile.star_intra_regular
    rep = check_claim(S, "mut-thm13-conv-swapped")
    assert rep.status == FAIL and rep.counterexample == (0,)
    assert replay_counterexample(S, rep)
    assert S.prod(0, S.e, 0) == 4 and S.le(4, 0) and not S.le(0, 4)
    assert check_claim(S, "thm13-conv").reason == (
        "hypothesis not met: sided-meets-below-star-products")
    assert check_claim(S, "thm22-conv").status == PASS
    assert all(r.status != FAIL for r in check_all(S))


def test_conditions_match_their_definitions(catalog_upto_4):
    for S in catalog_upto_4:
        ctx = StructureAnalysis(S)
        profile = regularity_profile(S)
        flags = oracle_classify(S)
        mult, star = S.mult, S.star
        want = {
            "star-regular": profile.star_regular,
            "regular": profile.regular,
            "star-intra-regular": profile.star_intra_regular,
            "ideal-elements-star-semiprime": all(
                f["star_semiprime"] for f in flags if f["two_sided_ideal"]),
            "squares-generate": all(
                in_ideal_generated(S, x, mult[x][x]) for x in S.elements()),
            "star-squares-generate": all(
                in_ideal_generated(S, x, mult[star[x]][star[x]]) for x in S.elements()),
            "filters-equal-star-window": all(
                filter_oracle(S, x) == thm26_set(S, x) for x in S.elements()),
        }
        for name, value in want.items():
            assert condition_holds(ctx, name) == value, (name, S.raw)


def test_prop17_and_prop25_reg_report_alike(catalog_upto_4):
    for S in catalog_upto_4:
        ctx = StructureAnalysis(S)
        rep17 = check_claim(S, "prop17", ctx)
        assert check_claim(S, "prop25-reg", ctx) == dataclasses.replace(
            rep17, claim_id="prop25-reg")
        assert check_claim(S, "prop25-reg") == check_claim(S, "prop25-reg", ctx)


def test_analysis_facts_are_computed_once_per_analysis(monkeypatch):
    calls = []
    classify = claims.classify_all
    monkeypatch.setattr(claims, "classify_all", lambda S: calls.append(S) or classify(S))
    S, _ = chain2()
    first, second = StructureAnalysis(S), StructureAnalysis(S)
    assert first.flag_masks is first.flag_masks
    assert second.flag_masks == first.flag_masks
    assert calls == [S, S]
    for name in ("flag_masks", "failure_masks", "filter_masks", "filter_classes", "partition",
                 "window_masks"):
        assert isinstance(getattr(StructureAnalysis, name), _lazy)


def test_outcome_runs_each_body_once():
    S, _ = chain2()
    runs = []

    def body(ctx):
        runs.append(ctx.S)
        return 1, 0b11, 0b01  # two instances, element 1 fails

    ctx = StructureAnalysis(S)
    assert ctx.outcome(body) == (2, (1,))
    assert ctx.outcome(body) == (2, (1,))
    assert runs == [S]
    assert StructureAnalysis(S).outcome(body) == (2, (1,))
    assert runs == [S, S]


def _bindings(n, arity):
    """Every binding of the arity in lexicographic order: bit i is entry i."""
    return list(itertools.product(range(n), repeat=arity))


@pytest.mark.parametrize("arity", [0, 1, 2])
def test_outcome_is_the_guard_popcount_and_the_lowest_failing_binding(arity):
    S, _ = one_point() if arity == 0 else example2()  # example2 has 5 elements
    bindings = _bindings(S.n, arity)
    every = (1 << len(bindings)) - 1
    last = len(bindings) - 1
    # (guard, ok) -> (instances, witness index or None)
    cases = [
        ((0, 0), (0, None)),                          # vacuous: no instance
        ((0, every), (0, None)),                      # ok bits outside the guard
        ((every, every), (len(bindings), None)),
        ((every, every & ~1), (len(bindings), 0)),    # fails at the first binding
        ((every, every >> 1), (len(bindings), last)),  # fails at the last binding
        ((every, 0), (len(bindings), 0)),
    ]
    if arity:
        odd = sum(1 << i for i in range(1, len(bindings), 2))
        cases += [
            ((odd, 0), (len(bindings) // 2, 1)),       # the lowest bit of the guard
            ((odd, odd | 1), (len(bindings) // 2, None)),
            ((1 << last, 1 << last), (1, None)),
        ]
    for (guard, ok), (instances, index) in cases:
        ctx = StructureAnalysis(S)
        got = ctx.outcome(lambda _ctx: (arity, guard, ok))
        assert got == (instances, None if index is None else bindings[index]), (guard, ok)


def test_replay_tests_the_witness_binding():
    raw = load_structure(STRUCTURES / "thm13_conv_swapped_counterexample.txt")
    S, _ = validate_structure(raw)
    rep = check_claim(S, "mut-thm13-conv-swapped")
    assert rep.status == FAIL and rep.counterexample == (0,)
    assert replay_counterexample(S, rep)
    passing = [a for a in S.elements() if S.le(a, S.prod(a, S.e, a))]  # a <= a e a
    assert passing and 0 not in passing
    for a in passing:
        assert not replay_counterexample(S, dataclasses.replace(rep, counterexample=(a,)))


def test_replay_tests_pair_bindings(catalog_upto_3):
    # replay evaluates the body without the hypothesis gate, so prop16-eq's
    # body (a ^ b = ab for a right and b left ideal element) can be replayed
    # where it fails
    seen = set()
    for S in catalog_upto_3:
        flags = oracle_classify(S)
        rep = ClaimReport("prop16-eq", FAIL, counterexample=(0, 0), variables=("a", "b"))
        for a, b in _bindings(S.n, 2):
            instance = flags[a]["right_ideal"] and flags[b]["left_ideal"]
            holds = scan_meet(S, a, b) == S.mult[a][b]
            seen.add((instance, holds))
            assert replay_counterexample(
                S, dataclasses.replace(rep, counterexample=(a, b))) == (instance and not holds)
        assert not replay_counterexample(S, dataclasses.replace(rep, counterexample=(0,)))
    assert {(True, True), (True, False), (False, True), (False, False)} <= seen


def test_analysis_of_another_structure_is_rejected():
    S, _ = chain2()
    T, _ = one_point()
    ctx = StructureAnalysis(T)
    with pytest.raises(ValueError):
        check_claim(S, "prop05", ctx)
    with pytest.raises(ValueError):
        check_claim(S, "thm13-conv", ctx)  # even where a tier is missing
    with pytest.raises(ValueError):
        check_all(S, ctx)
    same_tables, _ = chain2()  # equal tables, another structure object
    with pytest.raises(ValueError):
        check_claim(same_tables, "prop05", StructureAnalysis(S))
    assert check_claim(T, "prop05", ctx).status == PASS


def _reports_sha256(models):
    ids = [c.id for c in list_claims() + list_mutants()]
    digest = hashlib.sha256()
    for S in models:
        ctx = StructureAnalysis(S)
        for cid in ids:
            digest.update((json.dumps(report_record(check_claim(S, cid, ctx), S)) + "\n").encode())
    return digest.hexdigest()


def test_report_records_of_the_order4_catalog_are_pinned():
    assert _reports_sha256(catalog(4)) == REPORTS_4_SHA256


@pytest.mark.skipif(os.environ.get("STARSEMI_SLOW") != "1",
                    reason="set STARSEMI_SLOW=1 to pin the reports of the order-5 catalog")
def test_slow_report_records_of_the_order5_catalog_are_pinned():
    assert _reports_sha256(catalog(5)) == REPORTS_5_SHA256


def test_check_claim_matches_an_independent_dispatch(catalog_upto_4):
    structures = list(catalog_upto_4)
    structures += [validate_structure(load_structure(path))[0]
                   for path in sorted(STRUCTURES.glob("*.txt"))]
    known = {S.tiers for S in structures}
    # tier sets that neither the catalog nor the files have: a table that is
    # not associative, one without a star, a relation that is not an order
    extra = [mk(((0, 1), (0, 0)), pairs=((0, 1),), star=(0, 1))[0],
             mk(((0, 0), (0, 0)), pairs=((0, 1),))[0],
             validate_structure(RawStructure(n=2, mult=((0, 0), (0, 0)),
                                             leq=((True, True), (True, False))))[0]]
    assert not known & {S.tiers for S in extra}
    structures += extra
    ids = [c.id for c in list_claims() + list_mutants()]
    _plan.cache_clear()  # every plan below is built in this test, on first use
    for S in structures:
        ctx, reference_ctx = StructureAnalysis(S), StructureAnalysis(S)
        for cid in ids:
            rep = check_claim(S, cid, ctx)
            got = (rep.status, rep.reason, rep.instances_checked, rep.counterexample, rep.vacuous)
            assert got == reference_check(S, cid, reference_ctx), (cid, S.raw)
            assert rep.variables == get_claim(cid).variables
    assert _plan.cache_info().currsize == len({S.tiers for S in structures})


def _random_starred_relations(count, seed):
    """Raw structures of 1-6 points with random tables, relations of random
    density, most of them not partial orders, and random stars."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        density = rng.random()
        mult = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        leq = tuple(tuple(rng.random() < density for _ in range(n)) for _ in range(n))
        star = list(range(n))
        rng.shuffle(star)
        out.append(RawStructure(n=n, mult=mult, leq=leq, star=tuple(star)))
    return out


def _prop05(S):
    """The prop05 outcome of S, with the guard and the holding instances."""
    ctx = StructureAnalysis(S)
    _, guard, ok = _body_prop05(ctx)
    return ctx.outcome(_body_prop05), guard, guard & ok


def test_prop05_is_the_same_with_a_cold_and_a_warm_star_bounds_cache(catalog_upto_4):
    # each structure's prop05 from an empty cache, then all of them in turn
    # from the cache the others left: masks kept under a key coarser than
    # the join table, the meet table and the star would hand one structure
    # the masks of another
    raws = with_relabelings([S.raw for S in catalog_upto_4], seed=30)
    raws += [raw for raw in map(load_structure, sorted(STRUCTURES.glob("*.txt")))
             if raw.star is not None]
    raws += _random_starred_relations(300, seed=2030)
    structures = [validate_structure(raw)[0] for raw in raws]
    structures += random_models(60, 8, (INVOLUTION, POE), seed=2031)
    assert max(S.n for S in structures) > 6
    # the inputs hold structures whose masks differ while their stars agree,
    # and while their join tables and stars agree (not on partial orders,
    # where the join table determines the order)
    oracle = [oracle_star_on_bounds(S) for S in structures]
    by_star, by_join = {}, {}
    for S, masks in zip(structures, oracle):
        by_star.setdefault(S.star, set()).add(masks)
        by_join.setdefault((S.join_table, S.star), set()).add(masks)
    assert any(len(found) > 1 for found in by_star.values())
    assert any(len(found) > 1 for found in by_join.values())
    cold = []
    for S in structures:
        _star_bounds.cache_clear()
        cold.append(_prop05(S))
    for S, expected, masks in zip(structures, cold, oracle):
        got = _prop05(S)
        assert got == expected
        assert got[1:] == masks
    assert _star_bounds.cache_info().hits > 0


def test_star_bounds_are_shared_by_one_order_and_star_and_stay_bounded(catalog_upto_4):
    # two models with different tables on one order and one star
    by_order = {}
    for S in catalog_upto_4:
        by_order.setdefault((S.leq, S.star), []).append(S)
    first, second = next(group for group in by_order.values() if len(group) > 1)[:2]
    assert first.mult != second.mult
    _star_bounds.cache_clear()
    got = [_body_prop05(StructureAnalysis(S)) for S in (first, second)]
    assert got[0] == got[1]
    info = _star_bounds.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # more distinct triples than the cache holds: relations on 4 points
    rng = random.Random(2032)
    keys = set()
    while len(keys) < _STAR_BOUNDS_CACHE_SIZE + 100:
        leq = tuple(tuple(rng.random() < 0.5 for _ in range(4)) for _ in range(4))
        star = tuple(rng.sample(range(4), 4))
        keys.add((*bounds_tables(leq), star))
    for key in keys:
        _star_bounds(*key)
    assert _star_bounds.cache_info().currsize == _STAR_BOUNDS_CACHE_SIZE
