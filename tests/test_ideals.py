import random

import pytest
from hypothesis import given, settings, strategies as st

from starsemi import (
    INVOLUTION, PO_SEMIGROUP, POE, VEE, ElementClassification, RawStructure, StructureAnalysis,
    classify_all, classify_element, generated_left, generated_right, in_ideal_generated,
    validate_structure,
)
from starsemi import ideals
from starsemi.claims import _generated
from starsemi.sampling import random_model, random_models

from support import (
    chain2, cold_and_warm, example2, kept_fact_raws, mk, one_point, oracle_classify,
)

VEE_TIERS = (POE, VEE, PO_SEMIGROUP)


def brute_least_left_ideal_above(S, a):
    candidates = [x for x in S.elements()
                  if S.le(a, x) and S.le(S.prod(S.e, x), x)]
    least = [x for x in candidates if all(S.le(x, y) for y in candidates)]
    return least[0] if len(least) == 1 else None


def brute_least_right_ideal_above(S, a):
    candidates = [x for x in S.elements()
                  if S.le(a, x) and S.le(S.prod(x, S.e), x)]
    least = [x for x in candidates if all(S.le(x, y) for y in candidates)]
    return least[0] if len(least) == 1 else None


def test_classify_element_refuses_an_element_outside_the_structure():
    S, _ = chain2()
    assert classify_element(S, 1).element == 1
    for a in (2, -1):
        with pytest.raises(ValueError):
            classify_element(S, a)


@pytest.mark.parametrize("call", [
    lambda S, x: generated_left(S, x),
    lambda S, x: generated_right(S, x),
    lambda S, x: in_ideal_generated(S, x, 0),
    lambda S, x: in_ideal_generated(S, 0, x),
], ids=["generated_left", "generated_right", "in_ideal_generated-x", "in_ideal_generated-a"])
def test_element_functions_reject_missing_elements(call):
    S, _ = chain2()
    for x in (S.n, -1):
        with pytest.raises(ValueError, match=f"^no element {x} in a structure of order 2$"):
            call(S, x)


def test_generated_on_chain2():
    S, _ = chain2()
    assert generated_left(S, 0) == 0   # e*0 = 0, absorbing bottom
    assert generated_right(S, 1) == 1  # e idempotent and greatest


def test_generated_raises_without_top():
    S, _ = example2()
    with pytest.raises(ValueError):
        generated_left(S, 0)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 9))
def test_generated_ideals_are_least(seed):
    S = random_model(random.Random(seed), 7, VEE_TIERS)
    # the claim bodies read l(a) and r(a) of every a at once
    assert _generated(S) == ([generated_left(S, a) for a in S.elements()],
                             [generated_right(S, a) for a in S.elements()])
    for a in S.elements():
        la, ra = generated_left(S, a), generated_right(S, a)
        assert la == brute_least_left_ideal_above(S, a)
        assert ra == brute_least_right_ideal_above(S, a)
        assert S.le(a, la) and S.le(a, ra)
        assert classify_element(S, la).left_ideal
        assert classify_element(S, ra).right_ideal


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 9))
def test_generated_ideal_closure_laws(seed):
    S = random_model(random.Random(seed), 7, VEE_TIERS)
    for a in S.elements():
        la = generated_left(S, a)
        assert generated_left(S, la) == la            # l(l(a)) = l(a)
        ra = generated_right(S, a)
        assert generated_right(S, ra) == ra
        assert generated_left(S, ra) == generated_right(S, la)  # l(r(a)) = r(l(a))
        for b in S.elements():
            if S.le(a, b):
                assert S.le(la, generated_left(S, b))  # monotone
                assert S.le(ra, generated_right(S, b))


def test_products_with_top_are_sided_ideal_elements(catalog_upto_3):
    for S in catalog_upto_3:
        for a in S.elements():
            assert classify_element(S, S.prod(S.e, a)).left_ideal
            assert classify_element(S, S.prod(a, S.e)).right_ideal
            assert classify_element(S, S.prod(S.e, a, S.e)).two_sided_ideal


def test_in_ideal_reflexive():
    S, _ = chain2()
    assert in_ideal_generated(S, 0, 0) and in_ideal_generated(S, 1, 1)


def test_in_ideal_chain2_top_not_in_bottom_ideal():
    S, _ = chain2()
    assert not in_ideal_generated(S, 1, 0)  # e*0*e = 0 < e


def test_four_case_membership_implies_join_bound():
    # On join-complete structures the four-case membership is sound for the
    # join bound but strictly weaker: the join can dominate every disjunct.
    for S in random_models(100, 8, (POE, VEE, PO_SEMIGROUP, INVOLUTION), seed=20240809):
        for a in S.elements():
            j = S.join(S.join(S.join(a, S.prod(S.e, a)), S.prod(a, S.e)),
                       S.prod(S.e, a, S.e))
            assert j is not None
            for x in S.elements():
                if in_ideal_generated(S, x, a):
                    assert S.le(x, j)


def test_four_case_membership_strictly_weaker_than_join_bound():
    # constant multiplication, order 1 <= 0 and 2 <= 0: the top 0 is the join
    # of {1, 2} but lies below neither, so it is outside the four-case set
    S, report = mk(((2, 2, 2),) * 3, pairs=((1, 0), (2, 0)))
    assert {POE, VEE} <= report.accepted
    assert S.join(1, S.prod(S.e, 1)) == 0
    assert not in_ideal_generated(S, 0, 1)


def test_classify_chain2_bottom():
    S, _ = chain2()
    c = classify_element(S, 0)
    assert c.idempotent and c.left_ideal and c.right_ideal
    assert c.two_sided_ideal and c.quasi_ideal and c.bi_ideal
    assert c.semiprime and c.star_semiprime


def test_classify_example2_equality_order():
    S, _ = example2()
    # classification needs a greatest element, but idempotency is table-level
    assert S.prod(3, 3) == 3  # d is idempotent
    with pytest.raises(ValueError):
        classify_element(S, 3)


def test_classify_one_point_all_flags():
    S, _ = one_point()
    c = classify_element(S, 0)
    for name in type(c).FLAG_NAMES:
        assert getattr(c, name) is True


def test_quasi_meet_undefined_reported_as_none():
    # Smallest situation where ae ^ ea does not exist (found by exhaustive
    # search; impossible at order <= 4 since (ae)(ea) is always a common
    # lower bound): ae = 3 and ea = 2 are incomparable with two incomparable
    # maximal lower bounds 0 and 4.
    mult = ((4, 3, 4, 3, 4),
            (2, 1, 2, 1, 2),
            (2, 1, 2, 1, 2),
            (4, 3, 4, 3, 4),
            (4, 3, 4, 3, 4))
    S, report = mk(mult, pairs=((0, 2), (0, 3), (2, 1), (3, 1), (4, 2), (4, 3)))
    assert {POE, PO_SEMIGROUP} <= report.accepted
    assert S.e == 1
    assert S.prod(0, S.e) == 3 and S.prod(S.e, 0) == 2
    assert S.meet(3, 2) is None
    c = classify_element(S, 0)
    assert c.quasi_ideal is None
    assert classify_element(S, 1).quasi_ideal is not None  # ee ^ ee = e exists


def test_sided_duality_under_star(catalog_upto_3):
    for S in catalog_upto_3:
        classes = classify_all(S)
        for c in classes:
            dual = classes[S.star[c.element]]
            assert c.left_ideal == dual.right_ideal
            assert c.right_ideal == dual.left_ideal
            assert c.quasi_ideal == dual.quasi_ideal
            assert c.bi_ideal == dual.bi_ideal


def test_star_flags_not_applicable_without_involution():
    S, _ = mk(((0, 0), (0, 1)), pairs=((0, 1),))  # no star given
    c = classify_element(S, 0)
    assert c.star_left is None and c.star_right is None
    assert c.star_quasi is None and c.star_bi is None and c.star_semiprime is None
    assert c.left_ideal is True  # plain flags still decided


def test_two_sided_is_conjunction(catalog_upto_3):
    for S in catalog_upto_3:
        for c in classify_all(S):
            assert c.two_sided_ideal == (c.left_ideal and c.right_ideal)


def _flags(S):
    return [{"element": c.element, **{name: getattr(c, name)
                                      for name in ElementClassification.FLAG_NAMES}}
            for c in classify_all(S)]


def test_classify_all_matches_table_oracle_on_catalog(catalog_upto_4):
    for S in catalog_upto_4:
        assert _flags(S) == oracle_classify(S)
        assert [classify_element(S, a) for a in S.elements()] == list(classify_all(S))


def test_analysis_flag_masks_agree_with_classify_all(catalog_upto_4):
    # the claim checks read these masks; a tri-state flag is None where its meet is missing
    meets = {"quasi_ideal": "quasi_meet", "star_quasi": "star_quasi_meet"}
    for S in catalog_upto_4:
        masks = StructureAnalysis(S).flag_masks
        for c in classify_all(S):
            a = c.element
            for name in ElementClassification.FLAG_NAMES:
                mask = getattr(masks, name)
                if mask is None:
                    assert getattr(c, name) is None
                    continue
                exists = name not in meets or getattr(masks, meets[name]) >> a & 1
                assert getattr(c, name) == (bool(mask >> a & 1) if exists else None)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_classify_all_matches_table_oracle_on_random_structures(seed, with_star):
    S = random_model(random.Random(seed), 8, (POE, PO_SEMIGROUP, INVOLUTION))
    if not with_star:
        S, _ = validate_structure(RawStructure(n=S.n, mult=S.mult, leq=S.leq))
    assert S.has(INVOLUTION) == with_star
    assert _flags(S) == oracle_classify(S)


def test_flag_masks_are_built_once_per_structure(monkeypatch):
    calls = []
    sided = ideals._sided_masks
    monkeypatch.setattr(ideals, "_sided_masks",
                        lambda S, through: calls.append(S) or sided(S, through))
    S, _ = chain2()  # with the involution tier: plain and starred masks, two calls a build
    records = classify_all(S)
    assert [classify_element(S, a) for a in S.elements()] == list(records)
    first, second = StructureAnalysis(S), StructureAnalysis(S)
    assert first.flag_masks is second.flag_masks is classify_all(S).masks is records.masks
    assert calls == [S, S]
    T, _ = chain2()  # equal tables, its own build
    assert classify_all(T) == records and calls == [S, S, T, T]


def _classification(S):
    """classify_all and classify_element of every element, or None without a top."""
    if S.e is None:
        return None
    return list(classify_all(S)), [classify_element(S, a) for a in S.elements()]


def test_classification_agrees_cold_and_warm_and_with_the_oracle(catalog_upto_4):
    for raw in kept_fact_raws(catalog_upto_4):
        S, got, warm = cold_and_warm(raw, _classification)
        assert warm == got
        if got is not None:
            records, elements = got
            assert records == elements
            assert _flags(S) == oracle_classify(S)


def test_a_failed_classification_is_not_kept():
    S, _ = example2()  # no top
    for _ in range(2):
        for call in (lambda: classify_all(S), lambda: classify_element(S, 0)):
            with pytest.raises(ValueError, match="^operation needs a structure with a greatest"):
                call()
