import pytest

from starsemi import INVOLUTION, StructureAnalysis, classify_all, regularity_profile
from starsemi.regularity import _failure_masks

from support import chain2, cold_and_warm, example2, kept_fact_raws, mk, one_point


def test_chain2_all_four_properties():
    S, _ = chain2()
    p = regularity_profile(S)
    assert p.regular and p.intra_regular
    assert p.star_regular and p.star_intra_regular
    assert p.regular_failures == () and p.star_intra_regular_failures == ()


def test_one_point_all_four_properties():
    S, _ = one_point()
    p = regularity_profile(S)
    assert (p.regular, p.intra_regular, p.star_regular, p.star_intra_regular) == (
        True, True, True, True)


def test_failing_elements_exact():
    # constant multiplication with top e: aea = 0 so only 0 satisfies a <= aea
    S, _ = mk(((0, 0), (0, 0)), pairs=((0, 1),), star=(0, 1))
    p = regularity_profile(S)
    assert not p.regular and p.regular_failures == (1,)
    assert not p.intra_regular and p.intra_regular_failures == (1,)
    assert p.star_regular_failures == (1,) and p.star_intra_regular_failures == (1,)


def test_star_properties_none_without_involution():
    S, _ = mk(((0, 0), (0, 1)), pairs=((0, 1),))
    p = regularity_profile(S)
    assert p.star_regular is None and p.star_intra_regular is None
    assert p.star_regular_failures is None
    assert p.regular is True


def test_requires_greatest_element():
    S, _ = example2()
    with pytest.raises(ValueError):
        regularity_profile(S)


def test_star_implies_plain_over_catalog(catalog_upto_3):
    # the Prop-25 consistency check on computed flags: no exceptions allowed
    for S in catalog_upto_3:
        p = regularity_profile(S)
        if p.star_regular:
            assert p.regular
        if p.star_intra_regular:
            assert p.intra_regular


def test_regular_structures_have_idempotent_sided_ideals(catalog_upto_3):
    for S in catalog_upto_3:
        p = regularity_profile(S)
        if not p.regular:
            continue
        for c in classify_all(S):
            if c.left_ideal or c.right_ideal:
                assert c.idempotent


def test_witnesses_replay():
    S, _ = mk(((0, 0), (0, 0)), pairs=((0, 1),), star=(0, 1))
    p = regularity_profile(S)
    for a in p.regular_failures:
        assert not S.le(a, S.prod(a, S.e, a))
    for a in p.star_intra_regular_failures:
        sa = S.star[a]
        assert not S.le(a, S.prod(S.e, sa, sa, S.e))


def test_failures_are_built_once_per_structure():
    S, _ = chain2()
    kept = _failure_masks(S)
    assert regularity_profile(S) == regularity_profile(S)
    assert StructureAnalysis(S).failure_masks is StructureAnalysis(S).failure_masks is kept
    T, _ = chain2()  # equal tables, its own build
    assert _failure_masks(T) == kept and _failure_masks(T) is not kept


def _oracle_profile(S):
    """The failing elements of a <= a e a, a <= e a a e, a <= a* e a* and
    a <= e a* a* e, from the raw tables with e found by a scan; the starred
    ones are None without the involution tier."""
    n, mult, leq = S.raw.n, S.raw.mult, S.raw.leq
    e = next(t for t in range(n) if all(leq[a][t] for a in range(n)))

    def failures(through):
        return (tuple(a for a in range(n) if not leq[a][mult[mult[through[a]][e]][through[a]]]),
                tuple(a for a in range(n)
                      if not leq[a][mult[mult[mult[e][through[a]]][through[a]]][e]]))

    starred = failures(S.raw.star) if S.has(INVOLUTION) else (None, None)
    return failures(range(n)) + starred


def _profile(S):
    return None if S.e is None else regularity_profile(S)


def test_profile_agrees_cold_and_warm_and_with_the_oracle(catalog_upto_4):
    for raw in kept_fact_raws(catalog_upto_4):
        S, got, warm = cold_and_warm(raw, _profile)
        assert warm == got
        if got is not None:
            assert (got.regular_failures, got.intra_regular_failures, got.star_regular_failures,
                    got.star_intra_regular_failures) == _oracle_profile(S)


def test_a_failed_profile_is_not_kept():
    S, _ = example2()  # no top
    for _ in range(2):
        with pytest.raises(ValueError, match="^regularity needs a structure with a greatest"):
            regularity_profile(S)
