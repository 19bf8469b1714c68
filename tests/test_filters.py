import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from starsemi import (
    INVOLUTION, PO_SEMIGROUP, POE, RawStructure, StructureAnalysis, check_all, classify_all,
    filter_generated, filter_oracle, n_class_partition, regularity_profile, thm26_set,
    validate_structure,
)
from starsemi import filters
from starsemi.fileformat import load_structure
from starsemi.filters import _ORACLE_CACHE_SIZE, ORACLE_MAX_ORDER, _oracle_masks, is_filter
from starsemi.sampling import random_model, random_models

from conftest import REPO_ROOT, STRUCTURES
from support import (
    chain2, cold_and_warm, example2, kept_fact_raws, mk, one_point, oracle_filter_intersection,
    oracle_filter_saturation, oracle_thm26_set,
)


def test_chain2_filters():
    S, _ = chain2()
    assert filter_generated(S, 0).members == {0, 1}  # upward closure forces e
    assert filter_generated(S, 1).members == {1}


def test_oracle_on_toys():
    S, _ = chain2()
    assert filter_oracle(S, 0) == {0, 1}
    P, _ = one_point()
    assert filter_oracle(P, 0) == {0}


def test_oracle_size_guard():
    mult = tuple(tuple(0 for _ in range(13)) for _ in range(13))
    S, _ = mk(mult)
    with pytest.raises(ValueError):
        filter_oracle(S, 0)
    assert ORACLE_MAX_ORDER == 12


@pytest.mark.parametrize("function", [filter_generated, filter_oracle, thm26_set])
def test_per_element_functions_reject_missing_elements(function):
    S, _ = chain2()
    for x in (S.n, -1):
        with pytest.raises(ValueError, match=f"no element {x} "):
            function(S, x)


def test_oracle_rejects_a_missing_element_under_optimization():
    # the check is no assert, so `python -O` keeps it
    code = ("from starsemi import filter_oracle, load_structure, validate_structure\n"
            "S, _ = validate_structure(load_structure('structures/chain2.txt'))\n"
            "try:\n"
            "    filter_oracle(S, 2)\n"
            "except ValueError as exc:\n"
            "    print('ValueError', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError no element 2 in a structure of order 2\n"


def test_oracle_matches_the_subset_reference(catalog_upto_4):
    structures = list(catalog_upto_4)
    structures += [validate_structure(load_structure(path))[0]
                   for path in sorted(STRUCTURES.glob("*.txt"))]
    structures += random_models(40, 7, (PO_SEMIGROUP,), seed=20261020)
    structures += random_models(40, 7, (PO_SEMIGROUP, POE, INVOLUTION), seed=20261021)
    structures += _random_tables(random.Random(20261022), 80, 6)
    for S in structures:
        for x in S.elements():
            assert filter_oracle(S, x) == oracle_filter_intersection(S, x)


def test_oracle_answers_depend_on_the_order():
    # one table (the join of the chain 0 < 1), two orders: {0} is a filter
    # only where 1 is not above 0, so a cache that ignored the order would
    # hand the second structure the first one's answer
    table = ((0, 1), (1, 1))
    flat, _ = mk(table)
    chain, _ = mk(table, pairs=((0, 1),))
    assert flat.mult == chain.mult
    assert filter_oracle(flat, 0) == oracle_filter_intersection(flat, 0) == {0}
    assert filter_oracle(chain, 0) == oracle_filter_intersection(chain, 0) == {0, 1}


def test_oracle_cache_is_bounded(catalog_upto_4):
    assert _oracle_masks.cache_info().maxsize == _ORACLE_CACHE_SIZE
    for S in catalog_upto_4:
        filter_oracle(S, 0)
    assert _oracle_masks.cache_info().currsize == _ORACLE_CACHE_SIZE < len(catalog_upto_4)


def test_filter_closure_rules_and_minimality(catalog_upto_3):
    for S in catalog_upto_3:
        for x in S.elements():
            F = filter_generated(S, x).members
            assert x in F
            assert is_filter(S, F)                      # the three closure rules
            assert F == filter_oracle(S, x)              # least among all filters


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 9))
def test_saturation_matches_oracle_on_random_structures(seed):
    S = random_model(random.Random(seed), ORACLE_MAX_ORDER, (PO_SEMIGROUP,))
    for x in S.elements():
        assert filter_generated(S, x).members == filter_oracle(S, x)


def test_thm26_sets_on_chain2():
    S, _ = chain2()
    assert thm26_set(S, 1) == {1}   # e*0*e = 0 stays below e
    assert thm26_set(S, 0) == {0, 1}


def test_thm26_set_matches_its_definition(catalog_upto_4):
    for S in catalog_upto_4:
        for x in S.elements():
            assert thm26_set(S, x) == oracle_thm26_set(S, x)


def test_thm26_set_requires_involution_and_top():
    S, _ = mk(((0, 0), (0, 1)), pairs=((0, 1),))  # no star
    with pytest.raises(ValueError):
        thm26_set(S, 0)


def test_partition_chain2():
    S, _ = chain2()
    part = n_class_partition(S)
    assert part.blocks == (frozenset({0}), frozenset({1}))
    assert part.block_greatest == (0, 1)
    assert part.block_of(1) == 1


def test_partition_one_point():
    S, _ = one_point()
    part = n_class_partition(S)
    assert part.blocks == (frozenset({0}),)
    assert part.block_greatest == (0,)


def test_partition_blocks_share_filters(catalog_upto_3):
    for S in catalog_upto_3:
        part = n_class_partition(S)
        filters = [filter_generated(S, x).members for x in S.elements()]
        for blk in part.blocks:
            rep = min(blk)
            assert all(filters[y] == filters[rep] for y in blk)
        # block greatest, when present, really bounds its block
        for blk, g in zip(part.blocks, part.block_greatest):
            if g is not None:
                assert all(S.le(y, g) for y in blk)


def test_block_without_greatest_is_reported():
    # two incomparable maximal elements generating the same filter:
    # left-zero multiplication makes every filter the whole structure
    S, report = mk(((0, 0), (1, 1)))  # left zero, equality order
    part = n_class_partition(S)
    assert part.blocks == (frozenset({0, 1}),)
    assert part.block_greatest == (None,)


def test_thm26_equivalence_on_star_intra_catalog(catalog_upto_3):
    from starsemi import regularity_profile
    for S in catalog_upto_3:
        profile = regularity_profile(S)
        matches = all(filter_generated(S, x).members == thm26_set(S, x)
                      for x in S.elements())
        assert matches == bool(profile.star_intra_regular)


def _random_tables(rng, count, max_order):
    """Validated random tables with random relations: mostly neither
    associative nor ordered, so saturation meets every kind of divisor step."""
    out = []
    for _ in range(count):
        n = rng.randint(1, max_order)
        mult = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        leq = tuple(tuple(i == j or rng.random() < 0.15 for j in range(n)) for i in range(n))
        out.append(validate_structure(RawStructure(n=n, mult=mult, leq=leq))[0])
    return out


def test_saturation_members_match_the_set_oracle(catalog_upto_4):
    rng = random.Random(20261018)
    structures = list(catalog_upto_4)
    structures += [random_model(rng, 9, (PO_SEMIGROUP,)) for _ in range(300)]
    structures += _random_tables(rng, 600, 6)
    for S in structures:
        for x in S.elements():
            assert filter_generated(S, x).members == oracle_filter_saturation(S, x)


def _members(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _assert_analysis_matches_public_functions(S):
    # the analysis keeps each fact as bitmasks, one per element
    ctx = StructureAnalysis(S)
    assert [_members(m) for m in ctx.filter_masks] == [
        filter_generated(S, x).members for x in S.elements()]
    part = n_class_partition(S)
    assert [_members(m) for m in ctx.filter_classes] == [
        part.blocks[part.block_of(x)] for x in S.elements()]
    assert ctx.partition == part
    if S.e is not None and S.has(INVOLUTION):
        assert [_members(m) for m in ctx.window_masks] == [thm26_set(S, x) for x in S.elements()]


def test_analysis_caches_equal_public_functions_on_catalog(catalog_upto_4):
    for S in catalog_upto_4:
        _assert_analysis_matches_public_functions(S)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 9))
def test_analysis_caches_equal_public_functions_on_random_structures(seed):
    rng = random.Random(seed)
    _assert_analysis_matches_public_functions(random_model(rng, 8, (PO_SEMIGROUP,)))
    _assert_analysis_matches_public_functions(
        random_model(rng, 8, (PO_SEMIGROUP, POE, INVOLUTION)))


def _counted(monkeypatch, name):
    """Count the calls of the filters-module function ``name``."""
    calls = []
    fn = getattr(filters, name)
    monkeypatch.setattr(filters, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_filter_facts_are_built_once_per_structure(monkeypatch):
    saturations = _counted(monkeypatch, "_saturate")
    sandwiches = _counted(monkeypatch, "_sandwiches")
    S, _ = chain2()
    for x in S.elements():
        filter_generated(S, x)
        thm26_set(S, x)
    part = n_class_partition(S)
    for ctx in (StructureAnalysis(S), StructureAnalysis(S)):
        assert ctx.partition == part
        ctx.filter_masks, ctx.filter_classes, ctx.window_masks
    assert sorted(x for _, x in saturations) == list(S.elements())
    assert len(sandwiches) == 1
    # a structure with equal tables keeps its own facts
    T, _ = chain2()
    assert T == S and T is not S
    assert n_class_partition(T) == part and thm26_set(T, 0) == thm26_set(S, 0)
    assert len(saturations) == 2 * S.n and len(sandwiches) == 2


def _filter_facts(S):
    """What the public filter functions return on S; the windows are None
    without a top or the involution tier."""
    windows = None
    if S.e is not None and S.has(INVOLUTION):
        windows = [thm26_set(S, x) for x in S.elements()]
    return [filter_generated(S, x) for x in S.elements()], windows, n_class_partition(S)


def test_filter_facts_agree_cold_and_warm_and_with_the_oracles(catalog_upto_4):
    for raw in kept_fact_raws(catalog_upto_4):
        S, (found, windows, part), warm = cold_and_warm(raw, _filter_facts)
        assert warm == (found, windows, part)
        members = [oracle_filter_intersection(S, x) for x in S.elements()]
        assert [f.members for f in found] == members
        assert [f.generator for f in found] == list(S.elements())
        if windows is not None:
            assert windows == [oracle_thm26_set(S, x) for x in S.elements()]
        classes = {frozenset(y for y in S.elements() if members[y] == m) for m in members}
        assert set(part.blocks) == classes and len(part.blocks) == len(classes)
        for blk, g in zip(part.blocks, part.block_greatest):
            tops = [t for t in blk if all(S.le(y, t) for y in blk)]
            assert g == (tops[0] if tops else None)


@pytest.mark.parametrize("build, message", [
    (lambda: mk(((0, 0), (0, 0))), "greatest element"),           # no top
    (lambda: mk(((0, 0), (0, 1)), pairs=((0, 1),)), "involution"),  # no star
    (lambda: example2(), "greatest element"),                       # a star, no top
])
def test_a_failed_window_build_is_not_kept(build, message):
    S, _ = build()
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^thm26_set needs an? .*{message}"):
            thm26_set(S, 0)
    assert filter_generated(S, 0).members == oracle_filter_intersection(S, 0)


def test_kept_facts_change_no_equality_hash_or_repr():
    S, _ = example2(pairs=((1, 0), (2, 0), (3, 0), (4, 0)))
    fresh = validate_structure(S.raw)[0]
    before = repr(S), hash(S)
    check_all(S)
    _filter_facts(S)
    classify_all(S), regularity_profile(S)
    assert len(vars(S)) > len(vars(fresh))  # the facts are kept
    assert S == fresh and (repr(S), hash(S)) == before == (repr(fresh), hash(fresh))
