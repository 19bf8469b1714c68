"""The symmetry search behind canonical_form and automorphisms, checked
against the n! oracles of support.py."""

import random

from hypothesis import assume, given, settings, strategies as st

from starsemi import INVOLUTION, POE, RawStructure, automorphisms, canonical_form
from starsemi.enumeration import semigroup_representatives
from starsemi.sampling import random_models
from starsemi.structure import equality_leq

from support import brute_automorphisms, brute_canonical_form, relabel, with_relabelings


def assert_groups_match(raw):
    for leq in (None, raw.leq):
        for star in (None, raw.star):
            assert automorphisms(raw.mult, leq, star) == brute_automorphisms(raw.mult, leq, star)


def assert_same_classes(raws):
    """canonical_form and the brute form split ``raws`` into the same
    classes, so each is a bijection onto the other's values."""
    pairs = {(canonical_form(raw), brute_canonical_form(raw)) for raw in raws}
    assert len({new for new, _ in pairs}) == len(pairs) == len({old for _, old in pairs})


def order5_class_tables():
    eq = equality_leq(5)
    return [RawStructure(n=5, mult=m, leq=eq)
            for m in semigroup_representatives(5, star_admitting=True)]


def random_po_models():
    return [S.raw for S in random_models(120, 7, frozenset({INVOLUTION, POE}), seed=9)]


def test_automorphisms_match_brute_on_catalog(catalog_upto_4):
    for S in catalog_upto_4:
        assert_groups_match(S.raw)


def test_automorphisms_match_brute_on_order5_class_tables():
    for raw in order5_class_tables():
        assert automorphisms(raw.mult) == brute_automorphisms(raw.mult)


def test_automorphisms_match_brute_on_random_models():
    raws = random_po_models()
    assert max(raw.n for raw in raws) == 7
    for raw in raws:
        assert_groups_match(raw)


@st.composite
def unordered_or_nonassociative(draw):
    """Raw structures of order 1-5 whose table is not associative or whose
    relation is not a partial order, with or without a star."""
    n = draw(st.integers(1, 5))
    rng = range(n)
    cells = st.integers(0, n - 1)
    mult = tuple(tuple(draw(cells) for _ in rng) for _ in rng)
    if draw(st.booleans()):
        leq = equality_leq(n)
    else:
        leq = tuple(tuple(draw(st.booleans()) for _ in rng) for _ in rng)
    star = draw(st.one_of(st.none(), st.permutations(range(n)).map(tuple)))
    associative = all(mult[mult[a][b]][c] == mult[a][mult[b][c]]
                      for a in rng for b in rng for c in rng)
    ordered = all(leq[a][a] for a in rng) and not any(
        a != b and leq[a][b] and leq[b][a] for a in rng for b in rng) and all(
        leq[a][c] for a in rng for b in rng for c in rng if leq[a][b] and leq[b][c])
    assume(not (associative and ordered))
    return RawStructure(n=n, mult=mult, leq=leq, star=star)


@settings(deadline=None, max_examples=200)
@given(unordered_or_nonassociative(), st.randoms(use_true_random=False))
def test_symmetry_matches_brute_on_raw_tables(raw, rnd):
    assert_groups_match(raw)
    p = list(range(raw.n))
    rnd.shuffle(p)
    copy = relabel(raw, p)
    assert canonical_form(copy) == canonical_form(raw)
    assert (canonical_form(raw) == canonical_form(copy)) == (
        brute_canonical_form(raw) == brute_canonical_form(copy))


def test_canonical_form_classes_match_brute_on_catalog(catalog_upto_4):
    assert_same_classes(with_relabelings([S.raw for S in catalog_upto_4], seed=1))


def test_canonical_form_classes_match_brute_on_order5_class_tables():
    raws = order5_class_tables()
    assert len({canonical_form(raw) for raw in raws}) == len(raws)
    assert_same_classes(with_relabelings(raws, seed=2, copies=1))


def test_canonical_form_classes_match_brute_on_random_models():
    assert_same_classes(with_relabelings(random_po_models(), seed=3, copies=1))


def test_canonical_form_is_invariant_under_relabeling(catalog_upto_4):
    raws = [S.raw for S in catalog_upto_4] + random_po_models()
    rng = random.Random(4)
    for raw in raws:
        form = canonical_form(raw)
        for _ in range(3):
            p = list(range(raw.n))
            rng.shuffle(p)
            assert canonical_form(relabel(raw, p)) == form


def test_large_groups_match_brute():
    # left-zero (xy = x) and zero (xy = 0) semigroups with the equality
    # order: Aut is all of S_n, and the stabilizer of 0
    for n, left_zero_size, zero_size in ((6, 720, 120), (7, 5040, 720)):
        eq = equality_leq(n)
        left_zero = tuple(tuple(x for _ in range(n)) for x in range(n))
        zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        for mult, size in ((left_zero, left_zero_size), (zero, zero_size)):
            group = automorphisms(mult, eq)
            assert len(group) == size
            assert group == brute_automorphisms(mult, eq)
            raw = RawStructure(n=n, mult=mult, leq=eq)
            assert canonical_form(raw) == canonical_form(relabel(raw, list(range(n))[::-1]))


def test_group_and_band_tables_match_brute():
    # cyclic groups, Z2^3 and rectangular bands: large groups on which every
    # element looks alike to refinement, so pruning by found automorphisms
    # decides the search
    tables = [tuple(tuple((x + y) % n for y in range(n)) for x in range(n)) for n in (6, 8)]
    tables.append(tuple(tuple(x ^ y for y in range(8)) for x in range(8)))
    tables.append(tuple(tuple(2 * (x // 2) + y % 2 for y in range(6)) for x in range(6)))
    rng = random.Random(5)
    for mult in tables:
        n = len(mult)
        raw = RawStructure(n=n, mult=mult, leq=equality_leq(n))
        group = brute_automorphisms(mult)
        form = canonical_form(raw)
        for _ in range(4):
            p = list(range(n))
            rng.shuffle(p)
            copy = relabel(raw, p)
            assert canonical_form(copy) == form
            assert len(automorphisms(copy.mult)) == len(group)
        assert automorphisms(mult) == group


def test_digest_is_versioned(catalog_upto_3):
    digests = {canonical_form(S).digest for S in catalog_upto_3}
    assert len(digests) == len(catalog_upto_3)
    assert all(d.startswith("v2-") and len(d) == 3 + 64 for d in digests)
