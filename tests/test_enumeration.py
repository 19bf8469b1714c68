import inspect
import os
import pathlib
from operator import itemgetter

import pytest

from starsemi import (
    INVOLUTION, LE, POE, VEE, WEDGE,
    ModelSpec, associative_tables, automorphisms, canonical_form, collect_models,
    compatible_orders, enumerate_models, search_counterexample, semigroup_representatives,
    validate_structure, write_catalog,
)
from starsemi import RawStructure, StructureError, enumeration, structure
from starsemi.enumeration import (
    _assoc_tables, _centralizer, _compatible_order_stream, _involutions, _relabeled_first,
    _symmetry,
)
from starsemi.fileformat import load_structure
from starsemi.structure import equality_leq

from conftest import fingerprint
from support import (
    EXAMPLE2_MULT, EXAMPLE2_STAR, admits_involution, all_posets, anti_automorphic,
    brute_associative_tables, brute_canonical_form, chain2, commuting_perms, greatest_element,
    involutive_perms, lex_leader, naive_model_forms, oracle_bounds_tables, oracle_order_views,
    search_walk, star_admitting_class_forms,
)

# Golden counts, established by the naive generate-filter-dedupe oracle at
# orders 1-3 (test_matches_naive_oracle below) and by the verified enumerator
# at order 4 (and at order 5 for the star-admitting classes, where the earlier
# generate-then-filter enumerator gave the same 405 representatives). The
# semigroup classes of orders 1-6 are OEIS A027851 (1, 5, 24, 188, 1915,
# 28634, pinned by the opt-in test_slow_class_counts_of_orders_6_and_7); the
# 3,312 star-admitting classes of order 6 are the 28,634 filtered by
# ``admits_involution``.
LABELED_ASSOCIATIVE = {1: 1, 2: 8, 3: 113, 4: 3492}
SEMIGROUP_CLASSES = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}
STAR_ADMITTING_CLASSES = {1: 1, 2: 3, 3: 12, 4: 64, 5: 405, 6: 3312}
INVOLUTION_POE_MODELS = {1: 1, 2: 4, 3: 34, 4: 482}
# Model counts of the other involution specs at orders 1-4, and at order 5
# for the three specs whose order filter reads the join or meet table; the
# {involution} counts at orders 1-3 are also checked against the naive oracle
INVOLUTION_MODELS = {
    frozenset({INVOLUTION, LE}): (1, 4, 20, 159, 1592),
    frozenset({INVOLUTION, VEE}): (1, 4, 31, 325, 4159),
    frozenset({INVOLUTION, WEDGE}): (1, 4, 34, 482, 9958),
    frozenset({INVOLUTION}): (1, 7, 90, 1638),
}
# Catalog fingerprints (conftest.fingerprint of the canonical digests) by
# (tiers, order): they hold while the counts hold only if the classes are the
# same too
FINGERPRINTS = {
    (frozenset({INVOLUTION, POE}), 4):
        "v2-b51a1c5c92c46aa39253ac0196eec3b745a421d1e0b95cd63273c862a8fb09f9",
    (frozenset({INVOLUTION, LE}), 4):
        "v2-e856ccacde27a4d65084fd9cc9fae0a6dd275c654404d06e956a01a483fdfcac",
    (frozenset({INVOLUTION, LE}), 5):
        "v2-c8952cc29890ac6861a85b66c1560603939fcd4f77069da7909bb4f2412ca7d2",
    (frozenset({INVOLUTION, VEE}), 4):
        "v2-3c51ac4e4cb1216134e8ff20330c9d48d24798939b2b1819b41fb99f51afa02c",
    (frozenset({INVOLUTION, VEE}), 5):
        "v2-d2c9a9d5b90858766985b106db7fb5db69e564ac7d46bcfe8374f246c0312249",
    (frozenset({INVOLUTION, WEDGE}), 4):
        "v2-27cdaf66f72b457d9e43073fd4010ba05743898984fbac754a5e625c44da934e",
    (frozenset({INVOLUTION, WEDGE}), 5):
        "v2-02ba2a1a78631b0e472e33cfe8fff2ea3f5ca19a3ca724e271043644ef21a408",
    (frozenset({INVOLUTION}), 4):
        "v2-d6384955fd614ac5d1776680e776967144315fb972d8a7a5052907cb5e2b0a7a",
    (frozenset({INVOLUTION}), 5):
        "v2-0c04b2270f22453cae6d12659f48a9a04cd20680dba22a7a6076a13f8271d163",
    (frozenset({LE}), 5):
        "v2-8416cc73976cb3b2a3c5dc69460d2a281fb144fd000485b5847779876a00d6f8",
    (frozenset({POE}), 5):
        "v2-dc88f5eba60d4ff510f1badba09ada222104a8526778f5bac091c755db22ee35",
    (frozenset({INVOLUTION, LE}), 6):
        "v2-d3c48cd864741d2d0462061da633c3893c149551e51f465e36c46264690a914e",
}
# Catalogs too slow for Tier-1, by (tiers, order): their model counts, checked
# with their FINGERPRINTS when STARSEMI_SLOW=1
SLOW_MODELS = {
    (frozenset({INVOLUTION}), 5): 42465,
    (frozenset({LE}), 5): 6738,
    (frozenset({POE}), 5): 47725,
    (frozenset({INVOLUTION, LE}), 6): 19146,
}


def test_labeled_associative_counts():
    for n, want in LABELED_ASSOCIATIVE.items():
        assert sum(1 for _ in associative_tables(n)) == want


@pytest.mark.parametrize("stream", [
    lambda: associative_tables(4),
    lambda: enumerate_models(ModelSpec(2, frozenset({INVOLUTION, POE}))),
    lambda: compatible_orders(EXAMPLE2_MULT, EXAMPLE2_STAR),
], ids=["associative_tables", "enumerate_models", "compatible_orders"])
def test_associative_tables_is_a_stream(stream):
    # generators, with close(): the perfbench tracer closes every stream it wraps
    stream = stream()
    assert inspect.isgenerator(stream)
    stream.close()


def test_pruning_never_excludes_a_completable_table():
    for n in (1, 2, 3):
        pruned = set(associative_tables(n))
        brute = set(brute_associative_tables(n))
        assert pruned == brute


def test_semigroup_representative_counts():
    for n, want in SEMIGROUP_CLASSES.items():
        assert len(semigroup_representatives(n)) == want


def _mult_class(mult):
    # the class of a table, by the n! oracle (the equality order is the same
    # bytes for every table, and matches ``star_admitting_class_forms``)
    n = len(mult)
    return brute_canonical_form(RawStructure(n=n, mult=mult, leq=equality_leq(n)))


def _assert_one_table_per_class(tables, classes):
    forms = [_mult_class(m) for m in tables]
    assert len(set(forms)) == len(forms)
    assert set(forms) == classes


def test_representatives_complete_and_distinct():
    for n in (1, 2, 3):
        _assert_one_table_per_class(
            semigroup_representatives(n), {_mult_class(m) for m in brute_associative_tables(n)})


def test_star_search_visits_exactly_the_tables_the_star_respects():
    for n in (1, 2, 3):
        brute = list(brute_associative_tables(n))
        for star in involutive_perms(n):
            visited = list(_assoc_tables(n, star))
            assert len(set(visited)) == len(visited)
            assert set(visited) == {m for m in brute if anti_automorphic(m, star)}


def _normal_form_stars(n):
    return [tuple(x ^ 1 if x < 2 * k else x for x in range(n)) for k in range(n // 2 + 1)]


def test_pruned_search_visits_exactly_the_lex_leaders():
    # every run of the class search, pruned by its group, against the
    # unpruned tables filtered by the brute-force check; at order 5 the two
    # stars that move points, where a partner cell is filled a block before
    # its own, so a symmetry can compare a cell of a later block early
    runs = [(n, star) for n in (1, 2, 3, 4) for star in [None] + _normal_form_stars(n)]
    runs += [(5, star) for star in _normal_form_stars(5)[1:]]
    for n, star in runs:
        group = commuting_perms(n, star)
        symmetries = _centralizer(star or tuple(range(n)))
        assert symmetries == group
        unpruned = list(_assoc_tables(n, star))
        pruned = list(_assoc_tables(n, star, symmetries=symmetries))
        assert pruned == [m for m in unpruned if lex_leader(m, search_walk(n, star), group)]
        if n == 5:
            assert len(unpruned) == {(1, 0, 2, 3, 4): 1614, (1, 0, 3, 2, 4): 50}[star]


def test_identity_star_run_keeps_one_table_per_commutative_class():
    # the commutative semigroup classes of orders 1-5, OEIS A001426
    for n, want in {1: 1, 2: 3, 3: 12, 4: 58, 5: 325}.items():
        identity = tuple(range(n))
        tables = list(_assoc_tables(n, identity, symmetries=_centralizer(identity)))
        assert len(tables) == want
        assert len({_symmetry(m)[0] for m in tables}) == want


def test_representatives_are_cached_once_per_request():
    # every spelling of one request is one cache entry, so one search
    enumeration._semigroup_representatives.cache_clear()
    first = semigroup_representatives(3, True)
    assert semigroup_representatives(3, star_admitting=True) is first
    assert semigroup_representatives(3, star_admitting=1) is first
    assert semigroup_representatives(3) is semigroup_representatives(3, star_admitting=0)
    info = enumeration._semigroup_representatives.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


@pytest.mark.skipif(os.environ.get("STARSEMI_SLOW") != "1",
                    reason="set STARSEMI_SLOW=1 to run the class searches of orders 6 and 7")
def test_slow_class_counts_of_orders_6_and_7():
    # 28,634 classes of order 6 (OEIS A027851) and 2,143 commutative ones
    # (OEIS A001426); the 44,366 star-admitting classes of order 7 are this
    # enumerator's own count, with no independent source
    assert len(semigroup_representatives(6)) == 28634
    identity = tuple(range(6))
    assert sum(1 for _ in _assoc_tables(6, identity, symmetries=_centralizer(identity))) == 2143
    assert len(semigroup_representatives(7, star_admitting=True)) == 44366


def test_representatives_are_the_classes_of_the_unpruned_search():
    for n in (1, 2, 3, 4):
        tables = list(_assoc_tables(n))
        _assert_one_table_per_class(
            semigroup_representatives(n), {_mult_class(m) for m in tables})
        tables = [m for star in _normal_form_stars(n) for m in _assoc_tables(n, star)]
        _assert_one_table_per_class(
            semigroup_representatives(n, star_admitting=True), {_mult_class(m) for m in tables})


def test_full_group_runs_visit_one_table_per_class():
    # the two facts the class dedupe rests on: the runs pruned under all of
    # Sym(n) need no key, and a starred run's commutative tables are classes
    # the identity-star run already has
    for n in (1, 2, 3, 4):
        identity = tuple(range(n))
        runs = {star: list(_assoc_tables(n, star, symmetries=_centralizer(star or identity)))
                for star in [None] + _normal_form_stars(n)}
        for star in (None, identity):
            forms = [_mult_class(m) for m in runs[star]]
            assert len(set(forms)) == len(forms)
        commutative = {_mult_class(m) for m in runs[identity]}
        for star in _normal_form_stars(n)[1:]:
            for m in runs[star]:
                if m == tuple(zip(*m)):
                    assert _mult_class(m) in commutative


def test_star_admitting_representative_counts():
    # the keyword spelling matches enumerate_models, so order 5 reuses the
    # cached search of the order-5 catalog when that has run
    for n, want in STAR_ADMITTING_CLASSES.items():
        assert len(semigroup_representatives(n, star_admitting=True)) == want


def test_star_admitting_representatives_match_oracle():
    for n in (1, 2, 3):
        _assert_one_table_per_class(
            semigroup_representatives(n, star_admitting=True), star_admitting_class_forms(n))
    _assert_one_table_per_class(
        semigroup_representatives(4, star_admitting=True),
        {_mult_class(m) for m in semigroup_representatives(4) if admits_involution(m)})


def test_order1_involution_le_single_model():
    spec = ModelSpec(order=1, required_tiers=frozenset({INVOLUTION, LE}))
    models = list(enumerate_models(spec))
    assert len(models) == 1
    assert models[0].tiers >= {INVOLUTION, LE}


def _assert_counts_and_fingerprint(tiers, counts):
    for n, want in counts.items():
        spec = ModelSpec(order=n, required_tiers=tiers)
        digests = [canonical_form(S).digest for S in enumerate_models(spec)]
        assert len(digests) == want
        if n >= 4:
            assert fingerprint(digests) == FINGERPRINTS[tiers, n]


def test_model_counts_involution_poe():
    _assert_counts_and_fingerprint(frozenset({INVOLUTION, POE}), INVOLUTION_POE_MODELS)


def test_model_counts_of_the_other_involution_specs():
    for tiers, counts in INVOLUTION_MODELS.items():
        _assert_counts_and_fingerprint(tiers, dict(enumerate(counts, start=1)))


@pytest.mark.skipif(os.environ.get("STARSEMI_SLOW") != "1",
                    reason="set STARSEMI_SLOW=1 to enumerate the order-5 and order-6 catalogs")
def test_slow_catalog_counts_and_fingerprints():
    for (tiers, n), want in SLOW_MODELS.items():
        _assert_counts_and_fingerprint(tiers, {n: want})


def test_matches_naive_oracle_orders_1_to_3():
    # (required tiers, naive_model_forms keywords): with and without a star,
    # with and without a greatest element
    cases = (
        ({INVOLUTION, POE}, {}),
        ({INVOLUTION}, {"require_greatest": False}),
        ({POE}, {"require_involution": False}),
        (set(), {"require_involution": False, "require_greatest": False}),
    )
    for tiers, naive in cases:
        for n in (1, 2, 3):
            spec = ModelSpec(order=n, required_tiers=frozenset(tiers))
            emitted = list(enumerate_models(spec))
            assert len({canonical_form(S) for S in emitted}) == len(emitted)
            assert {brute_canonical_form(S) for S in emitted} == naive_model_forms(n, **naive)


def test_right_zero_admits_no_involution():
    right_zero = ((0, 1), (0, 1))
    assert _involutions(right_zero) == []
    spec = ModelSpec(order=2, required_tiers=frozenset({INVOLUTION, POE}))
    emitted = {_mult_class(S.raw.mult) for S in enumerate_models(spec)}
    assert _mult_class(right_zero) not in emitted


def test_emitted_models_carry_the_tiers_and_bounds_of_full_validation():
    # the lattice-tier specs read the join/meet tables that the filter cached
    for tiers in ({INVOLUTION, VEE}, {INVOLUTION, WEDGE}, {LE}, {INVOLUTION, POE}):
        for S in enumerate_models(ModelSpec(order=4, required_tiers=frozenset(tiers))):
            model, report = validate_structure(S.raw)
            assert S.tiers == report.accepted
            assert S == model  # same tables, greatest element, join and meet tables
            assert (S.up_masks, S.down_masks, S.e) == oracle_order_views(S)


def _counted(calls, f):
    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)
    return counted


def test_recheck_runs_each_check_once_per_object_it_reads(monkeypatch):
    # associativity reads only the table: it runs once per (table, star)
    # pair, as the star laws and the range checks of the table and the star
    # do; the record of an order, with its bounds tables and the checks that
    # read only the order, is built once per order: each build runs the
    # bounds tables and the order axioms once, and misses the record cache
    pairs, tables, assoc, bounds, order_checks = [], [], [], [], []
    monkeypatch.setattr(enumeration, "_filtered_orders",
                        _counted(pairs, enumeration._filtered_orders))
    monkeypatch.setattr(RawStructure, "__post_init__",
                        _counted(tables, RawStructure.__post_init__))
    monkeypatch.setattr(structure, "_check_associativity",
                        _counted(assoc, structure._check_associativity))
    monkeypatch.setattr(structure, "bounds_tables", _counted(bounds, structure.bounds_tables))
    monkeypatch.setattr(structure, "_check_order_axioms",
                        _counted(order_checks, structure._check_order_axioms))
    structure._cached_order_record.cache_clear()
    models = list(enumerate_models(ModelSpec(order=4, required_tiers=frozenset({INVOLUTION, POE}))))
    assert len(models) == INVOLUTION_POE_MODELS[4]
    assert len(assoc) == len(tables) == len(pairs) == len({args[:2] for args in pairs}) == 83
    builds = structure._cached_order_record.cache_info().misses
    assert builds == len(bounds) == len(order_checks) == len({S.leq for S in models}) == 64
    # each model shares the checked table and star of its pair
    checked = {(id(raw.mult), id(raw.star)) for raw, in tables}
    assert all((id(S.mult), id(S.star)) in checked for S in models)


def test_a_model_missing_a_required_tier_is_an_error(monkeypatch):
    # the re-check guards the order search, also under python -O: here the
    # search hands over an order without a top for a poe spec
    def topless(mult, star=None, require_greatest=False, require_least=False):
        yield equality_leq(len(mult))

    monkeypatch.setattr(enumeration, "_compatible_order_stream", topless)
    with pytest.raises(RuntimeError, match="poe"):
        list(enumerate_models(ModelSpec(order=2, required_tiers=frozenset({POE}))))


def test_emitted_models_validate_at_requested_tiers():
    tiers = frozenset({INVOLUTION, POE, WEDGE})
    for S in enumerate_models(ModelSpec(order=3, required_tiers=tiers)):
        model, report = validate_structure(S.raw)
        assert tiers <= report.accepted


def test_canonical_form_identifies_relabelings():
    S, _ = chain2()  # swap the two elements: e becomes 0, bottom becomes 1
    relabeled = RawStructure(n=2, mult=((0, 1), (1, 1)),
                             leq=((True, False), (True, True)), star=(0, 1))
    assert canonical_form(S) == canonical_form(relabeled)
    different = RawStructure(n=2, mult=S.raw.mult, leq=((True, False), (False, True)),
                             star=(0, 1))
    assert canonical_form(S) != canonical_form(different)


def test_canonical_form_pairwise_distinct_order3():
    spec = ModelSpec(order=3, required_tiers=frozenset({INVOLUTION, POE}))
    forms = [canonical_form(S) for S in enumerate_models(spec)]
    assert len(set(forms)) == len(forms)


def test_canonical_form_size_guard():
    mult = tuple(tuple(0 for _ in range(9)) for _ in range(9))
    raw = RawStructure(n=9, mult=mult, leq=tuple(tuple(i == j for j in range(9))
                                                 for i in range(9)))
    with pytest.raises(ValueError):
        canonical_form(raw)


def test_automorphisms():
    left_zero = ((0, 0), (1, 1))
    eq = ((True, False), (False, True))
    assert len(automorphisms(left_zero, leq=eq)) == 2  # both swaps preserve xy = x
    S, _ = chain2()
    assert automorphisms(S.raw.mult, leq=S.raw.leq) == [(0, 1)]


def test_compatible_orders_equality_first_and_example2_candidates():
    stream = list(compatible_orders(EXAMPLE2_MULT, EXAMPLE2_STAR))
    assert stream[0] == tuple(tuple(i == j for j in range(5)) for i in range(5))
    assert len(stream) == 5
    nontrivial = stream[1:]
    assert len(nontrivial) == 4
    with_top = [leq for leq in nontrivial if greatest_element(leq) is not None]
    assert len(with_top) == 3


def test_shipped_candidate_matches_search():
    stream = list(compatible_orders(EXAMPLE2_MULT, EXAMPLE2_STAR))
    first_nontrivial = stream[1]
    shipped = load_structure(
        pathlib.Path(__file__).resolve().parent.parent
        / "structures" / "example2_candidate_order.txt")
    assert shipped.leq == first_nontrivial
    assert shipped.mult == EXAMPLE2_MULT and shipped.star == EXAMPLE2_STAR


def test_compatible_orders_empty_for_invalid_star():
    # non-commutative table + identity star: the involution axiom fails
    # before any order search happens
    assert list(compatible_orders(EXAMPLE2_MULT, (0, 1, 2, 3, 4))) == []


def test_compatible_orders_constraints():
    lattice_only = list(compatible_orders(EXAMPLE2_MULT, EXAMPLE2_STAR,
                                          require_greatest=True, require_joins=True,
                                          require_meets=True))
    for leq in lattice_only:
        assert greatest_element(leq) is not None


def test_top_pruned_order_stream_keeps_exactly_the_orders_with_a_top():
    for n in (1, 2, 3, 4):
        for mult in semigroup_representatives(n):
            stars = [p for p in involutive_perms(n) if anti_automorphic(mult, p)]
            for star in [None] + stars:
                full = _compatible_order_stream(mult, star)
                pruned = list(_compatible_order_stream(mult, star, require_greatest=True))
                assert pruned == [leq for leq in full if greatest_element(leq) is not None]


def test_bottom_pruned_order_stream_keeps_exactly_the_orders_with_a_bottom():
    for n in (1, 2, 3, 4):
        for mult in semigroup_representatives(n):
            stars = [p for p in involutive_perms(n) if anti_automorphic(mult, p)]
            for star in [None] + stars:
                full = _compatible_order_stream(mult, star)
                pruned = list(_compatible_order_stream(mult, star, require_least=True))
                assert pruned == [leq for leq in full
                                  if any(all(leq[b]) for b in range(n))]


def test_order_stream_is_the_sorted_list_of_the_oracle_orders():
    # every poset on n points, kept when the product is monotone in both
    # arguments and the star preserves it: the stream yields exactly these,
    # sorted, with the required top and bottom
    def top(leq):
        return any(all(row[t] for row in leq) for t in range(len(leq)))

    def bottom(leq):
        return any(all(row) for row in leq)

    for n in (1, 2, 3, 4):
        posets = list(all_posets(n))
        for mult in semigroup_representatives(n):
            compatible = [
                leq for leq in posets
                if all(leq[mult[a][c]][mult[b][c]] and leq[mult[c][a]][mult[c][b]]
                       for a in range(n) for b in range(n) if leq[a][b] for c in range(n))]
            stars = [p for p in involutive_perms(n) if anti_automorphic(mult, p)]
            for star in [None] + stars:
                preserved = sorted(
                    leq for leq in compatible if star is None
                    or all(leq[star[a]][star[b]] for a in range(n) for b in range(n) if leq[a][b]))
                for greatest in (False, True):
                    for least in (False, True):
                        want = [leq for leq in preserved
                                if (not greatest or top(leq)) and (not least or bottom(leq))]
                        assert list(_compatible_order_stream(mult, star, greatest, least)) == want


def test_orbit_test_reads_the_relabeled_order_row_by_row():
    # against the relabeled matrix built whole, on every poset of 2-4 points
    # under every permutation but the identity
    for n in (2, 3, 4):
        rng = range(n)
        perms = commuting_perms(n)
        for leq in all_posets(n):
            for p in perms:
                relabeled = tuple(tuple(leq[p[x]][p[y]] for y in rng) for x in rng)
                assert _relabeled_first(leq, p, itemgetter(*p)) == (relabeled < leq)


@pytest.mark.parametrize("mult,star", [
    (((0, 1), (1, 0)), (0, 1, 2)),  # a star longer than the table
    (((0, 0), (0, 0)), (0, 2)),     # a star value out of range
    (((0, 0), (0, 0)), (0,)),       # a star shorter than the table
    (((0, 1), (1,)), None),         # a table that is not square
    (((0, 2), (1, 1)), None),       # a product out of range
    ((), None),                     # no elements
])
def test_compatible_orders_refuses_malformed_tables(mult, star):
    with pytest.raises(StructureError):
        list(compatible_orders(mult, star))


def test_compatible_orders_empty_for_a_star_that_is_no_involution():
    # n values in range, but not an involution: a valid input with no orders
    assert list(compatible_orders(((0, 0), (0, 0)), (1, 1))) == []


def _has_all(table):
    return all(v is not None for row in table for v in row)


def _join_distributive(mult, leq):
    join_t, _ = oracle_bounds_tables(leq)
    n = len(mult)
    return _has_all(join_t) and all(
        join_t[mult[a][c]][mult[b][c]] == mult[join_t[a][b]][c]
        and join_t[mult[c][a]][mult[c][b]] == mult[c][join_t[a][b]]
        for a in range(n) for b in range(n) for c in range(n))


# (flag, definition-level test, EXAMPLE2 order counts with and without the star)
EXAMPLE2_ORDER_FILTERS = (
    ("require_greatest", lambda mult, leq: greatest_element(leq) is not None, 3, 5),
    ("require_joins", lambda mult, leq: _has_all(oracle_bounds_tables(leq)[0]), 3, 5),
    ("require_meets", lambda mult, leq: _has_all(oracle_bounds_tables(leq)[1]), 3, 5),
    ("require_join_distributivity", _join_distributive, 1, 1),
)


def test_compatible_orders_requirements_filter_the_unconstrained_stream():
    for star, want_all in ((EXAMPLE2_STAR, 5), (None, 9)):
        for dedupe in (True, False):
            everything = list(compatible_orders(EXAMPLE2_MULT, star, dedupe=dedupe))
            assert len(everything) == want_all
            for flag, holds, with_star, without_star in EXAMPLE2_ORDER_FILTERS:
                got = list(compatible_orders(EXAMPLE2_MULT, star, dedupe=dedupe, **{flag: True}))
                assert got == [leq for leq in everything if holds(EXAMPLE2_MULT, leq)]
                assert len(got) == (with_star if star is not None else without_star)


def test_negative_limit_is_refused():
    with pytest.raises(ValueError, match="limit"):
        ModelSpec(order=3, required_tiers=frozenset({INVOLUTION, POE}), limit=-1)


@pytest.mark.parametrize("field, value", [
    ("order", 2.5), ("order", True), ("order", "3"), ("limit", 2.5), ("limit", True),
    ("limit", "2"),
])
@pytest.mark.parametrize("use", [
    ModelSpec, lambda **kw: collect_models(ModelSpec(**kw)),
    lambda **kw: list(enumerate_models(ModelSpec(**kw))),
], ids=["ModelSpec", "collect_models", "enumerate_models"])
def test_a_non_integer_order_or_limit_is_refused(use, field, value):
    # a float limit once let collect_models report all 34 order-3 models as
    # a complete stream while enumerate_models raised
    kw = dict(order=3, required_tiers=frozenset({INVOLUTION, POE}), limit=2)
    kw[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        use(**kw)


def test_collect_and_search_agree_on_the_partial_stream_marker():
    tiers = frozenset({INVOLUTION, POE})
    total = INVOLUTION_POE_MODELS[3]
    everything = list(enumerate_models(ModelSpec(order=3, required_tiers=tiers)))
    assert len(everything) == total
    for limit in (0, 1, 5, total, total + 1):
        spec = ModelSpec(order=3, required_tiers=tiers, limit=limit)
        models, collected_complete = collect_models(spec)
        rep = search_counterexample(spec, ("prop07",))
        assert list(enumerate_models(spec)) == models == everything[:limit]
        assert collected_complete == rep.complete == (limit >= total)
        assert len(models) == rep.models_checked == min(limit, total)


def test_search_empty_claims_is_empty_report():
    spec = ModelSpec(order=2, required_tiers=frozenset({INVOLUTION, POE}))
    rep = search_counterexample(spec, ())
    assert rep.models_checked == 0 and not rep.stats and not rep.failed


def test_search_counterexample_reports_first_model():
    spec = ModelSpec(order=2, required_tiers=frozenset({INVOLUTION, POE}))
    rep = search_counterexample(spec, ("mut-prop17-all-idem",))
    assert rep.failed and not rep.complete
    model, creport = rep.counterexample
    assert creport.status == "fail"
    a = creport.counterexample[0]
    assert model.prod(a, a) != a


def test_search_sweep_summary_statistics():
    spec = ModelSpec(order=3, required_tiers=frozenset({INVOLUTION, POE}))
    rep = search_counterexample(spec, ("prop07", "thm26-fwd"))
    assert not rep.failed and rep.complete
    assert rep.models_checked == INVOLUTION_POE_MODELS[3]
    st = rep.stats["prop07"]
    assert st.applicable == rep.models_checked and st.failures == 0
    assert st.nonvacuous_instances > 0
    assert rep.never_nonvacuous() == ()


def test_write_catalog(tmp_path):
    spec = ModelSpec(order=2, required_tiers=frozenset({INVOLUTION, POE}))
    models = list(enumerate_models(spec))
    names = write_catalog(models, tmp_path)
    assert len(names) == len(models)
    index = (tmp_path / "index.txt").read_text().strip().splitlines()
    assert len(index) == len(models)
    for line, model in zip(index, models):
        name, digest = line.split()
        reloaded = load_structure(tmp_path / name)
        assert canonical_form(reloaded) == canonical_form(model)
        assert canonical_form(reloaded).digest == digest
    assert write_catalog([], tmp_path / "empty") == []
    assert (tmp_path / "empty" / "index.txt").read_text() == "\n"


def test_spec_order_guards():
    with pytest.raises(ValueError):
        ModelSpec(order=0)
    with pytest.raises(ValueError):
        list(enumerate_models(ModelSpec(order=7)))
    spec = ModelSpec(order=2, required_tiers=frozenset({LE}))
    assert POE in spec.required_tiers  # le implies poe via closure
