import pytest
from hypothesis import given, settings, strategies as st

from starsemi import (
    ALL_TIERS,
    INVOLUTION,
    LE,
    PO_GROUPOID,
    PO_SEMIGROUP,
    POE,
    VEE,
    WEDGE,
    RawStructure,
    StructureError,
    compatible_orders,
    equality_leq,
    semigroup_representatives,
    tier_closure,
    validate_structure,
)
from starsemi.sampling import random_model, random_models
from starsemi.ideals import in_ideal_generated
from starsemi.fileformat import load_structure
from starsemi.structure import (
    _RECORD_CACHE_SIZE, _RECORD_MAX_ORDER, _TABLE_FACTS_CACHE_SIZE, OrderedAlgebra,
    _accepted_structure, _cached_order_record, _lazy, _order_record, _pair_failures,
    _per_structure, _table_facts, bounds_tables, chain_leq, reflexive_transitive_closure,
)
import random
from itertools import islice

from conftest import STRUCTURES
from support import (
    EXAMPLE2_MULT, EXAMPLE2_STAR, chain2, diamond_constant, example2, mk, one_point,
    oracle_bounds_tables, oracle_order_views, oracle_table_facts, oracle_violations, scan_join,
    scan_meet, with_relabelings,
)


def test_example2_attains_po_semigroup_and_involution():
    S, report = example2()
    assert report.accepted == frozenset({PO_GROUPOID, PO_SEMIGROUP, INVOLUTION})
    assert S.e is None
    assert not report.violations_for(INVOLUTION)


def test_one_point_attains_every_tier():
    S, report = one_point()
    assert report.accepted == frozenset(ALL_TIERS)
    assert S.e == 0


def test_example2_identity_star_rejected_with_witness():
    S, report = example2(star=(0, 1, 2, 3, 4))
    assert INVOLUTION not in report.accepted
    anti = [v for v in report.violations_for(INVOLUTION) if v.axiom == "anti-homomorphism"]
    assert anti
    for v in anti:
        a, b = v.witness
        assert S.star[S.mult[a][b]] != S.mult[S.star[b]][S.star[a]]
    assert (1, 2) in [v.witness for v in anti]  # the b,c cell demands commutativity


def test_single_cell_star_mutations_detected():
    for i in range(5):
        for j in range(5):
            for v in range(5):
                if v == EXAMPLE2_MULT[i][j]:
                    continue
                mult = [list(row) for row in EXAMPLE2_MULT]
                mult[i][j] = v
                S, report = mk(mult, star=EXAMPLE2_STAR)
                broken = [(a, b) for a in range(5) for b in range(5)
                          if S.star[S.mult[a][b]] != S.mult[S.star[b]][S.star[a]]]
                anti = report.violations_for(INVOLUTION)
                if broken:
                    witnesses = [w.witness for w in anti if w.axiom == "anti-homomorphism"]
                    assert set(witnesses) == set(broken)
                else:
                    assert not [w for w in anti if w.axiom == "anti-homomorphism"]


def test_tier_prerequisites():
    # order with a 2-cycle: po-groupoid fails, so every other tier must fail too
    leq = [[True, True], [True, True]]
    S, report = validate_structure(RawStructure(n=2, mult=((0, 0), (0, 1)), leq=leq))
    assert report.accepted == frozenset()
    assert any(v.axiom == "order-antisymmetric" for v in report.violations)
    assert any(v.axiom == "prerequisite" for v in report.violations_for(PO_SEMIGROUP))


def test_tier_closure_consistency():
    assert tier_closure({LE}) >= {VEE, WEDGE, POE, PO_GROUPOID}
    assert tier_closure({POE}) == {POE, PO_GROUPOID}
    with pytest.raises(ValueError):
        tier_closure({"nope"})


def test_join_meet_on_chain():
    S, _ = chain2()
    assert S.join(0, 1) == 1
    assert S.meet(0, 1) == 0


def test_join_meet_on_diamond():
    S, _ = diamond_constant()
    assert S.join(1, 2) == 3
    assert S.meet(1, 2) == 0


def test_join_undefined_on_antichain():
    S, _ = mk(((0, 0), (0, 0)))  # equality order, constant multiplication
    assert S.join(0, 1) is None
    assert S.meet(0, 1) is None


def test_associativity_violation_witnessed():
    # xy = y except 1*1 = 0: (1*1)*1 = 0*1 = 1, 1*(1*1) = 1*0 = 0
    S, report = mk(((0, 1), (0, 0)))
    assert PO_SEMIGROUP not in report.accepted
    vs = report.violations_for(PO_SEMIGROUP)
    assert vs
    for v in vs:
        a, b, c = v.witness
        assert S.prod(S.prod(a, b), c) != S.prod(a, S.prod(b, c))


def test_bounds_tables_match_oracle_on_random_relations():
    # arbitrary relation matrices: neither reflexive, antisymmetric nor
    # transitive in general, at densities where bounds both exist and clash
    rng = random.Random(20261018)
    for n in range(1, 8):
        for _ in range(300):
            density = rng.choice((0.2, 0.5, 0.8, 0.95))
            leq = tuple(tuple(rng.random() < density for _ in range(n)) for _ in range(n))
            assert bounds_tables(leq) == oracle_bounds_tables(leq)


def test_bounds_tables_match_oracle_on_order4_compatible_orders():
    for mult in semigroup_representatives(4):
        for leq in compatible_orders(mult, dedupe=False):
            assert bounds_tables(leq) == oracle_bounds_tables(leq)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 9))
def test_join_meet_tables_match_definition(seed):
    S = random_model(random.Random(seed), 7)
    for a in S.elements():
        for b in S.elements():
            assert S.join(a, b) == scan_join(S, a, b)
            assert S.meet(a, b) == scan_meet(S, a, b)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 9))
def test_validation_is_idempotent(seed):
    S = random_model(random.Random(seed), 7)
    S2, report2 = validate_structure(S.raw)
    assert S2.tiers == S.tiers == report2.accepted
    assert S2.join_table == S.join_table and S2.meet_table == S.meet_table
    assert S2.e == S.e


def test_top_is_star_fixed(catalog_upto_3):
    for S in catalog_upto_3:
        assert S.star[S.e] == S.e


def test_star_distributes_over_existing_bounds(catalog_upto_3):
    # (a v b)* = a* v b* and (a ^ b)* = a* ^ b* wherever the bound exists
    for S in catalog_upto_3:
        for a in S.elements():
            for b in S.elements():
                j = S.join(a, b)
                if j is not None:
                    assert S.join(S.star[a], S.star[b]) == S.star[j]
                m = S.meet(a, b)
                if m is not None:
                    assert S.meet(S.star[a], S.star[b]) == S.star[m]


def test_violation_report_tier_consistency():
    for _, report in (example2(star=(0, 1, 2, 3, 4)), example2(), chain2(),
                      mk(((0, 1), (0, 0)))):
        for tier in ALL_TIERS:
            assert (tier in report.accepted) == (not report.violations_for(tier))


@pytest.mark.parametrize("bad", [
    dict(n=2, mult=((0, 2), (0, 0)), leq=equality_leq(2)),          # entry out of range
    dict(n=2, mult=((0, 0),), leq=equality_leq(2)),                 # wrong table shape
    dict(n=2, mult=((0, 0), (0, 0)), leq=equality_leq(2), star=(0, 0)),  # star not bijective
    dict(n=0, mult=(), leq=()),                                     # empty structure
    dict(n=2, mult=((0, 0), (0, 0)), leq=((True,), (True, True))),  # ragged order
    dict(n=2, mult=((0, 0), (0, 0)), leq=equality_leq(2), labels=("x", "x")),
])
def test_structural_errors(bad):
    with pytest.raises(StructureError):
        RawStructure(**bad)


@st.composite
def raw_structures(draw):
    """Tables and relations of order 1-6: random ones (mostly neither
    associative nor ordered) mixed with constant, left-zero and chain-min
    tables and with equality, chain, closed-up and table-compatible
    relations, so that every tier is met both accepted and refused."""
    n = draw(st.integers(1, 6))
    cells = st.integers(0, n - 1)
    z = draw(cells)
    mult = draw(st.sampled_from((
        None,
        tuple(tuple(z for _ in range(n)) for _ in range(n)),
        tuple(tuple(x for _ in range(n)) for x in range(n)),
        tuple(tuple(min(x, y) for y in range(n)) for x in range(n)),
    )))
    if mult is None:
        mult = tuple(tuple(draw(cells) for _ in range(n)) for _ in range(n))
    kind = draw(st.sampled_from(("random", "equality", "chain", "closure", "compatible")))
    if kind == "compatible":
        # a partial order the table is monotone on, often a lattice, where
        # the re-check's gate holds
        top = draw(st.booleans())
        orders = list(islice(compatible_orders(mult, require_greatest=top,
                                               require_joins=top and draw(st.booleans()),
                                               dedupe=False), 40))
        leq = draw(st.sampled_from(orders)) if orders else equality_leq(n)
    elif kind == "random":
        leq = tuple(tuple(draw(st.booleans()) for _ in range(n)) for _ in range(n))
    elif kind == "equality":
        leq = equality_leq(n)
    elif kind == "chain":
        leq = chain_leq(n)
    else:
        pairs = draw(st.lists(st.tuples(cells, cells), max_size=2 * n))
        leq = reflexive_transitive_closure(n, pairs)
    star = draw(st.one_of(st.none(), st.just(tuple(range(n))),
                          st.permutations(range(n)).map(tuple)))
    return RawStructure(n=n, mult=mult, leq=leq, star=star)


# the axioms whose checks read only the table and the star
PAIR_AXIOMS = ("associative", "operation-present", "involutive", "anti-homomorphism")


@settings(deadline=None, max_examples=300)
@given(raw_structures())
def test_first_violation_check_accepts_what_full_validation_accepts(raw):
    # the (table, star) checks run apart, as the enumeration runs them once
    # per pair, and the re-check of the order-reading tiers adds the rest
    S, report = validate_structure(raw)
    pair_failed = _pair_failures(raw.mult, raw.star)
    assert pair_failed == {v.tier for v in report.violations if v.axiom in PAIR_AXIOMS}
    T = _accepted_structure(raw, pair_failed, _order_record(raw.leq))
    assert T.tiers == report.accepted
    assert T == S  # same tables, greatest element and tier set
    # the masks take no part in equality: both carry the masks of the order
    assert (S.up_masks, S.down_masks, S.e) == (T.up_masks, T.down_masks, T.e) \
        == oracle_order_views(S)


@settings(deadline=None, max_examples=300)
@given(raw_structures())
def test_full_validation_lists_every_failing_instance(raw):
    _, report = validate_structure(raw)
    assert [(v.tier, v.axiom, v.witness) for v in report.violations] == oracle_violations(raw)


def test_full_validation_lists_every_instance_in_order():
    # order-4 antichain with constant multiplication: no top, no bound of
    # any two distinct elements, no star
    S, report = mk(((0,) * 4,) * 4)
    distinct = [(a, b) for a in range(4) for b in range(4) if a != b]
    assert [(v.tier, v.axiom, v.witness) for v in report.violations] == (
        [(POE, "greatest-element", (0, 1))]
        + [(VEE, "join-exists", w) for w in distinct]
        + [(WEDGE, "meet-exists", w) for w in distinct]
        + [(INVOLUTION, "operation-present", ())]
        + [(LE, "prerequisite", ())])
    assert report.accepted == {PO_GROUPOID, PO_SEMIGROUP}
    assert len(report.violations_for(VEE)) == 12


def _gated_fixture_agrees(raw):
    # the full list against the oracle, the re-check against the full list
    S, report = validate_structure(raw)
    assert [(v.tier, v.axiom, v.witness) for v in report.violations] == oracle_violations(raw)
    record = _order_record(raw.leq)
    assert _accepted_structure(raw, _pair_failures(raw.mult, raw.star), record) == S
    return report, record


def test_gate_holds_and_distributivity_fails_only_at_an_incomparable_pair():
    # the diamond 3 < 1, 2 < 0 with a monotone table: the gate holds, so
    # only the incomparable pair {1, 2} is scanned, and there (1 v 2)1 = 01
    # = 0 but 11 v 21 = 1 v 3 = 1
    raw = RawStructure(n=4, mult=((0, 0, 0, 0), (0, 1, 1, 1), (0, 3, 3, 3), (0, 3, 3, 3)),
                       leq=reflexive_transitive_closure(4, ((3, 1), (3, 2), (1, 0), (2, 0))))
    report, record = _gated_fixture_agrees(raw)
    assert record.covers == (0, 0b1, 0b1, 0b110) and record.apart == (0, 0b100, 0, 0)
    assert {v.witness[:2] for v in report.violations_for(VEE)} == {(1, 2), (2, 1)}
    assert ("join-distributive-right", (1, 2, 1)) in [
        (v.axiom, v.witness) for v in report.violations_for(VEE)]
    assert report.accepted == {PO_GROUPOID, PO_SEMIGROUP, POE, WEDGE}


def test_gate_fails_and_every_comparable_pair_is_scanned():
    # the chain 0 < 1 < 2 has no incomparable pair; the table ab = 2 - a is
    # not monotone, so the gate fails and the full loops find the vee
    # violations at comparable pairs, and the reversing star fails order
    # preservation at the pair (0, 2) as well as at the covering pairs
    raw = RawStructure(n=3, mult=tuple((2 - a,) * 3 for a in range(3)), leq=chain_leq(3),
                       star=(2, 1, 0))
    report, record = _gated_fixture_agrees(raw)
    assert record.covers == (0b10, 0b100, 0) and record.apart == (0, 0, 0)
    assert {v.witness[:2] for v in report.violations_for(VEE)} == {
        (a, b) for a in range(3) for b in range(3) if a != b}
    assert [v.witness for v in report.violations_for(INVOLUTION)
            if v.axiom == "order-preserving"] == [(0, 1), (0, 2), (1, 2)]
    assert report.accepted == frozenset()


def test_table_facts_match_a_cold_computation_and_their_definitions(catalog_upto_4):
    # the catalog in stream order, where the models of a (table, star) pair
    # follow one another, and two relabeled copies of each model
    structures = [validate_structure(raw)[0]
                  for raw in with_relabelings([S.raw for S in catalog_upto_4], seed=25)]
    assert len({(S.mult, S.star, S.e) for S in structures}) > _TABLE_FACTS_CACHE_SIZE
    _table_facts.cache_clear()
    records = [S._facts for S in structures]  # through the cache
    info = _table_facts.cache_info()
    assert info.hits and info.currsize == info.maxsize == _TABLE_FACTS_CACHE_SIZE
    for S, facts in zip(structures, records):
        _table_facts.cache_clear()
        assert facts == _table_facts(S.mult, S.star, S.e)
        oracle = oracle_table_facts(S)
        assert set(oracle) == set(facts._fields) - {"ideal_generated"}
        for name, value in oracle.items():
            assert getattr(facts, name) == value, name
        for x in S.elements():
            for v in S.elements():
                assert bool(S.up_masks[x] & facts.ideal_generated[v]) == \
                    in_ideal_generated(S, x, v)


def test_table_facts_are_kept_per_top(catalog_upto_4):
    # two models of one (table, star) pair whose tops differ, read one after
    # the other: a record kept per (table, star) alone would give the second
    # the facts of the first one's top
    tops = {}
    for S in catalog_upto_4:
        tops.setdefault((S.mult, S.star), {}).setdefault(S.e, S)
    first, second = next(
        (a, b) for pair in tops.values() for a in pair.values() for b in pair.values()
        if _table_facts(a.mult, a.star, a.e) != _table_facts(b.mult, b.star, b.e))
    first, second = (validate_structure(S.raw)[0] for S in (first, second))
    assert first.mult is second.mult and first.star is second.star
    _table_facts.cache_clear()
    got = first._facts, second._facts
    for S, facts in zip((first, second), got):
        _table_facts.cache_clear()
        assert facts == _table_facts(S.mult, S.star, S.e)
    assert got[0] != got[1]


def _random_relations(count, seed):
    """Raw structures of 1-7 points with random tables and relations of
    random density, most of them not partial orders."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        density = rng.random()
        mult = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        leq = tuple(tuple(rng.random() < density for _ in range(n)) for _ in range(n))
        star = rng.choice((None, tuple(range(n))))
        out.append(RawStructure(n=n, mult=mult, leq=leq, star=star))
    return out


def _validated(raw):
    S, report = validate_structure(raw)
    return S, S.up_masks, S.down_masks, report.accepted, report.violations


def test_validation_is_the_same_with_a_cold_and_a_warm_record_cache(catalog_upto_4):
    # each structure validated from an empty cache, then all of them in turn
    # from the cache the others left: a record kept under a key coarser
    # than the relation would hand one relation the record of another
    raws = with_relabelings([S.raw for S in catalog_upto_4], seed=28)
    raws += [load_structure(path) for path in sorted(STRUCTURES.glob("*.txt"))]
    relations = _random_relations(300, seed=2028)
    raws += relations
    # beyond the cached bound, each record is built on every call
    raws += [S.raw for S in random_models(60, 8, (PO_SEMIGROUP, POE, INVOLUTION), seed=2029)]
    assert any(raw.n > _RECORD_MAX_ORDER for raw in raws)
    failing = {v.axiom for raw in relations for v in validate_structure(raw)[1].violations}
    assert {"order-reflexive", "order-antisymmetric", "order-transitive"} <= failing
    cold = []
    for raw in raws:
        _cached_order_record.cache_clear()
        cold.append(_validated(raw))
    for raw, expected in zip(raws, cold):
        assert _validated(raw) == expected
    assert _cached_order_record.cache_info().hits > 0


def test_record_cache_shares_small_orders_and_stays_bounded():
    _cached_order_record.cache_clear()
    raw = RawStructure(n=3, mult=((0,) * 3,) * 3, leq=chain_leq(3))
    first, second = validate_structure(raw)[0], validate_structure(raw)[0]
    assert first.up_masks is second.up_masks  # one record
    assert _order_record(raw.leq) is _order_record(chain_leq(3))
    assert _cached_order_record.cache_info().currsize == 1
    # a relation on more points is not cached: its record is built anew
    big = chain_leq(_RECORD_MAX_ORDER + 1)
    assert _order_record(big) is not _order_record(big)
    assert _order_record(big) == _order_record(big)
    assert _cached_order_record.cache_info().currsize == 1
    # more distinct relations than the cache holds, on 4 points
    for k in range(_RECORD_CACHE_SIZE + 100):
        _order_record(tuple(tuple(bool(k >> 4 * a + b & 1) for b in range(4)) for a in range(4)))
    assert _cached_order_record.cache_info().currsize == _RECORD_CACHE_SIZE


class _Counted:
    """An object with one lazy attribute that counts its computations."""

    calls = 0

    def __init__(self, value):
        self.value = value

    @_lazy
    def doubled(self):
        """Twice the value."""
        _Counted.calls += 1
        return 2 * self.value


def test_lazy_attribute_is_computed_once_per_instance():
    _Counted.calls = 0
    first, second = _Counted(1), _Counted(5)
    assert (first.doubled, first.doubled, second.doubled, first.doubled) == (2, 2, 10, 2)
    assert _Counted.calls == 2
    assert vars(first) == {"value": 1, "doubled": 2}
    # read on the class, the attribute is the descriptor
    assert isinstance(_Counted.doubled, _lazy) and _Counted.doubled.__doc__ == "Twice the value."
    assert isinstance(OrderedAlgebra._facts, _lazy)


def _halved(obj):
    """Half the value, which must be even."""
    _Counted.calls += 1
    if obj.value % 2:
        raise ValueError("odd")
    return obj.value // 2


def test_per_structure_memo_keeps_each_value_in_its_instance_and_no_failure():
    _Counted.calls = 0
    kept = _per_structure(_halved)
    first, second, odd = _Counted(2), _Counted(6), _Counted(3)
    assert (kept(first), kept(first), kept(second), kept(first)) == (1, 1, 3, 1)
    assert _Counted.calls == 2
    assert vars(first) == {"value": 2, f"{__name__}._halved": 1}
    for _ in range(2):
        with pytest.raises(ValueError, match="odd"):
            kept(odd)
    assert _Counted.calls == 4 and vars(odd) == {"value": 3}
    assert kept.__wrapped__ is _halved and kept.__doc__ == _halved.__doc__


def test_table_facts_take_no_part_in_equality_or_repr():
    raw = RawStructure(n=3, mult=((0,) * 3,) * 3, leq=chain_leq(3), star=(0, 1, 2))
    read, unread = validate_structure(raw)[0], validate_structure(raw)[0]
    assert read._facts == _table_facts(raw.mult, raw.star, read.e)
    assert "_facts" in vars(read) and "_facts" not in vars(unread)
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
