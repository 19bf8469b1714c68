"""Random valid structures for oracle tests.

Uniform rejection over raw tables is hopeless beyond tiny orders (associative
tables are vanishingly rare), so sampling draws from parameterized families
known to validate, composes them with direct products, relabels randomly, and
rejects candidates missing the requested tiers.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .enumeration import _apply_perm_leq, _apply_perm_mult, _apply_perm_star, _perm_inverse
from .structure import (
    OrderedAlgebra,
    RawStructure,
    chain_leq,
    reflexive_transitive_closure,
    tier_closure,
    validate_structure,
)

_MAX_TRIES = 2000  # candidates drawn by random_model before it gives up


def _random_poset(rng: random.Random, n: int):
    pairs = []
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.append((min(a, b), max(a, b)))  # acyclic by construction
    return reflexive_transitive_closure(n, pairs)


def _family_constant(rng, n):
    z = rng.randrange(n)
    mult = tuple(tuple(z for _ in range(n)) for _ in range(n))
    return mult, _random_poset(rng, n), None


def _family_sided_zero(rng, n):
    left = rng.random() < 0.5
    mult = tuple(tuple(x if left else y for y in range(n)) for x in range(n))
    star = tuple(range(n)) if n == 1 else None
    return mult, _random_poset(rng, n), star


def _family_chain_min(rng, n):
    mult = tuple(tuple(min(x, y) for y in range(n)) for x in range(n))
    return mult, chain_leq(n), tuple(range(n))


def _family_chain_capped_add(rng, n):
    top = n - 1
    mult = tuple(tuple(min(x + y, top) for y in range(n)) for x in range(n))
    return mult, chain_leq(n), tuple(range(n))


def _family_intersection_semilattice(rng, n):
    base = rng.randrange(2, 6)
    universe = frozenset(range(base))
    family = {universe}
    for _ in range(rng.randint(1, 4)):
        family.add(frozenset(x for x in universe if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a in tuple(family):
            for b in tuple(family):
                if a & b not in family:
                    family.add(a & b)
                    changed = True
    elems = sorted(family, key=lambda s: (len(s), sorted(s)))
    k = len(elems)
    index = {s: i for i, s in enumerate(elems)}
    mult = tuple(tuple(index[elems[x] & elems[y]] for y in range(k)) for x in range(k))
    leq = tuple(tuple(elems[x] <= elems[y] for y in range(k)) for x in range(k))
    return mult, leq, tuple(range(k))


def _product(first, second):
    m1, l1, s1 = first
    m2, l2, s2 = second
    n1, n2 = len(m1), len(m2)
    idx = lambda x, y: x * n2 + y
    n = n1 * n2
    mult = [[0] * n for _ in range(n)]
    leq = [[False] * n for _ in range(n)]
    for x1 in range(n1):
        for y1 in range(n2):
            for x2 in range(n1):
                for y2 in range(n2):
                    mult[idx(x1, y1)][idx(x2, y2)] = idx(m1[x1][x2], m2[y1][y2])
                    leq[idx(x1, y1)][idx(x2, y2)] = l1[x1][x2] and l2[y1][y2]
    star = None
    if s1 is not None and s2 is not None:
        star = tuple(idx(s1[x], s2[y]) for x in range(n1) for y in range(n2))
    return tuple(map(tuple, mult)), tuple(map(tuple, leq)), star


def _relabel(rng, triple):
    mult, leq, star = triple
    p = list(range(len(mult)))
    rng.shuffle(p)
    pinv = _perm_inverse(p)
    return (_apply_perm_mult(mult, p, pinv), _apply_perm_leq(leq, p),
            None if star is None else _apply_perm_star(star, p, pinv))


_FAMILIES = (
    _family_constant,
    _family_sided_zero,
    _family_chain_min,
    _family_chain_capped_add,
    _family_intersection_semilattice,
)


def _candidate(rng: random.Random, max_order: int):
    fam = rng.choice(_FAMILIES)
    triple = fam(rng, rng.randint(1, max_order))
    if len(triple[0]) <= max_order // 2 and rng.random() < 0.4:
        other = rng.choice(_FAMILIES)(rng, rng.randint(1, max(1, max_order // len(triple[0]))))
        if len(triple[0]) * len(other[0]) <= max_order:
            triple = _product(triple, other)
    if rng.random() < 0.9:
        triple = _relabel(rng, triple)
    return triple


def random_model(rng: random.Random, max_order: int,
                 required_tiers: Iterable[str] = ()) -> OrderedAlgebra:
    """Rejection-sample one validated structure of order <= max_order whose
    accepted tiers cover required_tiers."""
    want = tier_closure(required_tiers)
    for _ in range(_MAX_TRIES):
        mult, leq, star = _candidate(rng, max_order)
        if len(mult) > max_order:
            continue
        model, report = validate_structure(
            RawStructure(n=len(mult), mult=mult, leq=leq, star=star))
        if want <= report.accepted:
            return model
    raise RuntimeError(f"no sample with tiers {sorted(want)} within {_MAX_TRIES} tries")


def random_models(count: int, max_order: int, required_tiers: Iterable[str] = (),
                  seed: Optional[int] = None) -> list[OrderedAlgebra]:
    rng = random.Random(seed)
    return [random_model(rng, max_order, required_tiers) for _ in range(count)]
