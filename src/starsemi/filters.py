"""Principal filters, their class partition, and the star-window set.

The filter generated by x is computed by saturation under the three filter
closure rules (products, upward closure, divisor extraction) on the up-set
bitmasks of the structure and the divisor bitmasks of its table facts. The
exponential subset-intersection oracle exists solely to certify the
saturation: it tests every subset once per (table, order), on bitmasks it
builds from the raw tables alone. Each fact is built as bitmasks, for every
element at once: the filter, the filter class and the window of every
element. A structure keeps each one it has been asked for
(``structure._per_structure``), so ``filter_generated``, ``thm26_set``,
``n_class_partition``, the claim checks (``claims.StructureAnalysis``) and
the ``filters`` command all read one saturation per element of a structure;
the public functions return the kept masks as sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Optional

from .structure import BITS, INVOLUTION, OrderedAlgebra, _check_element, _per_structure

ORACLE_MAX_ORDER = 12


@dataclass(frozen=True)
class FilterSet:
    """Least filter containing ``generator``."""

    generator: int
    members: frozenset[int]


@dataclass(frozen=True)
class NClassPartition:
    """Partition of the elements by equality of their generated filters.
    ``block_greatest[i]`` is the greatest element of block i under the
    structure order, or None when the block has no greatest element."""

    blocks: tuple[frozenset[int], ...]
    block_greatest: tuple[Optional[int], ...]

    def block_of(self, x: int) -> int:
        for i, blk in enumerate(self.blocks):
            if x in blk:
                return i
        raise ValueError(f"element {x} not in partition")


def filter_generated(S: OrderedAlgebra, x: int) -> FilterSet:
    """Saturate {x} under product, upward and divisor-extraction closure."""
    _check_element(S, x)
    return FilterSet(generator=x, members=frozenset(BITS[_filter_masks(S)[x]]))


def _saturate(S: OrderedAlgebra, x: int) -> int:
    """The members of the filter generated by x, as a bitmask.

    Each pass adds the products of the members, then the up-set and the
    divisors of each element of the result, on the bitmasks of ``S``, until
    a pass adds nothing or every element is a member."""
    mult, up, div = S.mult, S.up_masks, S._facts.divisors
    full = (1 << S.n) - 1
    members = 1 << x
    while members != full:
        new = members
        elems = BITS[members]
        for a in elems:
            row = mult[a]
            for b in elems:
                new |= 1 << row[b]
        for a in BITS[new]:
            new |= up[a] | div[a]
        if new == members:
            break
        members = new
    return members


@_per_structure
def _filter_masks(S: OrderedAlgebra) -> tuple[int, ...]:
    """The member mask of the filter generated by each element, kept by S."""
    return tuple(_saturate(S, x) for x in S.elements())


def is_filter(S: OrderedAlgebra, members: frozenset[int]) -> bool:
    n, mult, leq = S.n, S.mult, S.leq
    for a in members:
        for b in members:
            if mult[a][b] not in members:
                return False
    for a in range(n):
        for b in range(n):
            if mult[a][b] in members and (a not in members or b not in members):
                return False
    for a in members:
        for b in range(n):
            if leq[a][b] and b not in members:
                return False
    return True


def filter_oracle(S: OrderedAlgebra, x: int) -> frozenset[int]:
    """Intersection of all (nonempty) filters containing x. Exponential in n;
    guarded to small structures."""
    if S.n > ORACLE_MAX_ORDER:
        raise ValueError(f"filter_oracle is limited to order <= {ORACLE_MAX_ORDER}")
    _check_element(S, x)
    return frozenset(BITS[_oracle_masks(S.mult, S.leq)[x]])


# Callers ask for every element of one structure in turn (the tests, the
# benchmark's check), so a few entries serve them; each entry holds n masks
_ORACLE_CACHE_SIZE = 16


@lru_cache(maxsize=_ORACLE_CACHE_SIZE)
def _oracle_masks(mult, leq) -> tuple[int, ...]:
    """For each x, the mask of the intersection of the filters containing x.

    Every nonempty subset F is tested once. F is a filter when it holds the
    up-set of each member and the pairs (a, b) whose product lies in F are
    exactly F x F, where pair (a, b) is bit a*n + b: the product rule and
    the divisor rule of ``is_filter`` together. Only the up-sets, found
    first, take the second test. Reads only the tables, never the
    structure's own masks, which the saturation reads."""
    n = len(mult)
    bits = [1 << b for b in range(n)]
    up_of = [sum(compress(bits, row)) for row in leq]
    pairs_to = [0] * n  # the pairs whose product is v
    pair = 1
    for row in mult:
        for v in row:
            pairs_to[v] |= pair
            pair <<= 1
    up = [0]  # entry F: the union of the up-sets of the members of F
    for ua in up_of:
        up += [u | ua for u in up]
    out = [(1 << n) - 1] * n
    for F in [F for F, u in enumerate(up) if u == F][1:]:  # skip the empty set
        inside = lead = 0
        members = BITS[F]
        for a in members:
            inside |= pairs_to[a]
            lead |= 1 << (a * n)
        if inside == F * lead:  # F * lead is F x F
            for y in members:
                out[y] &= F
    return tuple(out)


def thm26_set(S: OrderedAlgebra, x: int) -> frozenset[int]:
    """The set {y | x <= e y* e}, the claimed description of the filter of x
    on star-intra-regular structures (see claims thm26-fwd/thm26-conv)."""
    _check_element(S, x)
    return frozenset(BITS[_window_masks(S)[x]])


@_per_structure
def _window_masks(S: OrderedAlgebra) -> tuple[int, ...]:
    """The mask of {y | x <= e y* e} for each x, kept by S: y joins the
    window of every x below e y* e."""
    down = S.down_masks
    out = [0] * S.n
    for y, v in enumerate(_sandwiches(S)):
        for x in BITS[down[v]]:
            out[x] |= 1 << y
    return tuple(out)


def _sandwiches(S: OrderedAlgebra) -> tuple[int, ...]:
    """e y* e for each y: y is in the window of x when x <= e y* e."""
    if S.e is None:
        raise ValueError("thm26_set needs a structure with a greatest element")
    if not S.has(INVOLUTION):
        raise ValueError("thm26_set needs an involution")
    eae = S._facts.eae
    return tuple(eae[c] for c in S.star)


def n_class_partition(S: OrderedAlgebra) -> NClassPartition:
    """Group elements by equality of their generated filters."""
    return _partition(S, _filter_classes(S))


@_per_structure
def _filter_classes(S: OrderedAlgebra) -> tuple[int, ...]:
    """For each element, the mask of the elements that generate the same
    filter, kept by S."""
    filters = _filter_masks(S)
    same: dict[int, int] = {}
    for x, members in enumerate(filters):
        same[members] = same.get(members, 0) | 1 << x
    return tuple(same[members] for members in filters)


def _partition(S: OrderedAlgebra, classes) -> NClassPartition:
    """The partition whose blocks are the entries of ``classes``, each
    block's greatest element read from the down-set masks."""
    down = S.down_masks
    blocks = tuple(dict.fromkeys(classes))  # ordered by least member
    greatest = []
    for mask in blocks:
        tops = [g for g in BITS[mask] if not mask & ~down[g]]
        greatest.append(tops[0] if tops else None)
    return NClassPartition(blocks=tuple(frozenset(BITS[mask]) for mask in blocks),
                           block_greatest=tuple(greatest))
