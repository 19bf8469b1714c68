"""Principal filters, their class partition, and the star-window set.

The filter generated by x is computed by saturation under the three filter
closure rules (products, upward closure, divisor extraction) on the up-set and
divisor bitmasks that the structure caches; the exponential subset-intersection
oracle exists solely to certify the saturation. The class partition is built
from the list of per-element filters by a helper that a caller already holding
that list (``claims.StructureAnalysis``, the ``filters`` command) uses without
saturating again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .structure import BITS, INVOLUTION, OrderedAlgebra

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
    """Saturate {x} under product, upward and divisor-extraction closure.

    Each pass adds the products of the members, then the up-set and the
    divisors of each element of the result, on the bitmasks of ``S``, until
    a pass adds nothing."""
    mult, up, div = S.mult, S.up_masks, S.divisor_masks
    members = 1 << x
    while True:
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
    return FilterSet(generator=x, members=frozenset(BITS[members]))


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
    n = S.n
    if n > ORACLE_MAX_ORDER:
        raise ValueError(f"filter_oracle is limited to order <= {ORACLE_MAX_ORDER}")
    out: Optional[frozenset[int]] = None
    for mask in range(1, 1 << n):
        if not mask >> x & 1:
            continue
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if out is not None and out <= members:
            continue  # cannot shrink the intersection
        if is_filter(S, members):
            out = members if out is None else out & members
    assert out is not None  # the whole structure is always a filter
    return out


def thm26_set(S: OrderedAlgebra, x: int) -> frozenset[int]:
    """The set {y | x <= e y* e}, the claimed description of the filter of x
    on star-intra-regular structures (see claims thm26-fwd/thm26-conv)."""
    if S.e is None:
        raise ValueError("thm26_set needs a structure with a greatest element")
    if not S.has(INVOLUTION):
        raise ValueError("thm26_set needs an involution")
    e, mult, star = S.e, S.mult, S.star
    row_e, above_x = mult[e], S.leq[x]
    return frozenset(y for y in range(S.n) if above_x[mult[row_e[star[y]]][e]])


def n_class_partition(S: OrderedAlgebra) -> NClassPartition:
    """Group elements by equality of their generated filters."""
    return _partition(S, [filter_generated(S, x).members for x in S.elements()])


def _partition(S: OrderedAlgebra, filters) -> NClassPartition:
    """The partition of the elements by equal entries of ``filters``, the
    generated filter of each element in element order."""
    by_filter: dict[frozenset[int], set[int]] = {}
    for x, members in enumerate(filters):
        by_filter.setdefault(members, set()).add(x)
    blocks = tuple(sorted((frozenset(b) for b in by_filter.values()), key=min))
    down = S.down_masks
    greatest = []
    for blk in blocks:
        mask = sum(1 << y for y in blk)
        tops = [g for g in blk if not mask & ~down[g]]
        greatest.append(tops[0] if tops else None)
    return NClassPartition(blocks=blocks, block_greatest=tuple(greatest))
