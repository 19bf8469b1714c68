"""Element-level classification: idempotency, the eleven ideal-element
predicates, generated left/right ideal elements, and principal-ideal
membership. All operations assume a structure with a greatest element."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .structure import INVOLUTION, OrderedAlgebra, _check_element, _per_structure


@dataclass(frozen=True)
class ElementClassification:
    """Per-element predicate flags.

    ``quasi_ideal`` / ``star_quasi`` are tri-state: None means the required
    meet does not exist, which is distinct from the inequality failing.
    The ``star_*`` flags are None when the structure has no involution tier.
    """

    element: int
    idempotent: bool
    left_ideal: bool
    right_ideal: bool
    two_sided_ideal: bool
    quasi_ideal: Optional[bool]
    bi_ideal: bool
    star_left: Optional[bool]
    star_right: Optional[bool]
    star_quasi: Optional[bool]
    star_bi: Optional[bool]
    semiprime: bool
    star_semiprime: Optional[bool]

    FLAG_NAMES = (
        "idempotent", "left_ideal", "right_ideal", "two_sided_ideal",
        "quasi_ideal", "bi_ideal", "star_left", "star_right", "star_quasi",
        "star_bi", "semiprime", "star_semiprime",
    )


def _require_top(S: OrderedAlgebra) -> int:
    if S.e is None:
        raise ValueError("operation needs a structure with a greatest element")
    return S.e


def generated_left(S: OrderedAlgebra, a: int) -> Optional[int]:
    """Least left ideal element above a: the join of a and ea, or None if the
    join does not exist."""
    _check_element(S, a)
    e = _require_top(S)
    return S.join_table[a][S.mult[e][a]]


def generated_right(S: OrderedAlgebra, a: int) -> Optional[int]:
    """Least right ideal element above a: the join of a and ae."""
    _check_element(S, a)
    e = _require_top(S)
    return S.join_table[a][S.mult[a][e]]


def in_ideal_generated(S: OrderedAlgebra, x: int, a: int) -> bool:
    """Membership of x in the two-sided ideal generated by a, as the
    four-case bound: x <= a or x <= ea or x <= ae or x <= eae."""
    _check_element(S, x)
    _check_element(S, a)
    e = _require_top(S)
    mult, above_x = S.mult, S.leq[x]
    ea = mult[e][a]
    return above_x[a] or above_x[ea] or above_x[mult[a][e]] or above_x[mult[ea][e]]


class _FlagMasks(NamedTuple):
    """The classification of every element at once: bit a of a mask is the
    flag of element a. A tri-state flag takes two masks, ``*_meet`` (the
    meet exists) and the flag itself (the inequality holds, so the meet
    exists). The ``star_*`` masks are None without the involution tier."""

    idempotent: int
    left_ideal: int
    right_ideal: int
    two_sided_ideal: int
    quasi_meet: int
    quasi_ideal: int
    bi_ideal: int
    semiprime: int
    star_left: Optional[int]
    star_right: Optional[int]
    star_quasi_meet: Optional[int]
    star_quasi: Optional[int]
    star_bi: Optional[int]
    star_semiprime: Optional[int]


@_per_structure
def _flag_masks(S: OrderedAlgebra) -> _FlagMasks:
    """Every flag of every element, built as one record, which S keeps: the
    plain flags test a through a itself, the starred ones, which follow them
    in the record in the same order, through a*."""
    _require_top(S)
    idem = sum(1 << a for a, row in enumerate(S.mult) if row[a] == a)
    left, right, quasi_meet, quasi, bi, semiprime = _sided_masks(S, S.elements())
    starred = _sided_masks(S, S.star) if S.has(INVOLUTION) else (None,) * 6
    return _FlagMasks(idem, left, right, left & right, quasi_meet, quasi, bi, semiprime,
                      *starred)


def _sided_masks(S: OrderedAlgebra, through) -> tuple[int, ...]:
    """With c = through[a]: the masks of e c <= a, c e <= a, the meet of c e
    and e c existing, that meet <= a, (c e) c <= a, and semiprimality of a
    (t t <= a implies t <= a, with c c for t t), the products read from the
    table facts of S. Bit x of ``down_masks[a]`` is x <= a; semiprimality
    fails for a exactly when some t has a in the up-set of t t and not in
    the up-set of t."""
    meet, up, down, facts = S.meet_table, S.up_masks, S.down_masks, S._facts
    ea, ae, aea, aa = facts.ea, facts.ae, facts.aea, facts.aa
    left = right = quasi_meet = quasi = bi = not_semiprime = 0
    for a, c in enumerate(through):
        bit, below = 1 << a, down[a]
        ce, ec = ae[c], ea[c]
        if below >> ec & 1:
            left |= bit
        if below >> ce & 1:
            right |= bit
        m = meet[ce][ec]
        if m is not None:
            quasi_meet |= bit
            if below >> m & 1:
                quasi |= bit
        if below >> aea[c] & 1:
            bi |= bit
        not_semiprime |= up[aa[c]] & ~up[a]
    return left, right, quasi_meet, quasi, bi, (1 << S.n) - 1 & ~not_semiprime


def _flags_of(masks: _FlagMasks, a: int) -> ElementClassification:
    """The flags of a: each is bit a of its mask, and a tri-state flag is
    None where its meet does not exist."""
    flags = {}
    for name in ElementClassification.FLAG_NAMES:
        mask = getattr(masks, name)
        flags[name] = None if mask is None else bool(mask >> a & 1)
    for name, meet in (("quasi_ideal", masks.quasi_meet), ("star_quasi", masks.star_quasi_meet)):
        if meet is not None and not meet >> a & 1:
            flags[name] = None
    return _record(element=a, **flags)


# Records are immutable, so equal ones are one object: the 51,000 elements of
# the 10,200 order-5 involution-poe models have 92 distinct records, and the
# models 706 distinct classifications.
_record = lru_cache(maxsize=1024)(ElementClassification)


@lru_cache(maxsize=4096)
def _records(masks: _FlagMasks, n: int) -> tuple[ElementClassification, ...]:
    """The records of elements 0..n-1 read from ``masks``."""
    return tuple(_flags_of(masks, a) for a in range(n))


class _Classification(tuple):
    """The records that ``classify_all`` returns, with the flag masks they
    were read from (``masks``), which the claim checks read."""

    masks: _FlagMasks


def classify_element(S: OrderedAlgebra, a: int) -> ElementClassification:
    """Decide every element-level predicate for a by direct table checks."""
    _check_element(S, a)
    return _records(_flag_masks(S), S.n)[a]


def classify_all(S: OrderedAlgebra) -> tuple[ElementClassification, ...]:
    masks = _flag_masks(S)
    out = _Classification(_records(masks, S.n))
    out.masks = masks
    return out
