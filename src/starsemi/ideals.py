"""Element-level classification: idempotency, the eleven ideal-element
predicates, generated left/right ideal elements, and principal-ideal
membership. All operations assume a structure with a greatest element."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .structure import INVOLUTION, OrderedAlgebra


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
    e = _require_top(S)
    return S.join_table[a][S.mult[e][a]]


def generated_right(S: OrderedAlgebra, a: int) -> Optional[int]:
    """Least right ideal element above a: the join of a and ae."""
    e = _require_top(S)
    return S.join_table[a][S.mult[a][e]]


def in_ideal_generated(S: OrderedAlgebra, x: int, a: int) -> bool:
    """Membership of x in the two-sided ideal generated by a, as the
    four-case bound: x <= a or x <= ea or x <= ae or x <= eae."""
    e = _require_top(S)
    mult, above_x = S.mult, S.leq[x]
    ea = mult[e][a]
    return above_x[a] or above_x[ea] or above_x[mult[a][e]] or above_x[mult[ea][e]]


def _classifier(S: OrderedAlgebra):
    """The per-element classification of S, as a function of the element.

    It reads the tables directly. Semiprimality (t t <= a implies t <= a) is
    decided for every a at once: t witnesses a failure exactly for the a in
    the up-set of t t minus the up-set of t."""
    e = _require_top(S)
    mult, leq, meet = S.mult, S.leq, S.meet_table
    star = S.star if S.has(INVOLUTION) else None
    up = S.up_masks
    row_e = mult[e]
    not_semiprime = 0
    for t in S.elements():
        not_semiprime |= up[mult[t][t]] & ~up[t]
    not_star_semiprime = 0
    if star is not None:
        for t in S.elements():
            c = star[t]
            not_star_semiprime |= up[mult[c][c]] & ~up[t]

    def classify(a: int) -> ElementClassification:
        below_a = [row[a] for row in leq]
        ae = mult[a][e]
        ea = row_e[a]
        left = below_a[ea]
        right = below_a[ae]
        m = meet[ae][ea]
        star_left = star_right = star_quasi = star_bi = star_semiprime = None
        if star is not None:
            c = star[a]
            ce, ec = mult[c][e], row_e[c]
            star_right = below_a[ce]
            star_left = below_a[ec]
            sm = meet[ce][ec]
            star_quasi = None if sm is None else below_a[sm]
            star_bi = below_a[mult[ce][c]]
            star_semiprime = not not_star_semiprime >> a & 1
        return ElementClassification(
            element=a,
            idempotent=mult[a][a] == a,
            left_ideal=left,
            right_ideal=right,
            two_sided_ideal=left and right,
            quasi_ideal=None if m is None else below_a[m],
            bi_ideal=below_a[mult[ae][a]],
            star_left=star_left,
            star_right=star_right,
            star_quasi=star_quasi,
            star_bi=star_bi,
            semiprime=not not_semiprime >> a & 1,
            star_semiprime=star_semiprime,
        )

    return classify


def classify_element(S: OrderedAlgebra, a: int) -> ElementClassification:
    """Decide every element-level predicate for a by direct table checks."""
    return _classifier(S)(a)


def classify_all(S: OrderedAlgebra) -> tuple[ElementClassification, ...]:
    return tuple(map(_classifier(S), S.elements()))
