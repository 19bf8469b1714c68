"""Structure-level regularity properties with exhaustive per-element witnesses.

Each property is computed from its defining inequality only; the equivalent
characterizations live in the claims registry so the harness can falsify them
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .structure import INVOLUTION, OrderedAlgebra


@dataclass(frozen=True)
class RegularityProfile:
    """Flags with exhaustive failing-element lists. Star properties are None
    (not applicable) when the structure has no involution tier."""

    regular: bool
    intra_regular: bool
    star_regular: Optional[bool]
    star_intra_regular: Optional[bool]
    regular_failures: tuple[int, ...]
    intra_regular_failures: tuple[int, ...]
    star_regular_failures: Optional[tuple[int, ...]]
    star_intra_regular_failures: Optional[tuple[int, ...]]


def regularity_profile(S: OrderedAlgebra) -> RegularityProfile:
    if S.e is None:
        raise ValueError("regularity needs a structure with a greatest element")
    e, mult, leq = S.e, S.mult, S.leq
    # (a e) a, ((e a) a) e, (a* e) a* and ((e a*) a*) e, read from the table
    reg_fail = tuple(a for a in S.elements() if not leq[a][mult[mult[a][e]][a]])
    intra_fail = tuple(a for a in S.elements() if not leq[a][mult[mult[mult[e][a]][a]][e]])

    if S.has(INVOLUTION):
        star = S.star
        sreg_fail: Optional[tuple[int, ...]] = tuple(
            a for a in S.elements() if not leq[a][mult[mult[star[a]][e]][star[a]]])
        sintra_fail: Optional[tuple[int, ...]] = tuple(
            a for a in S.elements()
            if not leq[a][mult[mult[mult[e][star[a]]][star[a]]][e]])
    else:
        sreg_fail = sintra_fail = None

    return RegularityProfile(
        regular=not reg_fail,
        intra_regular=not intra_fail,
        star_regular=None if sreg_fail is None else not sreg_fail,
        star_intra_regular=None if sintra_fail is None else not sintra_fail,
        regular_failures=reg_fail,
        intra_regular_failures=intra_fail,
        star_regular_failures=sreg_fail,
        star_intra_regular_failures=sintra_fail,
    )
