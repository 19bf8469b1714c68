"""Structure-level regularity properties with exhaustive per-element witnesses.

Each property is computed from its defining inequality only; the equivalent
characterizations live in the claims registry so the harness can falsify them
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .structure import BITS, INVOLUTION, OrderedAlgebra, _per_structure


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


class _Failures(NamedTuple):
    """The failing elements of each property as a bitmask; the star masks
    are None without the involution tier."""

    regular: int
    intra_regular: int
    star_regular: Optional[int]
    star_intra_regular: Optional[int]


@_per_structure
def _failure_masks(S: OrderedAlgebra) -> _Failures:
    """Each property is a <= f(a) for every a; its failures are the a whose
    up-set misses f(a): a e a, e a a e, a* e a* and e a* a* e, read from the
    table facts. S keeps them."""
    if S.e is None:
        raise ValueError("regularity needs a structure with a greatest element")
    up, facts = S.up_masks, S._facts
    aea, eaae = facts.aea, facts.eaae
    reg = intra = 0
    for a, ua in enumerate(up):
        if not ua >> aea[a] & 1:
            reg |= 1 << a
        if not ua >> eaae[a] & 1:
            intra |= 1 << a
    if not S.has(INVOLUTION):
        return _Failures(reg, intra, None, None)
    sreg = sintra = 0
    for a, c in enumerate(S.star):
        ua = up[a]
        if not ua >> aea[c] & 1:
            sreg |= 1 << a
        if not ua >> eaae[c] & 1:
            sintra |= 1 << a
    return _Failures(reg, intra, sreg, sintra)


def regularity_profile(S: OrderedAlgebra) -> RegularityProfile:
    reg, intra, sreg, sintra = (None if mask is None else BITS[mask]
                                for mask in _failure_masks(S))
    return RegularityProfile(
        regular=not reg,
        intra_regular=not intra,
        star_regular=None if sreg is None else not sreg,
        star_intra_regular=None if sintra is None else not sintra,
        regular_failures=reg,
        intra_regular_failures=intra,
        star_regular_failures=sreg,
        star_intra_regular_failures=sintra,
    )
