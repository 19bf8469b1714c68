"""Registry of executable algebraic claims over a single structure.

Every claim has a hypothesis gate (required axiom tiers plus an optional
structure-level condition) and a body whose quantifiers run exhaustively over
the elements. A body returns its bindings as bitmasks: the guard (the
instances) and those that hold. Guarded-out instantiations (an element
failing an antecedent, a meet that does not exist) are vacuous and not
counted. A condition is a conjunction of claim bodies, since the paper's
hypotheses are statements that other claims conclude; it holds when none of
its bodies has a failing instance. ``StructureAnalysis.outcome`` runs each
body at most once per analysis, so a body that is both a hypothesis and a
claim (or two claim ids sharing one body) costs one evaluation. A claim
never re-uses the characterization it asserts: bodies go through the
definitional operations of the ideals/regularity/filters modules, whose
masks each structure keeps for every reader, and evaluate products, stars,
bounds and the order by reading the structure's tables directly, or the
facts of its table, star and top, which the structures with the same three
share. The one body that reads only the join and meet tables and the star,
``prop05``, reads its masks from a record kept per such triple
(``_star_bounds``), so it runs its loop once per order and star rather than
once per structure. What a check does besides running bodies (the tier
test, the hypothesis and the not-applicable reports) is settled once per
tier set, in ``_plan``.

Claim ids are stable. Theorems stated as equivalences are split into -fwd
and -conv entries because the two directions carry different hypotheses;
multi-part propositions whose halves carry different hypotheses are split
the same way (e.g. prop07 / prop07-bi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .filters import _filter_classes, _filter_masks, _partition, _window_masks
from .ideals import classify_all
from .regularity import _failure_masks
from .structure import (
    ALL_TIERS, BITS, INVOLUTION, LE, MAX_ORDER, OrderedAlgebra, PO_GROUPOID, PO_SEMIGROUP, POE,
    VEE, WEDGE, _lazy, _Memo, _star_bounds,
)

STATEMENT = "statement"
PROOF_STEP = "proof-step"
MUTANT = "mutant"

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    requires_tiers: frozenset[str]
    condition: Optional[str] = None
    variables: tuple[str, ...] = ()
    kind: str = STATEMENT


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    status: str
    reason: str = ""
    counterexample: Optional[tuple[int, ...]] = None
    variables: tuple[str, ...] = ()
    instances_checked: int = 0
    vacuous: bool = False


class StructureAnalysis:
    """The structure facts that the claim checks on one structure read, as
    bitmasks: the classification flags (from the ``classify_all`` pass), the
    regularity failures, and the filter, filter class and star window
    {y | x <= e y* e} of every element, each the mask form of what its
    module's public function returns; the filter-class partition; and,
    through ``outcome``, the outcome of every claim body that a verdict or a
    hypothesis has asked for. The facts are lazy attributes
    (``structure._lazy``) that read the masks the structure keeps
    (``structure._per_structure``), so every analysis of one structure, and
    every public function that returns one of these facts, shares one build
    of each; the partition (built from the kept classes) and the outcomes
    are kept in the analysis itself. What the bodies read of the table,
    star and top, or of the order and star, comes from the records that the
    structures with the same ones share."""

    def __init__(self, S: OrderedAlgebra):
        self.S = S
        self._outcomes = {}

    def outcome(self, body) -> tuple[int, Optional[tuple[int, ...]]]:
        """(instances, first failing binding or None) of a claim body on S.
        The instances are the bindings in the body's guard; the witness is
        the lowest binding in the guard and not in ``ok``. The body runs
        once; later calls read the kept outcome."""
        out = self._outcomes.get(body)
        if out is None:
            arity, guard, ok = body(self)
            failing = guard & ~ok
            witness = None
            if failing:
                low = (failing & -failing).bit_length() - 1
                n = self.S.n
                witness = tuple(low // n ** k % n for k in range(arity - 1, -1, -1))
            out = self._outcomes[body] = (guard.bit_count(), witness)
        return out

    @_lazy
    def flag_masks(self):
        return classify_all(self.S).masks

    @_lazy
    def failure_masks(self):
        return _failure_masks(self.S)

    @_lazy
    def filter_masks(self):
        return _filter_masks(self.S)

    @_lazy
    def filter_classes(self):
        return _filter_classes(self.S)

    @_lazy
    def partition(self):
        return _partition(self.S, self.filter_classes)

    @_lazy
    def window_masks(self):
        return _window_masks(self.S)


# ---------------------------------------------------------------------------
# claim bodies: each returns (arity, guard, ok) over its bindings. A binding
# (a,) is bit a and (a, b) bit a*n + b, so the lowest bit is the first
# binding in lexicographic order; () is bit 0. ``guard`` holds the bindings
# that are instances, ``ok`` those where the body holds (bits of ``ok``
# outside ``guard`` are ignored).

Body = Callable[[StructureAnalysis], tuple[int, int, int]]


# ``_FULL[n]``: the mask of all n elements
_FULL = tuple((1 << n) - 1 for n in range(MAX_ORDER + 1))


def _full(S) -> int:
    return _FULL[S.n]


def _generated(S) -> tuple[list, list]:
    """l(a) and r(a) for every a, as ``ideals.generated_left`` and
    ``generated_right`` give them: the joins of a with e a and with a e."""
    join, facts = S.join_table, S._facts
    return ([join[a][v] for a, v in enumerate(facts.ea)],
            [join[a][v] for a, v in enumerate(facts.ae)])


def _star_image(S, mask: int) -> int:
    """The elements whose star lies in ``mask``."""
    star, out = S.star, 0
    for c in BITS[mask]:
        out |= 1 << star[c]
    return out


def _pairs_into(S, mask: int) -> int:
    """The pairs (a, b) with ab in ``mask``."""
    pairs, out = S._facts.value_pairs, 0
    for v in BITS[mask]:
        out |= pairs[v]
    return out


def _star_product_bound(both: bool, reverse: bool) -> Body:
    """Body asserting a ^ b <= a*b* (b*a* when ``reverse``) over the pairs
    where a ^ b exists and a is a left ideal element and b a right ideal
    element (``both``), or a is a left ideal element or b a right ideal
    element (not ``both``)."""
    def body(ctx):
        S = ctx.S
        n, mult, leq, star, meet = S.n, S.mult, S.leq, S.star, S.meet_table
        left, right = ctx.flag_masks.left_ideal, ctx.flag_masks.right_ideal
        guard = ok = 0
        for a in BITS[left] if both else S.elements():
            row, sa = meet[a], star[a]
            for b in BITS[_full(S) if not both and left >> a & 1 else right]:
                m = row[b]
                if m is not None:
                    guard |= 1 << a * n + b
                    if leq[m][mult[star[b]][sa] if reverse else mult[sa][star[b]]]:
                        ok |= 1 << a * n + b
        return 2, guard, ok
    return body


def _flag_body(guard: Optional[tuple[str, ...]], holds: str) -> Body:
    """Body asserting the classification flag ``holds`` at every element
    with one of the flags ``guard`` (at every element when None)."""
    def body(ctx):
        flags = ctx.flag_masks
        mask = _full(ctx.S) if guard is None else 0
        for name in guard or ():
            mask |= getattr(flags, name)
        return 1, mask, getattr(flags, holds)
    return body


_body_prop04 = _flag_body(("star_right", "star_left"), "star_quasi")
_body_prop04_bi = _flag_body(("star_quasi",), "star_bi")


def _body_prop05(ctx):
    S = ctx.S
    return 2, *_star_bounds(S.join_table, S.meet_table, S.star)


def _body_prop06(ctx):
    S = ctx.S
    mult = S.mult
    lft, rgt = _generated(S)
    ok = 0
    for a, c in enumerate(S.star):
        if mult[a][lft[c]] == mult[rgt[a]][c] and mult[rgt[c]][a] == mult[c][lft[a]]:
            ok |= 1 << a
    return 1, _full(S), ok


def _body_prop07(ctx):
    S, flags = ctx.S, ctx.flag_masks
    differ = ((flags.left_ideal ^ _star_image(S, flags.right_ideal))
              | (flags.right_ideal ^ _star_image(S, flags.left_ideal))
              | (flags.quasi_meet ^ _star_image(S, flags.quasi_meet))
              | (flags.quasi_ideal ^ _star_image(S, flags.quasi_ideal)))
    return 1, _full(S), ~differ


def _body_prop07_bi(ctx):
    S, bi = ctx.S, ctx.flag_masks.bi_ideal
    return 1, _full(S), ~(bi ^ _star_image(S, bi))


def _body_prop08(ctx):
    S, flags = ctx.S, ctx.flag_masks
    n, star, meet = S.n, S.star, S.meet_table
    guard = ok = 0
    for a in BITS[flags.left_ideal]:
        for b in BITS[flags.right_ideal]:
            m = meet[star[a]][star[b]]
            if m is not None and flags.quasi_meet >> m & 1:
                guard |= 1 << a * n + b
                if flags.quasi_ideal >> m & 1:
                    ok |= 1 << a * n + b
    return 2, guard, ok


def _body_prop08_idem(ctx):
    S, flags = ctx.S, ctx.flag_masks
    return 1, flags.left_ideal | flags.right_ideal, _star_image(S, flags.idempotent)


def _body_prop09(ctx):
    S, right = ctx.S, ctx.flag_masks.right_ideal
    n, full = S.n, _full(S)
    guard = 0
    for a in S.elements():
        guard |= (full if right >> a & 1 else right) << a * n
    return 2, guard, _pairs_into(S, _star_image(S, ctx.flag_masks.bi_ideal))


_body_ideals_star_semiprime = _flag_body(("two_sided_ideal",), "star_semiprime")
_body_ideals_semiprime = _flag_body(("two_sided_ideal",), "semiprime")
_body_thm13_fwd = _star_product_bound(both=False, reverse=False)


def _regularity_body(kind: str) -> Body:
    """Body asserting the ``kind`` regularity inequality at every a, read
    from the failure mask of ``regularity``, where it is written."""
    def body(ctx):
        return 1, _full(ctx.S), ~getattr(ctx.failure_masks, kind)
    return body


_body_regular = _regularity_body("regular")
_body_intra_regular = _regularity_body("intra_regular")
_body_star_regular = _regularity_body("star_regular")
_body_star_intra_regular = _regularity_body("star_intra_regular")


def _squares_generate_body(starred: bool) -> Body:
    """Body asserting that every x lies in the ideal generated by x x
    (by x*x* when ``starred``): the up-set of x meets the mask of
    {a, ea, ae, eae} for a = x x."""
    def body(ctx):
        S = ctx.S
        mult, up, generated, ok = S.mult, S.up_masks, S._facts.ideal_generated, 0
        for x, y in enumerate(S.star if starred else S.elements()):
            if up[x] & generated[mult[y][y]]:
                ok |= 1 << x
        return 1, _full(S), ok
    return body


def _body_prop14(ctx):
    S = ctx.S
    leq, ok = S.leq, 0
    lft, rgt = _generated(S)
    for a, c in enumerate(S.star):
        if leq[a][rgt[c]] and leq[a][lft[c]]:
            ok |= 1 << a
    return 1, _full(S), ok


def _prop15_body(guarded: bool) -> Body:
    """Body asserting a = a* for every left, right or bi-ideal element a
    (every a unless ``guarded``)."""
    def body(ctx):
        S, flags = ctx.S, ctx.flag_masks
        guard = flags.left_ideal | flags.right_ideal | flags.bi_ideal if guarded else _full(S)
        fixed = 0
        for a, c in enumerate(S.star):
            if a == c:
                fixed |= 1 << a
        return 1, guard, fixed
    return body


_body_prop15 = _prop15_body(guarded=True)


def _right_left_pairs(S, flags) -> int:
    """The pairs of a right ideal element and a left ideal element."""
    guard = 0
    for a in BITS[flags.right_ideal]:
        guard |= flags.left_ideal << a * S.n
    return guard


def _body_prop16(ctx):
    S, flags = ctx.S, ctx.flag_masks
    return 2, _right_left_pairs(S, flags), _pairs_into(S, flags.quasi_ideal)


def _body_prop16_eq(ctx):
    S, ok = ctx.S, 0
    meets, products = chain.from_iterable(S.meet_table), chain.from_iterable(S.mult)
    for i, (m, p) in enumerate(zip(meets, products)):
        if m == p:
            ok |= 1 << i
    return 2, _right_left_pairs(S, ctx.flag_masks), ok


_body_prop17_idem = _flag_body(("right_ideal", "left_ideal"), "idempotent")


def _body_thm19(ctx):
    star_regular = ctx.outcome(_body_star_regular)[1] is None
    conditions = all(ctx.outcome(body)[1] is None for body in CONDITIONS["prop18-conditions"])
    return 0, 1, star_regular == conditions


def _body_thm20(ctx):
    S, star_bi = ctx.S, ctx.flag_masks.star_bi
    mult, star, ok = S.mult, S.star, 0
    lft, rgt = _generated(S)
    for b in BITS[star_bi]:
        if mult[rgt[star[b]]][lft[star[b]]] == b:
            ok |= 1 << b
    return 1, star_bi, ok


def _body_thm20_eq(ctx):
    S, star_bi = ctx.S, ctx.flag_masks.star_bi
    aea, star, ok = S._facts.aea, S.star, 0
    for b in BITS[star_bi]:
        if aea[star[b]] == b:  # b* e b*
            ok |= 1 << b
    return 1, star_bi, ok


_body_thm22_fwd = _star_product_bound(both=True, reverse=True)


def _prop23_body(starred: bool) -> Body:
    """Body asserting e a b e = e b* a* e (e b a e unless ``starred``), read
    from the table facts."""
    def body(ctx):
        S = ctx.S
        facts = S._facts
        return 2, (1 << S.n * S.n) - 1, facts.star_reversal if starred else facts.reversal
    return body


_body_prop23 = _prop23_body(starred=True)


def _body_thm26_fwd(ctx):
    ok = 0
    for x, (members, window) in enumerate(zip(ctx.filter_masks, ctx.window_masks)):
        if members == window:
            ok |= 1 << x
    return 1, _full(ctx.S), ok


def _body_prop27(ctx):
    S, block = ctx.S, ctx.filter_classes
    eae, down = S._facts.eae, S.down_masks
    ok = 0
    for x, c in enumerate(S.star):
        t = eae[c]
        if block[c] >> t & 1 and not block[x] & ~down[t]:
            ok |= 1 << x
    return 1, _full(S), ok


# mutants: deliberately corrupted variants used to prove the harness can fail,
# built from the body they corrupt where they share one

_body_mut_prop23_nostar = _prop23_body(starred=False)
_body_mut_thm13_swapped = _star_product_bound(both=False, reverse=True)
_body_mut_prop15_all = _prop15_body(guarded=False)
_body_mut_prop17_all_idem = _flag_body(None, "idempotent")


def _body_mut_prop07_noswap(ctx):
    # one conjunct of prop07's conclusion, not prop07 with a flag changed
    S, left = ctx.S, ctx.flag_masks.left_ideal
    return 1, _full(S), ~(left ^ _star_image(S, left))


# ---------------------------------------------------------------------------
# structure-level hypotheses: each a conjunction of claim bodies

CONDITIONS: dict[str, tuple[Body, ...]] = {
    "star-regular": (_body_star_regular,),
    "regular": (_body_regular,),
    "star-intra-regular": (_body_star_intra_regular,),
    "star-squares-generate": (_squares_generate_body(starred=True),),
    "squares-generate": (_squares_generate_body(starred=False),),
    "ideal-elements-star-semiprime": (_body_ideals_star_semiprime,),
    "sided-meets-below-reversed-star-products": (_body_thm22_fwd,),
    "sided-meets-below-star-products": (_star_product_bound(both=True, reverse=False),),
    "prop18-conditions": (_body_prop14, _body_prop17_idem, _body_prop16),
    "filters-equal-star-window": (_body_thm26_fwd,),
}


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class _ClaimDef:
    claim: Claim
    body: Body


def _mk(id, statement, tiers, body, *, condition=None, variables=(), kind=STATEMENT):
    return _ClaimDef(
        Claim(id=id, statement=statement, requires_tiers=frozenset(tiers),
              condition=condition, variables=tuple(variables), kind=kind),
        body)


_INV_POE = (INVOLUTION, POE)
_INV_POE_SG = (INVOLUTION, POE, PO_SEMIGROUP)
_INV_LE_SG = (INVOLUTION, LE, PO_SEMIGROUP)
_INV_VEE_SG = (INVOLUTION, VEE, PO_SEMIGROUP)

_DEFS: tuple[_ClaimDef, ...] = (
    _mk("prop04",
        "every *-right or *-left ideal element is a *-quasi-ideal element",
        (INVOLUTION, POE, WEDGE), _body_prop04, variables=("a",)),
    _mk("prop04-bi",
        "every *-quasi-ideal element is a *-bi-ideal element",
        (INVOLUTION, POE, WEDGE, PO_SEMIGROUP), _body_prop04_bi, variables=("a",)),
    _mk("prop05",
        "the involution distributes over existing joins and meets: "
        "(a v b)* = a* v b* and (a ^ b)* = a* ^ b*",
        (INVOLUTION, PO_GROUPOID), _body_prop05, variables=("a", "b")),
    _mk("prop06",
        "a l(a*) = r(a) a* and r(a*) a = a* l(a)",
        _INV_VEE_SG, _body_prop06, variables=("a",)),
    _mk("prop07",
        "a is a left (right) ideal element iff a* is a right (left) one; "
        "quasi-ideal status (including meet existence) transfers to a*",
        _INV_POE, _body_prop07, variables=("a",)),
    _mk("prop07-bi",
        "a is a bi-ideal element iff a* is",
        _INV_POE_SG, _body_prop07_bi, variables=("a",)),
    _mk("prop08",
        "for a left ideal element a and a right ideal element b, "
        "a* ^ b* is a quasi-ideal element whenever the needed meets exist",
        _INV_POE, _body_prop08, variables=("a", "b")),
    _mk("prop08-idem",
        "on regular structures, a* is idempotent for every left or right ideal element a",
        _INV_POE_SG, _body_prop08_idem, condition="regular", variables=("a",)),
    _mk("prop09",
        "(ab)* is a bi-ideal element when a or b is a right ideal element",
        _INV_POE_SG, _body_prop09, variables=("a", "b")),
    _mk("prop11",
        "if every x lies in the ideal generated by x*x*, "
        "the ideal elements are *-semiprime",
        _INV_POE_SG, _body_ideals_star_semiprime,
        condition="star-squares-generate", variables=("a",)),
    _mk("prop11-plain",
        "if every x lies in the ideal generated by x^2, the ideal elements are semiprime",
        (POE, PO_SEMIGROUP), _body_ideals_semiprime,
        condition="squares-generate", variables=("a",)),
    _mk("thm13-fwd",
        "on *-regular structures: a ^ b <= a*b* for a left ideal element a and any b, "
        "or any a and a right ideal element b, whenever a ^ b exists",
        _INV_POE_SG, _body_thm13_fwd, condition="star-regular", variables=("a", "b")),
    _mk("thm13-conv",
        "if a ^ b <= a*b* for every left ideal element a and right ideal element b "
        "of a lattice structure, the structure is regular",
        _INV_LE_SG, _body_regular,
        condition="sided-meets-below-star-products", variables=("a",)),
    _mk("prop14",
        "on *-regular structures: a <= r(a*) and a <= l(a*)",
        _INV_VEE_SG, _body_prop14, condition="star-regular", variables=("a",)),
    _mk("prop15",
        "on *-regular structures, every left, right or bi-ideal element is star-fixed",
        _INV_POE_SG, _body_prop15, condition="star-regular", variables=("a",)),
    _mk("prop16",
        "on *-regular meet-structures, ab is a quasi-ideal element "
        "for a right ideal element a and a left ideal element b",
        (INVOLUTION, POE, PO_SEMIGROUP, WEDGE), _body_prop16,
        condition="star-regular", variables=("a", "b")),
    _mk("prop16-eq",
        "on *-regular meet-structures, a ^ b = ab "
        "for a right ideal element a and a left ideal element b",
        (INVOLUTION, POE, PO_SEMIGROUP, WEDGE), _body_prop16_eq,
        condition="star-regular", variables=("a", "b"), kind=PROOF_STEP),
    _mk("prop17",
        "*-regular structures are regular",
        _INV_POE_SG, _body_regular, condition="star-regular", variables=("a",)),
    _mk("prop17-idem",
        "on regular structures, right and left ideal elements are idempotent",
        (POE, PO_SEMIGROUP), _body_prop17_idem, condition="regular", variables=("a",)),
    _mk("prop18",
        "a lattice structure satisfying the domination and idempotency/quasi "
        "conditions is *-regular",
        _INV_LE_SG, _body_star_regular, condition="prop18-conditions", variables=("a",)),
    _mk("thm19",
        "a lattice structure is *-regular iff the domination and "
        "idempotency/quasi conditions both hold",
        _INV_LE_SG, _body_thm19),
    _mk("thm20",
        "on *-regular join-structures, every *-bi-ideal element b equals "
        "r(b*) l(b*), a product of a right and a left ideal element",
        _INV_VEE_SG, _body_thm20, condition="star-regular", variables=("b",)),
    _mk("thm20-eq",
        "on *-regular structures, b = b* e b* for every *-bi-ideal element b",
        _INV_POE_SG, _body_thm20_eq, condition="star-regular", variables=("b",),
        kind=PROOF_STEP),
    _mk("thm22-fwd",
        "on *-intra-regular structures: a ^ b <= b*a* for a left ideal element a "
        "and a right ideal element b, whenever a ^ b exists",
        _INV_POE_SG, _body_thm22_fwd, condition="star-intra-regular", variables=("a", "b")),
    _mk("thm22-conv",
        "if a ^ b <= b*a* for every left ideal element a and right ideal element b "
        "of a lattice structure, the structure is intra-regular",
        _INV_LE_SG, _body_intra_regular,
        condition="sided-meets-below-reversed-star-products", variables=("a",)),
    _mk("prop23",
        "on *-intra-regular structures: e a b e = e b* a* e",
        _INV_POE_SG, _body_prop23, condition="star-intra-regular", variables=("a", "b")),
    _mk("prop24-fwd",
        "on *-intra-regular structures, the ideal elements are *-semiprime",
        _INV_POE_SG, _body_ideals_star_semiprime,
        condition="star-intra-regular", variables=("a",)),
    _mk("prop24-conv",
        "if the ideal elements are *-semiprime, the structure is intra-regular",
        _INV_POE_SG, _body_intra_regular,
        condition="ideal-elements-star-semiprime", variables=("a",)),
    _mk("prop25-reg",
        "*-regular structures are regular",
        _INV_POE_SG, _body_regular, condition="star-regular", variables=("a",)),
    _mk("prop25-intra",
        "*-intra-regular structures are intra-regular",
        _INV_POE_SG, _body_intra_regular, condition="star-intra-regular", variables=("a",)),
    _mk("thm26-fwd",
        "on *-intra-regular structures, the filter of x is {y | x <= e y* e}",
        _INV_POE_SG, _body_thm26_fwd, condition="star-intra-regular", variables=("x",)),
    _mk("thm26-conv",
        "if the filter of every x equals {y | x <= e y* e}, "
        "the structure is *-intra-regular",
        _INV_POE_SG, _body_star_intra_regular,
        condition="filters-equal-star-window", variables=("a",)),
    _mk("prop27",
        "on *-intra-regular structures, e x* e lies in the filter class of x* "
        "and bounds the filter class of x from above",
        _INV_POE_SG, _body_prop27, condition="star-intra-regular", variables=("x",)),
)

_MUTANT_DEFS: tuple[_ClaimDef, ...] = (
    _mk("mut-prop23-nostar",
        "corrupted prop23 with the stars dropped: e a b e = e b a e",
        _INV_POE_SG, _body_mut_prop23_nostar,
        condition="star-intra-regular", variables=("a", "b"), kind=MUTANT),
    _mk("mut-thm13-swapped",
        "corrupted thm13-fwd with the product reversed: a ^ b <= b*a*",
        _INV_POE_SG, _body_mut_thm13_swapped,
        condition="star-regular", variables=("a", "b"), kind=MUTANT),
    _mk("mut-thm13-conv-swapped",
        "corrupted thm13-conv with the product reversed: if a ^ b <= b*a* for every "
        "left ideal element a and right ideal element b of a lattice structure, "
        "the structure is regular",
        _INV_LE_SG, _body_regular,
        condition="sided-meets-below-reversed-star-products", variables=("a",), kind=MUTANT),
    _mk("mut-prop15-all",
        "corrupted prop15 asserted for arbitrary elements: a = a* for every a",
        _INV_POE_SG, _body_mut_prop15_all,
        condition="star-regular", variables=("a",), kind=MUTANT),
    _mk("mut-prop07-noswap",
        "corrupted prop07 without the side swap: a is a left ideal element iff a* is",
        _INV_POE, _body_mut_prop07_noswap, variables=("a",), kind=MUTANT),
    _mk("mut-prop17-all-idem",
        "corrupted prop17 idempotency asserted for arbitrary elements of regular structures",
        (POE, PO_SEMIGROUP), _body_mut_prop17_all_idem,
        condition="regular", variables=("a",), kind=MUTANT),
)

_REGISTRY = {d.claim.id: d for d in _DEFS}
_MUTANTS = {d.claim.id: d for d in _MUTANT_DEFS}
assert len(_REGISTRY) == len(_DEFS) and len(_MUTANTS) == len(_MUTANT_DEFS)


def list_claims() -> tuple[Claim, ...]:
    """The complete registry in stable order."""
    return tuple(d.claim for d in _DEFS)


def list_mutants() -> tuple[Claim, ...]:
    return tuple(d.claim for d in _MUTANT_DEFS)


def get_claim(claim_id: str) -> Claim:
    return _lookup(claim_id).claim


def _lookup(claim_id: str) -> _ClaimDef:
    d = _REGISTRY.get(claim_id) or _MUTANTS.get(claim_id)
    if d is None:
        raise ValueError(f"unknown claim id: {claim_id!r}")
    return d


def expand_claim_ids(tokens) -> tuple[str, ...]:
    """Resolve user-supplied claim selectors: 'all', exact ids, or a bare
    family prefix such as 'prop25' (expands to prop25-reg, prop25-intra)."""
    out: list[str] = []
    unknown: list[str] = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok == "all":
            out.extend(d.claim.id for d in _DEFS)
            continue
        if tok in _REGISTRY or tok in _MUTANTS:
            out.append(tok)
            continue
        family = [d.claim.id for d in _DEFS if d.claim.id.startswith(tok + "-")]
        if family:
            out.extend(family)
        else:
            unknown.append(tok)
    if unknown:
        raise ValueError("unknown claim ids: " + ", ".join(sorted(unknown)))
    seen: set[str] = set()
    return tuple(x for x in out if not (x in seen or seen.add(x)))


class _Step(NamedTuple):
    """What ``check_claim`` does for one id on one tier set: return
    ``missing`` when the claim needs a tier that the set lacks; otherwise
    return ``unmet`` when a body of ``conditions`` fails, and else the
    outcome of ``body``, a pass report from ``passes`` (keyed by the
    instance count) where nothing fails. Reports are immutable, so equal
    outcomes share one object rather than building one per check."""

    claim: Claim
    missing: Optional[ClaimReport]
    conditions: tuple[Body, ...]
    unmet: Optional[ClaimReport]
    body: Body
    passes: _Memo


@lru_cache(maxsize=128)  # one entry per tier set, of which there are 2**7
def _plan(tiers: frozenset[str]) -> dict[str, _Step]:
    """The step of every claim and mutant id on structures with ``tiers``."""
    plan = {}
    for d in chain(_DEFS, _MUTANT_DEFS):
        claim = d.claim
        not_applicable = partial(ClaimReport, claim.id, NOT_APPLICABLE, variables=claim.variables)
        missing = unmet = None
        if not claim.requires_tiers <= tiers:
            names = [t for t in ALL_TIERS if t in claim.requires_tiers and t not in tiers]
            missing = not_applicable("missing tier(s): " + ", ".join(names))
        conditions = ()
        if claim.condition is not None:
            conditions = CONDITIONS[claim.condition]
            unmet = not_applicable(f"hypothesis not met: {claim.condition}")
        passes = _Memo(partial(_pass_report, claim))
        plan[claim.id] = _Step(claim, missing, conditions, unmet, d.body, passes)
    return plan


def _pass_report(claim: Claim, instances: int) -> ClaimReport:
    return ClaimReport(claim_id=claim.id, status=PASS, variables=claim.variables,
                       instances_checked=instances, vacuous=instances == 0)


def check_claim(S: OrderedAlgebra, claim_id: str,
                analysis: Optional[StructureAnalysis] = None) -> ClaimReport:
    """Evaluate one claim: hypothesis first (tiers, then each body of the
    structure-level condition), then the body quantifiers, exhaustively. An
    ``analysis`` must have been built for S itself."""
    step = _plan(S.tiers).get(claim_id)
    if step is None:
        raise ValueError(f"unknown claim id: {claim_id!r}")
    ctx = analysis if analysis is not None else StructureAnalysis(S)
    if ctx.S is not S:
        raise ValueError("the analysis was built for a different structure")
    if step.missing is not None:
        return step.missing
    # a kept outcome is read here; ``outcome`` runs the body the first time
    kept = ctx._outcomes
    for body in step.conditions:
        if (kept.get(body) or ctx.outcome(body))[1] is not None:
            return step.unmet
    instances, witness = kept.get(step.body) or ctx.outcome(step.body)
    if witness is None:
        return step.passes[instances]
    return ClaimReport(claim_id=claim_id, status=FAIL, counterexample=witness,
                       variables=step.claim.variables, instances_checked=instances)


def check_all(S: OrderedAlgebra,
              analysis: Optional[StructureAnalysis] = None) -> tuple[ClaimReport, ...]:
    ctx = analysis if analysis is not None else StructureAnalysis(S)
    return tuple(check_claim(S, d.claim.id, ctx) for d in _DEFS)


def replay_counterexample(S: OrderedAlgebra, report: ClaimReport) -> bool:
    """Re-evaluate a failed claim body on a fresh ``StructureAnalysis`` and
    test the reported witness's binding; True when the witness is an
    instance that violates the claim. The analysis is fresh, so the body
    runs again, but what it reads is not rebuilt: the flags, failures,
    filters and windows that S keeps, the table facts of S, and, for
    ``prop05``, the masks kept for the order and star of S."""
    if report.status != FAIL or report.counterexample is None:
        raise ValueError("report carries no counterexample")
    arity, guard, ok = _lookup(report.claim_id).body(StructureAnalysis(S))
    witness = report.counterexample
    if len(witness) != arity or not all(0 <= x < S.n for x in witness):
        return False
    bit = sum(x * S.n ** k for k, x in enumerate(reversed(witness)))
    return bool(guard >> bit & 1 and not ok >> bit & 1)


def report_record(report: ClaimReport, S: Optional[OrderedAlgebra] = None) -> dict:
    """Serialize one report; field names are the module's wire contract."""
    witness = None
    if report.counterexample is not None:
        witness = {var: (S.label(el) if S is not None else str(el))
                   for var, el in zip(report.variables, report.counterexample)}
    return {
        "id": report.claim_id,
        "status": report.status,
        "witness": witness,
        "instances_checked": report.instances_checked,
        "vacuous": report.vacuous,
        "reason": report.reason,
    }
