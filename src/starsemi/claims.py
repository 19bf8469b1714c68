"""Registry of executable algebraic claims over a single structure.

Every claim has a hypothesis gate (required axiom tiers plus an optional
structure-level condition) and a body whose quantifiers run exhaustively over
the elements. Guarded instantiations (an element failing an antecedent, a
meet that does not exist) are skipped as vacuous and not counted. A condition
is a conjunction of claim bodies, since the paper's hypotheses are statements
that other claims conclude; it holds when none of its bodies has a failing
instance. ``StructureAnalysis.outcome`` runs each body at most once per
structure, so a body that is both a hypothesis and a claim (or two claim ids
sharing one body) costs one evaluation. A claim never re-uses the
characterization it asserts: bodies go through the definitional operations of
the ideals/regularity/filters modules, shared per structure by
``StructureAnalysis``, and evaluate products, stars, bounds and the order by
reading the structure's tables directly.

Claim ids are stable. Theorems stated as equivalences are split into -fwd
and -conv entries because the two directions carry different hypotheses;
multi-part propositions whose halves carry different hypotheses are split
the same way (e.g. prop07 / prop07-bi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Optional

from .filters import _partition, filter_generated, thm26_set
from .ideals import classify_all, generated_left, generated_right, in_ideal_generated
from .regularity import regularity_profile
from .structure import (
    ALL_TIERS, INVOLUTION, LE, OrderedAlgebra, PO_GROUPOID, PO_SEMIGROUP, POE, VEE, WEDGE,
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
    """The structure facts that the claim checks on one structure share, each
    computed once, on first use: the element classification, the regularity
    profile, the generated filter of every element, the filter-class
    partition built from those filters (no second saturation), the star
    window {y | x <= e y* e} of every element, each equal to what the public
    function of its module returns for the same structure; and, through
    ``outcome``, the outcome of every claim body that a verdict or a
    hypothesis has asked for."""

    def __init__(self, S: OrderedAlgebra):
        self.S = S
        self._outcomes = {}

    def outcome(self, body) -> tuple[int, Optional[tuple[int, ...]]]:
        """(instances, first failing binding or None) of a claim body on S,
        counting every instance. The body runs once; later calls read the
        kept outcome."""
        out = self._outcomes.get(body)
        if out is None:
            instances, witness, it = 0, None, body(self)
            for binding, ok in it:
                instances += 1
                if not ok:
                    instances += sum(1 for _ in it)
                    witness = tuple(binding)
                    break
            out = self._outcomes[body] = (instances, witness)
        return out

    @cached_property
    def classes(self):
        return classify_all(self.S)

    @cached_property
    def profile(self):
        return regularity_profile(self.S)

    @cached_property
    def filter_members(self):
        return tuple(filter_generated(self.S, x).members for x in self.S.elements())

    @cached_property
    def partition(self):
        return _partition(self.S, self.filter_members)

    @cached_property
    def windows(self):
        return tuple(thm26_set(self.S, x) for x in self.S.elements())


# ---------------------------------------------------------------------------
# claim bodies: generators of (binding, ok)

Body = Callable[[StructureAnalysis], Iterator[tuple[tuple[int, ...], bool]]]


def _sided_pairs(ctx, both: bool):
    """(a, b, a ^ b) for the pairs, in lexicographic order, where a ^ b exists
    and a is a left ideal element and b a right ideal element (``both``), or
    a is a left ideal element or b a right ideal element (not ``both``)."""
    S = ctx.S
    meet = S.meet_table
    left = [c.left_ideal for c in ctx.classes]
    right = [c.right_ideal for c in ctx.classes]
    for a in S.elements():
        if both and not left[a]:
            continue
        any_b = left[a] and not both
        row = meet[a]
        for b in S.elements():
            if any_b or right[b]:
                m = row[b]
                if m is not None:
                    yield a, b, m


def _star_product_bound(both: bool, reverse: bool) -> Body:
    """Body asserting a ^ b <= a*b* (b*a* when ``reverse``) over the sided
    pairs of ``_sided_pairs(ctx, both)``."""
    def body(ctx):
        S = ctx.S
        mult, leq, star = S.mult, S.leq, S.star
        for a, b, m in _sided_pairs(ctx, both):
            x, y = (star[b], star[a]) if reverse else (star[a], star[b])
            yield (a, b), leq[m][mult[x][y]]
    return body


def _body_prop04(ctx):
    for c in ctx.classes:
        if c.star_right or c.star_left:
            yield (c.element,), c.star_quasi is True


def _body_prop04_bi(ctx):
    for c in ctx.classes:
        if c.star_quasi is True:
            yield (c.element,), c.star_bi is True


def _body_prop05(ctx):
    S = ctx.S
    star, join_t, meet_t = S.star, S.join_table, S.meet_table
    for a in S.elements():
        sa = star[a]
        for b in S.elements():
            j, m = join_t[a][b], meet_t[a][b]
            if j is None and m is None:
                continue
            sb = star[b]
            ok = ((j is None or star[j] == join_t[sa][sb])
                  and (m is None or star[m] == meet_t[sa][sb]))
            yield (a, b), ok


def _body_prop06(ctx):
    S = ctx.S
    mult, star = S.mult, S.star
    lft = [generated_left(S, x) for x in S.elements()]
    rgt = [generated_right(S, x) for x in S.elements()]
    for a in S.elements():
        sa = star[a]
        ok = (mult[a][lft[sa]] == mult[rgt[a]][sa]
              and mult[rgt[sa]][a] == mult[sa][lft[a]])
        yield (a,), ok


def _body_prop07(ctx):
    star = ctx.S.star
    for c in ctx.classes:
        cs = ctx.classes[star[c.element]]
        ok = (c.left_ideal == cs.right_ideal
              and c.right_ideal == cs.left_ideal
              and c.quasi_ideal == cs.quasi_ideal)
        yield (c.element,), ok


def _body_prop07_bi(ctx):
    star = ctx.S.star
    for c in ctx.classes:
        yield (c.element,), c.bi_ideal == ctx.classes[star[c.element]].bi_ideal


def _body_prop08(ctx):
    S = ctx.S
    e, mult, star, meet = S.e, S.mult, S.star, S.meet_table
    for ca in ctx.classes:
        if not ca.left_ideal:
            continue
        for cb in ctx.classes:
            if not cb.right_ideal:
                continue
            m = meet[star[ca.element]][star[cb.element]]
            if m is None or meet[mult[m][e]][mult[e][m]] is None:
                continue
            yield (ca.element, cb.element), ctx.classes[m].quasi_ideal is True


def _body_prop08_idem(ctx):
    star = ctx.S.star
    for c in ctx.classes:
        if c.left_ideal or c.right_ideal:
            yield (c.element,), ctx.classes[star[c.element]].idempotent


def _body_prop09(ctx):
    S = ctx.S
    mult, star = S.mult, S.star
    right = [c.right_ideal for c in ctx.classes]
    bi = [c.bi_ideal for c in ctx.classes]
    for a in S.elements():
        row = mult[a]
        for b in S.elements():
            if right[a] or right[b]:
                yield (a, b), bi[star[row[b]]]


def _body_ideals_star_semiprime(ctx):
    for c in ctx.classes:
        if c.two_sided_ideal:
            yield (c.element,), c.star_semiprime is True


def _body_ideals_semiprime(ctx):
    for c in ctx.classes:
        if c.two_sided_ideal:
            yield (c.element,), c.semiprime


_body_thm13_fwd = _star_product_bound(both=False, reverse=False)


def _regularity_body(kind: str) -> Body:
    """Body asserting the ``kind`` regularity inequality at every a, read
    from the failure list of ``regularity_profile``, where it is written."""
    def body(ctx):
        failures = getattr(ctx.profile, kind + "_failures")
        for a in ctx.S.elements():
            yield (a,), a not in failures
    return body


_body_regular = _regularity_body("regular")
_body_intra_regular = _regularity_body("intra_regular")
_body_star_regular = _regularity_body("star_regular")
_body_star_intra_regular = _regularity_body("star_intra_regular")


def _squares_generate_body(starred: bool) -> Body:
    """Body asserting that every x lies in the ideal generated by x x
    (by x*x* when ``starred``)."""
    def body(ctx):
        S = ctx.S
        mult, star = S.mult, S.star
        for x in S.elements():
            y = star[x] if starred else x
            yield (x,), in_ideal_generated(S, x, mult[y][y])
    return body


def _body_prop14(ctx):
    S = ctx.S
    leq, star = S.leq, S.star
    for a in S.elements():
        sa = star[a]
        ok = leq[a][generated_right(S, sa)] and leq[a][generated_left(S, sa)]
        yield (a,), ok


def _prop15_body(guarded: bool) -> Body:
    """Body asserting a = a* for every left, right or bi-ideal element a
    (every a unless ``guarded``)."""
    def body(ctx):
        star = ctx.S.star
        for c in ctx.classes:
            if not guarded or c.left_ideal or c.right_ideal or c.bi_ideal:
                yield (c.element,), star[c.element] == c.element
    return body


_body_prop15 = _prop15_body(guarded=True)


def _body_prop16(ctx):
    mult = ctx.S.mult
    for ca in ctx.classes:
        if not ca.right_ideal:
            continue
        for cb in ctx.classes:
            if cb.left_ideal:
                p = mult[ca.element][cb.element]
                yield (ca.element, cb.element), ctx.classes[p].quasi_ideal is True


def _body_prop16_eq(ctx):
    S = ctx.S
    for ca in ctx.classes:
        if not ca.right_ideal:
            continue
        for cb in ctx.classes:
            if cb.left_ideal:
                a, b = ca.element, cb.element
                yield (a, b), S.meet_table[a][b] == S.mult[a][b]


def _prop17_idem_body(guarded: bool) -> Body:
    """Body asserting that every right or left ideal element is idempotent
    (every element unless ``guarded``)."""
    def body(ctx):
        for c in ctx.classes:
            if not guarded or c.right_ideal or c.left_ideal:
                yield (c.element,), c.idempotent
    return body


_body_prop17_idem = _prop17_idem_body(guarded=True)


def _body_thm19(ctx):
    star_regular = ctx.outcome(_body_star_regular)[1] is None
    yield (), star_regular == all(ctx.outcome(body)[1] is None
                                  for body in CONDITIONS["prop18-conditions"])


def _body_thm20(ctx):
    S = ctx.S
    mult, star = S.mult, S.star
    for c in ctx.classes:
        if c.star_bi is True:
            b = c.element
            sb = star[b]
            yield (b,), mult[generated_right(S, sb)][generated_left(S, sb)] == b


def _body_thm20_eq(ctx):
    S = ctx.S
    e, mult, star = S.e, S.mult, S.star
    for c in ctx.classes:
        if c.star_bi is True:
            b = c.element
            sb = star[b]
            yield (b,), mult[mult[sb][e]][sb] == b


_body_thm22_fwd = _star_product_bound(both=True, reverse=True)


def _prop23_body(starred: bool) -> Body:
    """Body asserting e a b e = e b* a* e (e b a e unless ``starred``)."""
    def body(ctx):
        S = ctx.S
        e, mult, star = S.e, S.mult, S.star
        row_e = mult[e]
        for a in S.elements():
            ea = mult[row_e[a]]
            for b in S.elements():
                x, y = (star[b], star[a]) if starred else (b, a)
                yield (a, b), mult[ea[b]][e] == mult[mult[row_e[x]][y]][e]
    return body


_body_prop23 = _prop23_body(starred=True)


def _body_thm26_fwd(ctx):
    for x in ctx.S.elements():
        yield (x,), ctx.filter_members[x] == ctx.windows[x]


def _body_prop27(ctx):
    S = ctx.S
    e, mult, leq, star = S.e, S.mult, S.leq, S.star
    blocks = ctx.partition.blocks
    block_of = [None] * S.n
    for blk in blocks:
        for y in blk:
            block_of[y] = blk
    row_e = mult[e]
    for x in S.elements():
        t = mult[row_e[star[x]]][e]
        ok = t in block_of[star[x]] and all(leq[y][t] for y in block_of[x])
        yield (x,), ok


# mutants: deliberately corrupted variants used to prove the harness can fail,
# built from the body they corrupt where they share one

_body_mut_prop23_nostar = _prop23_body(starred=False)
_body_mut_thm13_swapped = _star_product_bound(both=False, reverse=True)
_body_mut_prop15_all = _prop15_body(guarded=False)
_body_mut_prop17_all_idem = _prop17_idem_body(guarded=False)


def _body_mut_prop07_noswap(ctx):
    # one conjunct of prop07's conclusion, not prop07 with a flag changed
    star = ctx.S.star
    for c in ctx.classes:
        yield (c.element,), c.left_ideal == ctx.classes[star[c.element]].left_ideal


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


def check_claim(S: OrderedAlgebra, claim_id: str,
                analysis: Optional[StructureAnalysis] = None) -> ClaimReport:
    """Evaluate one claim: hypothesis first (tiers, then each body of the
    structure-level condition), then the body quantifiers, exhaustively. An
    ``analysis`` must have been built for S itself."""
    d = _lookup(claim_id)
    claim = d.claim
    ctx = analysis if analysis is not None else StructureAnalysis(S)
    if ctx.S is not S:
        raise ValueError("the analysis was built for a different structure")
    if not claim.requires_tiers <= S.tiers:
        missing = [t for t in ALL_TIERS if t in claim.requires_tiers and t not in S.tiers]
        return _settled(claim_id, NOT_APPLICABLE, "missing tier(s): " + ", ".join(missing), 0)
    if claim.condition is not None:
        for body in CONDITIONS[claim.condition]:
            if ctx.outcome(body)[1] is not None:
                return _settled(claim_id, NOT_APPLICABLE,
                                f"hypothesis not met: {claim.condition}", 0)
    instances, witness = ctx.outcome(d.body)
    if witness is None:
        return _settled(claim_id, PASS, "", instances)
    return ClaimReport(claim_id=claim.id, status=FAIL, counterexample=witness,
                       variables=claim.variables, instances_checked=instances)


@lru_cache(maxsize=4096)
def _settled(claim_id: str, status: str, reason: str, instances: int) -> ClaimReport:
    """A report without a counterexample. Reports are immutable, so equal
    outcomes share one object rather than building one per check."""
    return ClaimReport(claim_id=claim_id, status=status, reason=reason,
                       variables=_lookup(claim_id).claim.variables,
                       instances_checked=instances, vacuous=status == PASS and instances == 0)


def check_all(S: OrderedAlgebra,
              analysis: Optional[StructureAnalysis] = None) -> tuple[ClaimReport, ...]:
    ctx = analysis if analysis is not None else StructureAnalysis(S)
    return tuple(check_claim(S, d.claim.id, ctx) for d in _DEFS)


def replay_counterexample(S: OrderedAlgebra, report: ClaimReport) -> bool:
    """Re-evaluate a failed claim body at the reported witness; True when the
    witness still violates the claim."""
    if report.status != FAIL or report.counterexample is None:
        raise ValueError("report carries no counterexample")
    d = _lookup(report.claim_id)
    ctx = StructureAnalysis(S)
    for binding, ok in d.body(ctx):
        if tuple(binding) == report.counterexample:
            return not ok
    return False


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
