"""Finite ordered groupoids/semigroups as explicit tables, with axiom-tier validation.

Elements are the integers 0..n-1; ``labels`` are presentation-only. A structure
carries a multiplication table, an order relation, and optionally a unary
involution given as a permutation. Validation sorts the structure into axiom
tiers (which form a lattice under prerequisites, not a chain) and caches the
greatest element and the partial join/meet tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional

MAX_ORDER = 24

# Axiom tiers.
PO_GROUPOID = "po-groupoid"    # partial order + multiplication monotone in both arguments
PO_SEMIGROUP = "po-semigroup"  # + associativity
POE = "poe"                    # + greatest element
VEE = "vee"                    # + all binary joins exist and multiplication distributes over them
WEDGE = "wedge"                # + all binary meets exist
LE = "le"                      # vee + wedge: lattice with join-distributive multiplication
INVOLUTION = "involution"      # involutive order-preserving anti-automorphism

ALL_TIERS = (PO_GROUPOID, PO_SEMIGROUP, POE, VEE, WEDGE, LE, INVOLUTION)

# A tier is only accepted when its prerequisites are. VEE lists POE because a
# finite structure with all binary joins always has a top element.
TIER_PREREQS = {
    PO_GROUPOID: (),
    PO_SEMIGROUP: (PO_GROUPOID,),
    POE: (PO_GROUPOID,),
    VEE: (PO_GROUPOID, POE),
    WEDGE: (PO_GROUPOID,),
    LE: (VEE, WEDGE),
    INVOLUTION: (PO_GROUPOID,),
}


class StructureError(ValueError):
    """Malformed tables or out-of-range entries (distinct from axiom violations)."""


def tier_closure(tiers: Iterable[str]) -> frozenset[str]:
    """Expand a tier set with all prerequisite tiers."""
    out: set[str] = set()
    stack = list(tiers)
    while stack:
        t = stack.pop()
        if t not in TIER_PREREQS:
            raise ValueError(f"unknown axiom tier: {t!r}")
        if t not in out:
            out.add(t)
            stack.extend(TIER_PREREQS[t])
    return frozenset(out)


def _as_label_tuple(labels, n: int) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise StructureError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise StructureError("labels must be distinct")
    for lab in labels:
        if not lab or any(c.isspace() for c in lab) or "#" in lab:
            raise StructureError(f"bad label {lab!r}: must be nonempty, without whitespace or '#'")
    return labels


@dataclass(frozen=True)
class RawStructure:
    """Unvalidated finite structure: n, an n*n multiplication table of element
    indices, an n*n boolean order relation, an optional involution permutation
    and optional display labels."""

    n: int
    mult: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]
    star: Optional[tuple[int, ...]] = None
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or not 1 <= n <= MAX_ORDER:
            raise StructureError(f"element count must be in [1, {MAX_ORDER}], got {n!r}")
        mult = tuple(tuple(row) for row in self.mult)
        if len(mult) != n or any(len(row) != n for row in mult):
            raise StructureError(f"multiplication table must be {n}x{n}")
        for row in mult:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise StructureError(f"multiplication entry {v!r} out of range [0, {n})")
        leq = tuple(tuple(bool(v) for v in row) for row in self.leq)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise StructureError(f"order relation must be {n}x{n}")
        star = self.star
        if star is not None:
            star = tuple(star)
            if sorted(star) != list(range(n)):
                raise StructureError(f"star must be a bijection on 0..{n - 1}, got {star!r}")
        labels = self.labels
        if labels is not None:
            labels = _as_label_tuple(labels, n)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "labels", labels)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: owning tier, axiom name, witness elements."""

    tier: str
    axiom: str
    witness: tuple[int, ...]
    message: str

    def render(self, raw: RawStructure) -> str:
        names = ", ".join(raw.label(x) for x in self.witness)
        return f"[{self.tier}] {self.axiom}({names}): {self.message}" if names else \
            f"[{self.tier}] {self.axiom}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    accepted: frozenset[str]
    violations: tuple[Violation, ...]

    def ok(self, tier: str) -> bool:
        return tier in self.accepted

    def violations_for(self, tier: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.tier == tier)


@dataclass(frozen=True)
class OrderedAlgebra:
    """Validated immutable structure plus its attained tier set and cached
    greatest element / partial join and meet tables. Entries of the join/meet
    tables are element indices or None where no bound exists."""

    raw: RawStructure
    tiers: frozenset[str]
    e: Optional[int]
    join_table: tuple[tuple[Optional[int], ...], ...]
    meet_table: tuple[tuple[Optional[int], ...], ...]

    @property
    def n(self) -> int:
        return self.raw.n

    @property
    def mult(self):
        return self.raw.mult

    @property
    def leq(self):
        return self.raw.leq

    @property
    def star(self):
        return self.raw.star

    def has(self, tier: str) -> bool:
        return tier in self.tiers

    def label(self, x: int) -> str:
        return self.raw.label(x)

    def elements(self) -> range:
        return range(self.raw.n)

    def le(self, a: int, b: int) -> bool:
        return self.raw.leq[a][b]

    def prod(self, a: int, *rest: int) -> int:
        # products associate to the left; unambiguous on the semigroup tier
        x = a
        for y in rest:
            x = self.raw.mult[x][y]
        return x

    def conj(self, a: int) -> int:
        if self.raw.star is None:
            raise ValueError("structure has no unary involution operation")
        return self.raw.star[a]

    def join(self, a: int, b: int) -> Optional[int]:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> Optional[int]:
        return self.meet_table[a][b]


def join(S: OrderedAlgebra, a: int, b: int) -> Optional[int]:
    """Least upper bound of a and b, or None when it does not exist."""
    return S.join_table[a][b]


def meet(S: OrderedAlgebra, a: int, b: int) -> Optional[int]:
    """Greatest lower bound of a and b, or None when it does not exist."""
    return S.meet_table[a][b]


def downward_closure(S: OrderedAlgebra, H: Iterable[int]) -> frozenset[int]:
    """All t with t <= h for some h in H."""
    H = set(H)
    leq = S.raw.leq
    return frozenset(t for t in S.elements() if any(leq[t][h] for h in H))


def bounds_tables(leq):
    """Partial LUB/GLB tables for an arbitrary relation matrix.

    With up[a] the set of u where a <= u and down[a] the set of u where
    u <= a, held as bitmasks, the join of a and b is the unique u in
    U = up[a] & up[b] with U a subset of up[u]; the meet is the dual. An entry
    is None when no element or more than one qualifies, so the tables are
    defined even when ``leq`` is not a partial order."""
    n = len(leq)
    weights = [1 << u for u in range(n)]
    up = [sum(compress(weights, row)) for row in leq]
    down = [sum(compress(weights, col)) for col in zip(*leq)]
    join_t = [[None] * n for _ in range(n)]
    meet_t = [[None] * n for _ in range(n)]
    for table, cover in ((join_t, up), (meet_t, down)):
        for a in range(n):
            for b in range(a, n):
                common = rest = cover[a] & cover[b]
                found = None
                while rest:
                    low = rest & -rest
                    rest ^= low
                    u = low.bit_length() - 1
                    if not common & ~cover[u]:
                        if found is not None:
                            found = None
                            break
                        found = u
                table[a][b] = table[b][a] = found
    return tuple(map(tuple, join_t)), tuple(map(tuple, meet_t))


def greatest_element(leq) -> Optional[int]:
    n = len(leq)
    for t in range(n):
        if all(leq[a][t] for a in range(n)):
            return t
    return None


def _check_po_groupoid(raw: RawStructure, add):
    n, mult, leq = raw.n, raw.mult, raw.leq
    for a in range(n):
        if not leq[a][a]:
            add(PO_GROUPOID, "order-reflexive", (a,), "a <= a fails")
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                add(PO_GROUPOID, "order-antisymmetric", (a, b), "a <= b and b <= a for distinct a, b")
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        add(PO_GROUPOID, "order-transitive", (a, b, c), "a <= b <= c but not a <= c")
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                for c in range(n):
                    if not leq[mult[a][c]][mult[b][c]]:
                        add(PO_GROUPOID, "compat-right", (a, b, c), "a <= b but not ac <= bc")
                    if not leq[mult[c][a]][mult[c][b]]:
                        add(PO_GROUPOID, "compat-left", (a, b, c), "a <= b but not ca <= cb")


def _check_associativity(raw: RawStructure, add):
    n, mult = raw.n, raw.mult
    for a in range(n):
        for b in range(n):
            ab = mult[a][b]
            for c in range(n):
                if mult[ab][c] != mult[a][mult[b][c]]:
                    add(PO_SEMIGROUP, "associative", (a, b, c), "(ab)c != a(bc)")


def _check_poe(raw: RawStructure, add):
    if greatest_element(raw.leq) is None:
        n = len(raw.leq)
        maximal = [a for a in range(n)
                   if all(not raw.leq[a][b] or a == b for b in range(n))]
        witness = tuple(maximal[:2])
        add(POE, "greatest-element", witness, "no greatest element exists")


def _check_vee(raw: RawStructure, join_t, add):
    n, mult = raw.n, raw.mult
    total = True
    for a in range(n):
        for b in range(n):
            if join_t[a][b] is None:
                total = False
                add(VEE, "join-exists", (a, b), "pair has no least upper bound")
    if not total:
        return
    for a in range(n):
        for b in range(n):
            ab = join_t[a][b]
            for c in range(n):
                if join_t[mult[a][c]][mult[b][c]] != mult[ab][c]:
                    add(VEE, "join-distributive-right", (a, b, c), "(a v b)c != ac v bc")
                if join_t[mult[c][a]][mult[c][b]] != mult[c][ab]:
                    add(VEE, "join-distributive-left", (a, b, c), "c(a v b) != ca v cb")


def _check_wedge(raw: RawStructure, meet_t, add):
    n = raw.n
    for a in range(n):
        for b in range(n):
            if meet_t[a][b] is None:
                add(WEDGE, "meet-exists", (a, b), "pair has no greatest lower bound")


def _check_involution(raw: RawStructure, add):
    n, mult, leq, star = raw.n, raw.mult, raw.leq, raw.star
    if star is None:
        add(INVOLUTION, "operation-present", (), "no unary operation given")
        return
    for a in range(n):
        if star[star[a]] != a:
            add(INVOLUTION, "involutive", (a,), "(a*)* != a")
    for a in range(n):
        for b in range(n):
            if star[mult[a][b]] != mult[star[b]][star[a]]:
                add(INVOLUTION, "anti-homomorphism", (a, b), "(ab)* != b*a*")
    for a in range(n):
        for b in range(n):
            if leq[a][b] and not leq[star[a]][star[b]]:
                add(INVOLUTION, "order-preserving", (a, b), "a <= b but not a* <= b*")


def validate_structure(raw: RawStructure) -> tuple[OrderedAlgebra, ValidationReport]:
    """Check every axiom tier and return the structure with its attained tier set.

    Structural defects (bad shapes, out-of-range entries) raise StructureError;
    axiom failures are collected as Violation records, one per failing instance,
    and simply exclude the owning tier from the accepted set.
    """
    if not isinstance(raw, RawStructure):
        raw = RawStructure(*raw)  # allow (n, mult, leq, star, labels) tuples
    violations: list[Violation] = []

    def add(tier, axiom, witness, message):
        violations.append(Violation(tier, axiom, tuple(witness), message))

    join_t, meet_t = bounds_tables(raw.leq)
    _check_po_groupoid(raw, add)
    _check_associativity(raw, add)
    _check_poe(raw, add)
    _check_vee(raw, join_t, add)
    _check_wedge(raw, meet_t, add)
    _check_involution(raw, add)

    failed_own = {v.tier for v in violations}
    accepted: set[str] = set()
    for tier in ALL_TIERS:  # prerequisite order
        if tier in failed_own:
            continue
        missing = [p for p in TIER_PREREQS[tier] if p not in accepted]
        if missing:
            add(tier, "prerequisite", (), f"requires tier {missing[0]}")
            continue
        accepted.add(tier)

    e = greatest_element(raw.leq) if PO_GROUPOID in accepted else None
    return (
        OrderedAlgebra(raw=raw, tiers=frozenset(accepted), e=e,
                       join_table=join_t, meet_table=meet_t),
        ValidationReport(accepted=frozenset(accepted), violations=tuple(violations)),
    )


def reflexive_transitive_closure(n: int, pairs: Iterable[tuple[int, int]]):
    """Boolean matrix closure of the given pairs (Warshall)."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    for k in range(n):
        lk = leq[k]
        for i in range(n):
            if leq[i][k]:
                li = leq[i]
                for j in range(n):
                    if lk[j]:
                        li[j] = True
    return tuple(map(tuple, leq))


def antisymmetry_witness(leq) -> Optional[tuple[int, int]]:
    n = len(leq)
    for a in range(n):
        for b in range(a + 1, n):
            if leq[a][b] and leq[b][a]:
                return (a, b)
    return None


def transitive_reduction_pairs(leq) -> list[tuple[int, int]]:
    """Covering pairs (a, b) of a finite partial order, sorted."""
    n = len(leq)
    out = []
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b]:
                if not any(c != a and c != b and leq[a][c] and leq[c][b] for c in range(n)):
                    out.append((a, b))
    return sorted(out)


def equality_leq(n: int):
    return tuple(tuple(i == j for j in range(n)) for i in range(n))


def chain_leq(n: int):
    """Total order 0 <= 1 <= ... <= n-1."""
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))
