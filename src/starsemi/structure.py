"""Finite ordered groupoids/semigroups as explicit tables, with axiom-tier validation.

Elements are the integers 0..n-1; ``labels`` are presentation-only. A structure
carries a multiplication table, an order relation, and optionally a unary
involution given as a permutation. Validation sorts the structure into axiom
tiers (which form a lattice under prerequisites, not a chain). The views of
the order that the validation and the analysis modules read (the up-set and
down-set bitmasks, the greatest element and the partial join/meet tables) are
built once, as one record per order, with the verdicts of the checks that read
only the order and the order's covering and incomparable pairs; the validated
structure carries the record. The records of orders on at most six points
stay in one bounded LRU cache, which the validation and the enumeration's
model stream both read, and validation lists the violations of an order-only
check only where the record says it fails. What the filters and the claims
read of the table, the star and the top alone is a second record, built once
per such triple while it stays in a small cache; what Proposition 5 reads of
the join and meet tables and the star is a third, built once per such triple
while it stays in a bounded cache. A validated structure reads its table
facts through ``_lazy`` on first use. What the analysis modules build of one
whole structure (the flags, the regularity failures, the filters, their
classes and the windows) the structure keeps itself, through
``_per_structure``, so that every reader shares one build; those facts live
and die with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import chain, compress, repeat
from typing import Iterable, NamedTuple, Optional

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


class _lazy:
    """A lazy attribute: the first read on an instance calls ``fn`` and keeps
    its value in the instance ``__dict__``, which later reads find first, as
    this descriptor defines no ``__set__``. It is what
    ``functools.cached_property`` does from Python 3.12, without the lock
    that 3.10 and 3.11 take on every first read; without a lock, two threads
    reading one instance at once may both call ``fn``. Read on the class, it
    is the descriptor itself."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _per_structure(fn):
    """A per-structure memo: ``_per_structure(fn)(S)`` calls ``fn(S)`` on the
    first call for S and keeps its value in the instance ``__dict__`` of S,
    under the qualified name of ``fn``, which no attribute can have; later
    calls read it there. A call that raises keeps nothing. Like ``_lazy``,
    it takes no lock and adds nothing to dataclass equality, hash or repr,
    and the value lives and dies with S."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def kept(S):
        kept_facts = S.__dict__
        if key in kept_facts:
            return kept_facts[key]
        value = kept_facts[key] = fn(S)
        return value

    return kept


class _Memo(dict):
    """Dict that computes ``fn(key)`` for a missing key and keeps it when
    ``keep(key)`` holds, or always without ``keep``; a hit is a plain lookup."""

    def __init__(self, fn, keep=None):
        super().__init__()
        self.fn = fn
        self.keep = keep

    def __missing__(self, key):
        value = self.fn(key)
        if self.keep is None or self.keep(key):
            self[key] = value
        return value


def _bit_list(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# ``BITS[mask]``: the element indices in a bitmask, ascending; masks below
# 2**12 are kept
BITS = _Memo(_bit_list, keep=lambda mask: mask < 4096)

# ``_ROW_MASKS[row]``: a row of booleans as a bitmask, bit j set when row[j]
# is true; rows of up to 8 entries are kept
_ROW_MASKS = _Memo(lambda row: sum(compress([1 << j for j in range(len(row))], row)),
                   keep=lambda row: len(row) <= 8)


def _masks(rows) -> tuple[int, ...]:
    """Each boolean row (a tuple) as a bitmask: bit j of entry i is rows[i][j]."""
    return tuple(map(_ROW_MASKS.__getitem__, rows))


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


# The section keywords of the text format (``fileformat``), the first line's
# first: no label may be one, since a pair line that starts with one reads as
# a new section
_SECTION_KEYWORDS = ("n", "labels", "mult", "leq", "star")


def _as_label_tuple(labels, n: int) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise StructureError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise StructureError("labels must be distinct")
    for lab in labels:
        if not lab or any(c.isspace() for c in lab) or "#" in lab:
            raise StructureError(f"bad label {lab!r}: must be nonempty, without whitespace or '#'")
        if lab in _SECTION_KEYWORDS:
            raise StructureError(f"label {lab!r} collides with a section keyword")
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
            if not all(map(isinstance, row, repeat(int))) or min(row) < 0 or max(row) >= n:
                for v in row:
                    if not isinstance(v, int) or not 0 <= v < n:
                        raise StructureError(
                            f"multiplication entry {v!r} out of range [0, {n})")
        leq = tuple(tuple(map(bool, row)) for row in self.leq)
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

    def _with_order(self, leq) -> "RawStructure":
        """This structure with the order ``leq``, a tuple of n tuples of
        bools, taken as it is: the table and the star were checked when this
        one was built, and nothing is copied or checked again."""
        out = object.__new__(RawStructure)
        for name, value in (("n", self.n), ("mult", self.mult), ("leq", leq),
                            ("star", self.star), ("labels", self.labels)):
            object.__setattr__(out, name, value)
        return out


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

    def violations_for(self, tier: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.tier == tier)


@dataclass(frozen=True)
class OrderedAlgebra:
    """Validated immutable structure plus its attained tier set and the record
    of its order: the greatest element, the partial join and meet tables and
    the up-set and down-set bitmasks. Entries of the join/meet tables are
    element indices or None where no bound exists. Entry a of ``up_masks``
    (``down_masks``) has bit u set when a <= u (u <= a); the masks come with
    the record, so they take no part in equality or repr. The facts of the
    table, the star and the top are read on first use from a small cache
    shared by the structures with the same three, and kept outside the
    fields, as are the facts that the analysis modules keep in the
    structure (``_per_structure``), so they too take no part in equality,
    hash or repr."""

    raw: RawStructure
    tiers: frozenset[str]
    e: Optional[int]
    join_table: tuple[tuple[Optional[int], ...], ...]
    meet_table: tuple[tuple[Optional[int], ...], ...]
    up_masks: tuple[int, ...] = field(repr=False, compare=False)
    down_masks: tuple[int, ...] = field(repr=False, compare=False)

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

    def join(self, a: int, b: int) -> Optional[int]:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> Optional[int]:
        return self.meet_table[a][b]

    @_lazy
    def _facts(self) -> "_TableFacts":
        """The facts of the table, the star and the top (``_table_facts``)."""
        return _table_facts(self.raw.mult, self.raw.star, self.e)


def _check_element(S: OrderedAlgebra, x: int) -> None:
    """Raise ``ValueError`` unless x is an element of S."""
    if x not in S.elements():
        raise ValueError(f"no element {x} in a structure of order {S.n}")


class _TableFacts(NamedTuple):
    """What the filters and the claims read of a table, its star and its
    top e, and nothing else. ``divisors[v]`` has bits a and b set for every
    product ab = v, and ``value_pairs[v]`` bit a*n + b; ``aa[a]`` is a a.
    With a top, the products of each a with e are ``ea``, ``ae``, ``eae``,
    ``aea`` and ``eaae``, each indexed by a; ``ideal_generated[v]`` is the
    mask of {v, ev, ve, eve}, so x lies in the ideal generated by v when its
    up-set meets it; ``reversal`` has bit a*n + b set where e a b e = e b a e
    and, with a star as well, ``star_reversal`` where e a b e = e b* a* e.
    Without a top (a star) the fields that read it are None."""

    divisors: tuple[int, ...]
    value_pairs: tuple[int, ...]
    aa: tuple[int, ...]
    ea: Optional[tuple[int, ...]]
    ae: Optional[tuple[int, ...]]
    eae: Optional[tuple[int, ...]]
    aea: Optional[tuple[int, ...]]
    eaae: Optional[tuple[int, ...]]
    ideal_generated: Optional[tuple[int, ...]]
    reversal: Optional[int]
    star_reversal: Optional[int]


# The stream emits the models of each (table, star) pair one after another,
# with a few tops among them, so a small cache serves it; a large one fills
# with the tables of relabeled copies, which are never read again
_TABLE_FACTS_CACHE_SIZE = 64


@lru_cache(maxsize=_TABLE_FACTS_CACHE_SIZE)
def _table_facts(mult, star, e) -> _TableFacts:
    """The facts of a table, its star (or None) and its top (or None)."""
    n = len(mult)
    divisors, value_pairs = [0] * n, [0] * n
    for a, row in enumerate(mult):
        for b, v in enumerate(row):
            divisors[v] |= 1 << a | 1 << b
            value_pairs[v] |= 1 << a * n + b
    # tuples of list comprehensions, which build faster than generators
    aa = tuple([row[a] for a, row in enumerate(mult)])
    ea = ae = eae = aea = eaae = generated = reversal = star_reversal = None
    if e is not None:
        ea = mult[e]
        ae = tuple([row[e] for row in mult])
        eae = tuple([mult[v][e] for v in ea])
        aea = tuple([mult[v][a] for a, v in enumerate(ae)])
        eaae = tuple([mult[mult[v][a]][e] for a, v in enumerate(ea)])
        generated = tuple([1 << v | 1 << ea[v] | 1 << ae[v] | 1 << eae[v] for v in range(n)])
        eabe = [mult[p][e] for v in ea for p in mult[v]]  # e a b e at a*n + b
        reversal = _swapped_equal(eabe, range(n))
        if star is not None:
            star_reversal = _swapped_equal(eabe, star)
    return _TableFacts(tuple(divisors), tuple(value_pairs), aa, ea, ae, eae, aea, eaae,
                       generated, reversal, star_reversal)


def _swapped_equal(eabe, order) -> int:
    """The pairs (a, b) where entry a*n + b of ``eabe`` equals entry y*n + x,
    with x = order[a] and y = order[b]."""
    n = len(order)
    out = i = 0
    for x in order:
        for y in order:
            if eabe[i] == eabe[y * n + x]:
                out |= 1 << i
            i += 1
    return out


# The order-5 {involution, poe} stream reads 940 distinct (join table, meet
# table, star) triples, so every repeat hits; at this size the order-6 one,
# with 16,378 triples among its 319,587 models, finds 76 % of its reads kept
_STAR_BOUNDS_CACHE_SIZE = 2048


@lru_cache(maxsize=_STAR_BOUNDS_CACHE_SIZE)
def _star_bounds(join_table, meet_table, star) -> tuple[int, int]:
    """(guard, ok) of the star on the bounds: bit a*n + b of ``guard`` is set
    where a v b or a ^ b exists, and of ``ok`` where the star maps each of
    them that exists to the bound of a* and b*, (a v b)* = a* v b* and
    (a ^ b)* = a* ^ b*. Kept per triple, the three tables it reads, which
    the structures with the same order and star share."""
    n = len(star)
    guard = bad = 0
    for table in (join_table, meet_table):
        for a, row in enumerate(table):
            starred = table[star[a]]
            for b, u in enumerate(row):
                if u is not None:
                    guard |= 1 << a * n + b
                    if star[u] != starred[star[b]]:
                        bad |= 1 << a * n + b
    return guard, guard & ~bad


def bounds_tables(leq):
    """Partial LUB/GLB tables for an arbitrary relation matrix.

    With up[a] the set of u where a <= u and down[a] the set of u where
    u <= a, held as bitmasks, the join of a and b is the unique u in
    U = up[a] & up[b] with U a subset of up[u]; the meet is the dual. An entry
    is None when no element or more than one qualifies, so the tables are
    defined even when ``leq`` is not a partial order."""
    leq = tuple(map(tuple, leq))
    n = len(leq)
    up = _masks(leq)
    down = _masks(tuple(zip(*leq)))
    join_t = [[None] * n for _ in range(n)]
    meet_t = [[None] * n for _ in range(n)]
    for table, cover, dual in ((join_t, up, down), (meet_t, down, up)):
        for a in range(n):
            row, cover_a = table[a], cover[a]
            for b in range(a, n):
                # u qualifies when U lies inside cover[u], that is when u
                # lies in U and in dual[v] for every v in U
                least = common = cover_a & cover[b]
                for v in BITS[common]:
                    least &= dual[v]
                found = least.bit_length() - 1 if least and not least & (least - 1) else None
                row[b] = table[b][a] = found
    return tuple(map(tuple, join_t)), tuple(map(tuple, meet_t))


class _OrderRecord(NamedTuple):
    """The views of an order relation that the checks and the analysis read,
    with the verdicts of the checks that read nothing else. ``failed`` holds
    the tiers whose order-only check fails (``_order_only_checks``). On a
    partial order, ``covers[a]`` has bit b set when b covers a (a < b with
    nothing between) and ``apart[a]`` when a < b by index and a and b are
    incomparable; on any other relation both are None."""

    up: tuple[int, ...]
    down: tuple[int, ...]
    e: Optional[int]
    join_table: tuple[tuple[Optional[int], ...], ...]
    meet_table: tuple[tuple[Optional[int], ...], ...]
    failed: frozenset[str]
    covers: Optional[tuple[int, ...]]
    apart: Optional[tuple[int, ...]]


# Labeled orders recur only on few points (OEIS A001035: 19, 219, 4,231 and
# 130,023 labeled orders on 3-6 points). From 7 points there are 6.1 M, so a
# validated order almost never recurs, and the records of relations of up to
# MAX_ORDER points would pin many MB; a larger relation's record is built on
# every call.
_RECORD_MAX_ORDER = 6

# Sized on the involution-poe streams: order 5 reads 756 distinct orders, so
# every repeat hits; order 6 reads 13,239, and at this size the order records
# are built 61,157 times for its 319,587 models (13,239 times unbounded, for
# 17 MB more peak memory)
_RECORD_CACHE_SIZE = 2048


def _order_record(leq) -> _OrderRecord:
    """The record of an order relation: its up and down masks, its greatest
    element (the first t whose down mask is full), its join and meet tables,
    the tiers its order-only checks fail, and on a partial order its
    covering and incomparable pairs. The record of a relation on at most
    ``_RECORD_MAX_ORDER`` points is built once while it stays in an LRU
    cache, keyed on its up masks, which determine the relation: many
    (table, star) pairs and validated structures share their orders."""
    up = _masks(leq)
    if len(up) > _RECORD_MAX_ORDER:
        return _build_order_record(leq, up)
    return _cached_order_record(up)


@lru_cache(maxsize=_RECORD_CACHE_SIZE)
def _cached_order_record(up) -> _OrderRecord:
    """``_order_record`` of the relation whose up masks are ``up``."""
    n = len(up)
    leq = tuple([tuple([bool(u >> b & 1) for b in range(n)]) for u in up])
    return _build_order_record(leq, up)


def _build_order_record(leq, up) -> _OrderRecord:
    """The record of ``leq``, given its up masks."""
    down = _masks(tuple(zip(*leq)))
    n = len(leq)
    full = (1 << n) - 1
    e = down.index(full) if full in down else None
    join_t, meet_t = bounds_tables(leq)
    failed = _failed_tiers(_order_only_checks(leq, up, down, e, join_t, meet_t))
    covers = apart = None
    if PO_GROUPOID not in failed:
        strict = [u & ~(1 << a) for a, u in enumerate(up)]
        covers, apart = [], []
        for a, above in enumerate(strict):
            between = 0
            for b in BITS[above]:
                between |= strict[b]
            covers.append(above & ~between)
            apart.append(full & ~((2 << a) - 1) & ~(up[a] | down[a]))
        covers, apart = tuple(covers), tuple(apart)
    return _OrderRecord(up, down, e, join_t, meet_t, failed, covers, apart)


# Each check below yields its tier's violations lazily, in a fixed order. The
# up[a] / down[a] bitmasks hold the u with a <= u / u <= a, so the loops visit
# only the pairs that can fail; the checks that read the model as well take
# the pairs to visit as masks, pairs[a] holding the b of each pair (a, b).

def _check_order_axioms(up, down):
    n = len(up)
    for a in range(n):
        if not up[a] >> a & 1:
            yield Violation(PO_GROUPOID, "order-reflexive", (a,), "a <= a fails")
    for a in range(n):
        for b in BITS[up[a] & down[a] & ~(1 << a)]:
            yield Violation(PO_GROUPOID, "order-antisymmetric", (a, b),
                            "a <= b and b <= a for distinct a, b")
    for a in range(n):
        for b in BITS[up[a]]:
            for c in BITS[up[b] & ~up[a]]:
                yield Violation(PO_GROUPOID, "order-transitive", (a, b, c),
                                "a <= b <= c but not a <= c")


def _check_compat(mult, leq, pairs):
    n = len(mult)
    cols = tuple(zip(*mult))
    for a in range(n):
        ra, ca = mult[a], cols[a]
        for b in BITS[pairs[a]]:
            rb, cb = mult[b], cols[b]
            for c in range(n):
                if not leq[ra[c]][rb[c]]:
                    yield Violation(PO_GROUPOID, "compat-right", (a, b, c),
                                    "a <= b but not ac <= bc")
                if not leq[ca[c]][cb[c]]:
                    yield Violation(PO_GROUPOID, "compat-left", (a, b, c),
                                    "a <= b but not ca <= cb")


def _check_associativity(mult):
    n = len(mult)
    for a in range(n):
        ra = mult[a]
        for b in range(n):
            r_ab, rb = mult[ra[b]], mult[b]
            for c in range(n):
                if r_ab[c] != ra[rb[c]]:
                    yield Violation(PO_SEMIGROUP, "associative", (a, b, c), "(ab)c != a(bc)")


def _check_poe(leq, e):
    if e is None:
        n = len(leq)
        maximal = [a for a in range(n)
                   if all(not leq[a][b] or a == b for b in range(n))]
        witness = tuple(maximal[:2])
        yield Violation(POE, "greatest-element", witness, "no greatest element exists")


def _check_bounds(table, tier, axiom, message):
    # the pairs without a bound in a join or meet table
    if any(None in row for row in table):
        for a, row in enumerate(table):
            for b, ab in enumerate(row):
                if ab is None:
                    yield Violation(tier, axiom, (a, b), message)


def _check_join_distributive(mult, join_t, pairs):
    # reads a join table without a missing entry
    n = len(mult)
    cols = tuple(zip(*mult))
    for a in range(n):
        ra, ca = mult[a], cols[a]
        for b in BITS[pairs[a]]:
            rb, cb = mult[b], cols[b]
            ab = join_t[a][b]
            r_ab, c_ab = mult[ab], cols[ab]
            for c in range(n):
                if join_t[ra[c]][rb[c]] != r_ab[c]:
                    yield Violation(VEE, "join-distributive-right", (a, b, c),
                                    "(a v b)c != ac v bc")
                if join_t[ca[c]][cb[c]] != c_ab[c]:
                    yield Violation(VEE, "join-distributive-left", (a, b, c),
                                    "c(a v b) != ca v cb")


def _check_star_laws(mult, star):
    # the part of the involution tier that reads only the table and the star
    n = len(mult)
    if star is None:
        yield Violation(INVOLUTION, "operation-present", (), "no unary operation given")
        return
    for a in range(n):
        if star[star[a]] != a:
            yield Violation(INVOLUTION, "involutive", (a,), "(a*)* != a")
    cols = tuple(zip(*mult))
    for a in range(n):
        ra, col = mult[a], cols[star[a]]  # col[y] is y a*
        for b in range(n):
            if star[ra[b]] != col[star[b]]:
                yield Violation(INVOLUTION, "anti-homomorphism", (a, b), "(ab)* != b*a*")


def _check_star_order(star, up, pairs):
    # the part of the involution tier that reads the order
    if star is None:
        return
    for a in range(len(star)):
        up_sa = up[star[a]]
        for b in BITS[pairs[a]]:
            if not up_sa >> star[b] & 1:
                yield Violation(INVOLUTION, "order-preserving", (a, b),
                                "a <= b but not a* <= b*")


def _pair_checks(mult, star):
    """The checks that read only the table and the star: associativity and
    the star laws of the involution tier."""
    return _check_associativity(mult), _check_star_laws(mult, star)


# The tiers of ``_order_only_checks``, in their order
_ORDER_ONLY_TIERS = (PO_GROUPOID, POE, VEE, WEDGE)


def _order_only_checks(leq, up, down, e, join_t, meet_t):
    """The checks that read only the order, one per tier of
    ``_ORDER_ONLY_TIERS``: the order axioms (po-groupoid), the greatest
    element (poe), joins (vee) and meets (wedge), given the views of
    ``_order_record``."""
    return (_check_order_axioms(up, down), _check_poe(leq, e),
            _check_bounds(join_t, VEE, "join-exists", "pair has no least upper bound"),
            _check_bounds(meet_t, WEDGE, "meet-exists", "pair has no greatest lower bound"))


def _model_checks(raw: RawStructure, record, every=False):
    """The checks that read the table or the star as well as the order, one
    per tier: compatibility (po-groupoid), join-distributivity (vee) and the
    star's order preservation (involution), given ``record =
    _order_record(raw.leq)``.

    Each runs on a gate. On a partial order, a check of a <= b that passes
    on the covering pairs passes on every comparable pair by transitivity,
    so compatibility and order preservation have nothing left to list. A
    model that is monotone on every comparable pair a <= b has (a v b)c = bc
    = ac v bc there, and c(a v b) = cb = ca v cb, so join-distributivity
    lists only the incomparable pairs: those with a < b when only the first
    violation is read, since the join table is symmetric, and both orders of
    each with ``every``. Where the gate fails, each check visits every
    comparable pair, and join-distributivity every pair."""
    mult, leq, star, n = raw.mult, raw.leq, raw.star, raw.n
    up, join_t, failed, covers = record.up, record.join_table, record.failed, record.covers
    full = (1 << n) - 1
    ordered = PO_GROUPOID not in failed
    if ordered and next(_check_compat(mult, leq, covers), None) is None:
        compat = iter(())
        if every:
            pairs = tuple(full & ~(u | d) for u, d in zip(up, record.down))
        else:
            pairs = record.apart
    else:
        compat, pairs = _check_compat(mult, leq, up), (full,) * n
    # join-distributivity reads the joins, so it runs only when all exist
    distributive = iter(()) if VEE in failed else _check_join_distributive(mult, join_t, pairs)
    if ordered and next(_check_star_order(star, up, covers), None) is None:
        star_order = iter(())
    else:
        star_order = _check_star_order(star, up, up)
    return compat, distributive, star_order


def _tier_checks(raw: RawStructure, record):
    """One lazy generator of violations per tier, in validation order. The
    order-only checks run only for the tiers in ``record.failed``: the record
    read the first violation of each on the same relation, so the others
    list none."""
    associativity, star_laws = _pair_checks(raw.mult, raw.star)
    order_axioms, poe, joins, meets = (
        check if tier in record.failed else iter(())
        for tier, check in zip(_ORDER_ONLY_TIERS, _order_only_checks(raw.leq, *record[:5])))
    compat, distributive, star_order = _model_checks(raw, record, every=True)
    return (chain(order_axioms, compat), associativity, poe, chain(joins, distributive), meets,
            chain(star_laws, star_order))


def _failed_tiers(checks) -> frozenset[str]:
    """The tiers of the checks that yield a violation, each read up to its first."""
    return frozenset(v.tier for v in (next(check, None) for check in checks) if v is not None)


def _pair_failures(mult, star) -> frozenset[str]:
    """The tiers that the checks of ``_pair_checks`` fail."""
    return _failed_tiers(_pair_checks(mult, star))


@lru_cache(maxsize=128)  # one entry per set of failed tiers
def _accept(failed_own: frozenset[str]) -> tuple[frozenset[str], tuple[Violation, ...]]:
    """The accepted tiers given the tiers with an own violation, and one
    prerequisite violation for each other tier that is refused."""
    accepted: set[str] = set()
    refused = []
    for tier in ALL_TIERS:  # prerequisite order
        if tier in failed_own:
            continue
        missing = [p for p in TIER_PREREQS[tier] if p not in accepted]
        if missing:
            refused.append(Violation(tier, "prerequisite", (), f"requires tier {missing[0]}"))
            continue
        accepted.add(tier)
    return frozenset(accepted), tuple(refused)


def _algebra(raw: RawStructure, accepted, record) -> OrderedAlgebra:
    return OrderedAlgebra(raw=raw, tiers=accepted,
                          e=record.e if PO_GROUPOID in accepted else None,
                          join_table=record.join_table, meet_table=record.meet_table,
                          up_masks=record.up, down_masks=record.down)


def validate_structure(raw: RawStructure) -> tuple[OrderedAlgebra, ValidationReport]:
    """Check every axiom tier and return the structure with its attained tier set.

    Structural defects (bad shapes, out-of-range entries) raise StructureError;
    axiom failures are collected as Violation records, one per failing instance
    (tier by tier, each tier's instances in a fixed order), and simply exclude
    the owning tier from the accepted set. A tier refused for a missing
    prerequisite gets one "prerequisite" record at the end. The accepted set
    depends only on which tiers have some violation, so the enumeration's
    re-check reads only the first violation of each tier from the same checks,
    each once per object it reads: the ones that read only the table and the
    star once per (table, star) pair (``_pair_failures``), the ones that read
    only the order once per order (``_order_record``), and the rest once per
    model (``_accepted_structure``).
    """
    record = _order_record(raw.leq)
    violations = [v for check in _tier_checks(raw, record) for v in check]
    accepted, refused = _accept(frozenset(v.tier for v in violations))
    violations += refused
    return (_algebra(raw, accepted, record),
            ValidationReport(accepted=accepted, violations=tuple(violations)))


def _accepted_structure(raw: RawStructure, pair_failed, record) -> OrderedAlgebra:
    """The structure ``validate_structure`` returns, without its report, given
    ``pair_failed = _pair_failures(raw.mult, raw.star)`` and ``record =
    _order_record(raw.leq)``: only the checks that read the model as well as
    the order run here, each up to its first violation, and no violation is
    kept."""
    failed = pair_failed | record.failed | _failed_tiers(_model_checks(raw, record))
    return _algebra(raw, _accept(failed)[0], record)


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
