"""Exhaustive model enumeration up to isomorphism, canonical forms,
compatible-order search and claim-counterexample sweeps.

Search order is cheapest-fail-first: associative multiplication tables are
generated by backtracking with incremental associativity pruning, then, when
an involution is required, each table's stars are picked, then the compatible
order relations of each (table, star) pair are grown pairwise with constraint
propagation on per-element bitmasks. The propagation forces a* <= b* along
with a <= b, so every order it yields is preserved by the star. The order
search is rooted at the required extremes: when a greatest element is
required it runs once per candidate top t, from x <= t forced for every x;
when meets are required (a finite order with all binary meets has the meet of
all elements as its least element) once per candidate bottom; and once per
(top, bottom) pair when both are. Each rooted search yields its orders in
lexicographic order, no order has two tops or two bottoms, and the rooted
streams are merged lazily into one lexicographic stream, the orders that the
unrooted search yields with the required extremes, in the same order.

When an involution is required, the table search is star-first: it runs once
per involution in normal form, (0 1)(2 3)... with the remaining elements
fixed, and fills each cell together with the partner cell that
(ab)* = b*a* determines, so tables that admit no involution are never
built. Each run of the table search for the semigroup classes visits only the
lex-leaders under the relabelings that commute with its star (all of them
without a star), so it builds one table per orbit of that group instead of
every labeled table. Each relabeling is compared with the partial table only
at the step that defines its next comparison, from where it last stopped: a
branch is cut at the cell that decides it is no lex-leader, and a relabeling
whose image can no longer come out below the table leaves the branch.

Isomorphism rejection of the tables needs a key only where that group is
smaller than Sym(n). The run without a star and the identity-star run (the
commutative tables) prune under all of Sym(n), so they build exactly one table
per class. A run with a nontrivial star skips its commutative tables, whose
classes the identity-star run has, and keys the rest on their canonical
encoding. The stars of a table are taken one per conjugacy class of its
automorphism group, and the orders of each (table, star) pair one per orbit of
the stabilizer of its star: representatives of the first choice, then of the
second up to the first one's stabilizer (McKay, "Isomorph-free exhaustive
generation", 1998). Mirror images (anti-isomorphisms) are deliberately NOT
identified, since left and right notions differ everywhere in this theory.

``canonical_form``, ``automorphisms`` and the class keys are thin calls into
one refine-and-individualize search (``_symmetry``), which yields the
canonical labeling and the automorphism group together.

Every emitted model is re-checked against every axiom tier with the checks of
``validate_structure``, each read up to its first violation, and each part is
paid once per object it reads. The table and the star are range-checked once
per (table, star) pair, into one ``RawStructure`` that each model of the pair
takes with its own order, and associativity and the star laws (involutive,
anti-homomorphism), which read only the table and the star, run once per pair,
before its order stream. What the checks read of the order alone (its up-set
and down-set bitmasks, its greatest element, its join and meet tables, its
covering and incomparable pairs) and the verdicts of the checks that read
nothing else (the order axioms, the greatest element, joins and meets) are one
record, ``structure._order_record``, built once per order while it stays in
that function's bounded LRU cache, which ``validate_structure`` reads too; the
order filter of the lattice tiers reads the same record, and each model
carries it.
Only the checks that read the model run once per model: compatibility,
join-distributivity and the star's order preservation. Each runs on a gate:
an order whose covering pairs pass compatibility and order preservation
passes them on every comparable pair, and a monotone model can fail
join-distributivity only at an incomparable pair. For its 10,200 models, the
order-5 involution-poe stream checks 542 pairs and builds the records of 756
orders.
"""

from __future__ import annotations

import hashlib
import heapq
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, permutations
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .claims import (
    NOT_APPLICABLE, PASS, ClaimReport, StructureAnalysis, check_claim, expand_claim_ids,
)
from .fileformat import serialize_structure
from .structure import (
    BITS, INVOLUTION, OrderedAlgebra, PO_GROUPOID, PO_SEMIGROUP, POE, RawStructure, StructureError,
    VEE, WEDGE, _Memo, _accepted_structure, _check_join_distributive, _order_record,
    _pair_failures, equality_leq, tier_closure,
)

EXHAUSTIVE_MAX_ORDER = 6
CANONICAL_MAX_ORDER = 8


@dataclass(frozen=True)
class ModelSpec:
    """Enumeration request, refused past ``EXHAUSTIVE_MAX_ORDER``.
    ``required_tiers`` is closed under prerequisites and always includes the
    po-semigroup tier (the search space is associative tables). ``limit``
    caps the stream of ``enumerate_models``; a sweep reads one model past it
    to tell a truncated stream from an exact fit."""

    order: int
    required_tiers: frozenset[str] = frozenset()
    limit: Optional[int] = None

    def __post_init__(self):
        for name, value in (("order", self.order), ("limit", self.limit)):
            if name == "limit" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.order > EXHAUSTIVE_MAX_ORDER:
            raise ValueError(
                f"exhaustive enumeration is limited to order <= {EXHAUSTIVE_MAX_ORDER}")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be >= 0")
        tiers = tier_closure(self.required_tiers) | {PO_GROUPOID, PO_SEMIGROUP}
        object.__setattr__(self, "required_tiers", frozenset(tiers))


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Byte encoding of (mult, leq, star) under the canonical labeling that
    the symmetry search picks (the least encoding over its leaves). Equal
    forms characterize isomorphic structures.

    ``digest`` carries a format prefix, ``v2-`` followed by the SHA-256 of
    the bytes."""

    data: bytes

    @property
    def digest(self) -> str:
        return "v2-" + hashlib.sha256(self.data).hexdigest()


def _perm_inverse(p):
    q = [0] * len(p)
    for i, x in enumerate(p):
        q[x] = i
    return q


def _apply_perm_mult(mult, p, pinv):
    n = len(p)
    return tuple(tuple(pinv[mult[p[x]][p[y]]] for y in range(n)) for x in range(n))


def _apply_perm_leq(leq, p):
    n = len(p)
    return tuple(tuple(leq[p[x]][p[y]] for y in range(n)) for x in range(n))


def _apply_perm_star(star, p, pinv):
    n = len(p)
    return tuple(pinv[star[p[x]]] for x in range(n))


# ---------------------------------------------------------------------------
# canonical labeling and automorphism group

def _encode(label, mult, leq, star) -> bytes:
    """The tables relabeled by ``label`` (element -> new label), as bytes:
    n, the product rows, the order rows as 0/1 (when given), then 0xFF, or
    0xFE and the star."""
    n = len(label)
    elem = _perm_inverse(label)
    body = bytearray([n])
    for x in elem:
        row = mult[x]
        body.extend([label[row[y]] for y in elem])
    if leq is not None:
        for x in elem:
            row = leq[x]
            body.extend([1 if row[y] else 0 for y in elem])
    if star is None:
        body.append(0xFF)
    else:
        body.append(0xFE)
        body.extend([label[star[x]] for x in elem])
    return bytes(body)


def _orbit(points, gens):
    seen = set(points)
    stack = list(points)
    while stack:
        u = stack.pop()
        for g in gens:
            w = g[u]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _common_prefix(a, b):
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def _symmetry(mult, leq=None, star=None, group=False):
    """(canonical encoding, automorphism group or None) of (mult[, leq][, star]),
    by one refine-and-individualize search (the scheme of McKay & Piperno,
    "Practical graph isomorphism, II", 2014).

    A coloring is an ordered partition: each element holds the first position
    of its cell, so cells split in place and an individualized element keeps
    its position down to the leaves. Refinement starts from the idempotent
    flag and gives each element the signature (its color, the sorted
    (c[y], c[xy], c[yx]) over all y, the sorted colors of its strict up-set
    and down-set, c[x*]) until no cell splits. The search individualizes each
    element of the first smallest non-singleton cell and refines again, down
    to discrete colorings; a leaf labels x with c[x], and the canonical
    encoding is the least leaf encoding.

    Two leaves with equal encodings give an automorphism that maps the path
    of one onto the path of the other, so the subtree where the paths part is
    the image of one already searched and is dropped. A child in the orbit of
    a searched sibling, under the automorphisms found that fix the node's
    path, is skipped. The automorphisms found while searching the siblings of
    the first leaf's path generate its pointwise stabilizers, so with
    ``group`` the sorted group is the product of their orbit transversals.
    """
    n = len(mult)
    rng = range(n)
    cols = [tuple(row[x] for row in mult) for x in rng]
    if leq is not None:
        ups = [tuple(y for y in rng if y != x and leq[x][y]) for x in rng]
        downs = [tuple(y for y in rng if leq[y][x] and y != x) for x in rng]
    nn = n * n

    def refine(c, cells):
        while cells < n:
            sigs = []
            for x in rng:
                row, col = mult[x], cols[x]
                sig = [c[x]]
                sig += sorted([c[y] * nn + c[row[y]] * n + c[col[y]] for y in rng])
                if leq is not None:
                    sig.append(-1)
                    sig += sorted([c[y] for y in ups[x]])
                    sig.append(-1)
                    sig += sorted([c[y] for y in downs[x]])
                if star is not None:
                    sig.append(c[star[x]])
                sigs.append(sig)
            order = sorted(rng, key=sigs.__getitem__)
            c = [0] * n
            prev, start, count = sigs[order[0]], 0, 1
            for k in range(1, n):
                sig = sigs[order[k]]
                if sig != prev:
                    prev, start = sig, k
                    count += 1
                c[order[k]] = start
            if count == cells:
                break
            cells = count
        return c, cells

    first = best = None  # (encoding, labeling, path) of a leaf
    gens = []  # (length of the common prefix with the first path, automorphism)

    def leaf(c, path):
        nonlocal first, best
        enc = _encode(c, mult, leq, star)
        for ref in (first, best):
            if ref is not None and ref[0] == enc:
                elem = _perm_inverse(ref[1])
                fixed = _common_prefix(path, first[2])
                gens.append((fixed, tuple(elem[v] for v in c)))
                return _common_prefix(path, ref[2])
        if first is None:
            first = best = (enc, c, path)
        elif enc < best[0]:
            best = (enc, c, path)
        return len(path) - 1

    def search(c, cells, path):
        # returns the depth at which the search goes on
        if cells == n:
            return leaf(c, path)
        size = [0] * n
        for v in c:
            size[v] += 1
        s = min((k for k in rng if size[k] > 1), key=size.__getitem__)
        cell = [x for x in rng if c[x] == s]
        depth = len(path)
        done = []
        for x in cell:
            if done and gens:
                fixing = [g for _, g in gens if all(g[p] == p for p in path)]
                if x in _orbit(done, fixing):
                    continue
            child = [s + 1 if v == s else v for v in c]
            child[x] = s
            back = search(*refine(child, cells + 1), path + (x,))
            if back < depth:
                return back
            done.append(x)
        return depth - 1

    search(*refine([0 if row[x] == x else 1 for x, row in enumerate(mult)], 0), ())
    if not group:
        return best[0], None
    path = first[2]
    elems = [tuple(rng)]
    for i in reversed(range(len(path))):
        level = [g for fixed, g in gens if fixed >= i]
        transversal = {path[i]: tuple(rng)}
        queue = [path[i]]
        for u in queue:
            tu = transversal[u]
            for g in level:
                w = g[u]
                if w not in transversal:
                    transversal[w] = tuple(map(g.__getitem__, tu))
                    queue.append(w)
        if len(transversal) > 1:
            elems = [tuple(map(t.__getitem__, h)) for t in transversal.values() for h in elems]
    elems.sort()
    return best[0], elems


def canonical_form(S) -> CanonicalForm:
    """The canonical form of a structure (order <= 8): its tables encoded
    under the labeling that the symmetry search picks."""
    raw = S.raw if isinstance(S, OrderedAlgebra) else S
    if raw.n > CANONICAL_MAX_ORDER:
        raise ValueError(f"canonical_form is limited to order <= {CANONICAL_MAX_ORDER}")
    return CanonicalForm(_symmetry(raw.mult, raw.leq, raw.star)[0])


def automorphisms(mult, leq=None, star=None):
    """All relabelings p preserving the given tables, p[xy] = p[x]p[y] and
    likewise for leq and star, as sorted tuples (order <= 8). They come from
    the generators that the symmetry search finds."""
    if len(mult) > CANONICAL_MAX_ORDER:
        raise ValueError(f"automorphisms is limited to order <= {CANONICAL_MAX_ORDER}")
    return _symmetry(mult, leq, star, group=True)[1]


# ---------------------------------------------------------------------------
# associative table generation

def _assoc_tables(n: int, star=None, symmetries=()):
    """Backtracking fill of an n*n table with incremental associativity checks,
    yielding each completed table.

    Cells are filled block-wise (the full subtable on elements 0..t before
    touching element t+1) so constraints bind as early as possible; values are
    tried in order, so the emission order is deterministic and partitions by
    the first table row. ``occ[v]`` indexes the filled cells holding value v.

    With an involution ``star``, only the tables it turns into an involution
    semigroup are yielded: giving cell (i, j) the value v gives its partner
    (j*, i*) the value v* in the same step, as (ij)* = j*i* demands, and a
    cell that is its own partner accepts only values with v* = v.

    With ``symmetries``, the non-identity elements of a group G of
    relabelings under which the set of yielded tables is closed, only the
    lex-leaders are yielded: the tables M with M <= g(M) for every g in G,
    where g(M)[i][j] = g(M[g^-1 i][g^-1 j]) and tables compare cell by cell in
    the walk order, the fill order with each partner right after its cell. These
    are the symmetry-breaking predicates of Crawford, Ginsberg, Luks & Roy,
    "Symmetry-breaking predicates for search problems", KR 1996.

    Each g is watched, as SAT solvers watch literals (Moskewicz et al.,
    "Chaff", DAC 2001). The step of a cell is its index in ``cells``, and a
    partner takes the step of its cell, which can be a block before its own.
    Walk position p of g compares M at (i, j) with M at (g^-1 i, g^-1 j), and
    becomes comparable at the later of those two cells' steps. ``watch[k]``
    holds each g whose next position becomes comparable at step k, with the
    position to resume from. Once the value of cell k passes ``ok``, each g
    in ``watch[k]`` is compared from that position on, up to the first
    position that differs or is not yet comparable. A difference with
    g(M) < M cuts the branch: every completion keeps it. A difference with
    g(M) > M takes g out of the branch, since no completion can undo it. A
    position that is not yet comparable puts g on the watch list of its
    step; each such append is popped when the value is undone, so the
    siblings see the watch lists as they were. The least table of each
    orbit is never cut, so every orbit met by the unpruned search keeps
    exactly one table.
    """
    order = []
    for t in range(n):
        order.extend((t, j) for j in range(t + 1))
        order.extend((i, t) for i in range(t))
    cells, mates, values = [], [], []
    step = {}
    for i, j in order:
        if (i, j) in step:
            continue
        mate = None if star is None else (star[j], star[i])
        if mate == (i, j):
            mate, vals = None, tuple(v for v in range(n) if star[v] == v)
        else:
            vals = range(n)
            step[mate] = len(cells)
        step[i, j] = len(cells)
        cells.append((i, j))
        mates.append(mate)
        values.append(vals)
    walk = [c for cell, mate in zip(cells, mates) for c in (cell, mate) if c is not None]
    last = len(cells) - 1
    m = [[None] * n for _ in range(n)]
    occ = [[] for _ in range(n)]
    # one more list for the end of the walk, which no step reaches: a g whose
    # every position is equal waits there
    watch = [[] for _ in range(len(cells) + 1)]
    end = (None, None, None, None, len(cells))
    for g in symmetries:
        ginv = _perm_inverse(g)
        positions = tuple([(m[i], j, m[ginv[i]], ginv[j], max(step[i, j], step[ginv[i], ginv[j]]))
                           for i, j in walk] + [end])
        watch[positions[0][4]].append((g, positions, 0))

    def lex_leader(k, trail):
        # False when some g watched at step k has g(M) below M at its first
        # difference; every g still undecided is put on the watch list of its
        # next position's step, and each list it joins goes on ``trail``
        for g, positions, r in watch[k]:
            row, j, image_row, b, s = positions[r]
            while s <= k:
                x, y = row[j], g[image_row[b]]
                if y != x:
                    if y < x:
                        return False
                    break
                r += 1
                row, j, image_row, b, s = positions[r]
            else:
                waiting = watch[s]
                waiting.append((g, positions, r))
                trail.append(waiting)
        return True

    def ok(i, j):
        # check every triple whose four table accesses just became defined
        v = m[i][j]
        mi, mj, mv = m[i], m[j], m[v]
        for z in range(n):
            jz = mj[z]
            if jz is not None:
                r1, r2 = mv[z], mi[jz]           # (ij)z vs i(jz)
                if r1 is not None and r2 is not None and r1 != r2:
                    return False
        for x in range(n):
            mx = m[x]
            xi = mx[i]
            if xi is not None:
                r2 = mx[v]                        # x(ij)
                if r2 is not None:
                    r1 = m[xi][j]                 # (xi)j
                    if r1 is not None and r1 != r2:
                        return False
        for x, y in occ[i]:                       # (xy)j with xy == i
            yj = m[y][j]
            if yj is not None:
                r = m[x][yj]
                if r is not None and r != v:
                    return False
        for y, z in occ[j]:                       # i(yz) with yz == j
            iy = mi[y]
            if iy is not None:
                r = m[iy][z]
                if r is not None and r != v:
                    return False
        return True

    def fill(k):
        i, j = cells[k]
        mate = mates[k]
        for v in values[k]:
            m[i][j] = v
            occ[v].append((i, j))
            if mate is not None:
                w = star[v]
                m[mate[0]][mate[1]] = w
                occ[w].append(mate)
            # cells are filled in partner pairs, so (ab)c = a(bc) holds
            # exactly when its star image (c*b*)a* = c*(b*a*) does, and
            # every triple through the mate is the image of one through
            # (i, j): checking (i, j) alone suffices
            if ok(i, j):
                trail = []
                if lex_leader(k, trail):
                    if k == last:
                        yield tuple(map(tuple, m))
                    else:
                        yield from fill(k + 1)
                for waiting in trail:
                    waiting.pop()
            if mate is not None:
                occ[w].pop()
            occ[v].pop()
        m[i][j] = None
        if mate is not None:
            m[mate[0]][mate[1]] = None

    if cells:
        yield from fill(0)


def associative_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All labeled associative n*n tables, in deterministic search order."""
    return _assoc_tables(n)


@lru_cache(maxsize=32)
def _involutive_perms(n):
    return tuple(p for p in permutations(range(n)) if all(p[p[x]] == x for x in range(n)))


def _anti_automorphic(mult, p):
    n = len(mult)
    for a in range(n):
        row = mult[a]
        pa = p[a]
        for b in range(n):
            if p[row[b]] != mult[p[b]][pa]:
                return False
    return True


def _involutions(mult):
    """The involutive permutations that are anti-automorphisms of ``mult``:
    every candidate star of the table, whatever the order."""
    return [p for p in _involutive_perms(len(mult)) if _anti_automorphic(mult, p)]


def semigroup_representatives(n: int, star_admitting: bool = False):
    """One table per isomorphism class of associative n*n tables, optionally
    restricted to the classes admitting an involutive anti-automorphism.
    The result is cached on (n, bool(star_admitting)), so every spelling of
    the same request returns the same tuple.

    With the restriction, the search runs once per involution in normal form,
    the transpositions (0 1)(2 3)...(2k-2 2k-1) with the other elements fixed,
    for k = 0..n//2: every involution is conjugate to one of these, so every
    class that admits one has a labeled table respecting a normal-form star.
    Each run visits only the tables its star respects.

    Each run (the one run without a star too) visits only the lex-leaders
    (see ``_assoc_tables``) under the centralizer of its star s: the
    relabelings p with p∘s = s∘p, all of them without a star. Such a p maps a
    table that respects s to one that does too, so the set the unpruned run
    visits is closed under the group, and the least table of each orbit in
    it is never cut: every class the unpruned run meets is still met.

    Only the tables the pruning cannot tell apart are keyed:

    - the run without a star and the identity-star run (the commutative
      tables) prune under all of Sym(n), so each visits exactly one table
      per class and keeps all of them;
    - a run with k >= 1 transpositions skips its commutative tables: the
      identity is an anti-automorphism of exactly those, so the
      identity-star run has kept their classes;
    - the other tables of those runs are keyed on the canonical encoding of
      ``_symmetry``, with one set of keys across the runs, since a class can
      admit involutions of several cycle types.

    No separate step fixes an idempotent at 0: the cell order starts at
    (0, 0) and every finite semigroup has an idempotent, so under the groups
    that move every element to 0 every lex-leader has 0 * 0 = 0. The tables
    are returned relabeled x -> n-1-x, sorted; the labels set how soon the
    order search of each table reaches its first model. The naive-oracle
    tests check the result class by class.
    """
    return _semigroup_representatives(n, bool(star_admitting))


@lru_cache(maxsize=16)
def _semigroup_representatives(n, star_admitting):
    identity = tuple(range(n))
    if star_admitting:  # k = 0 is the identity star
        stars = [tuple(x ^ 1 if x < 2 * k else x for x in identity) for k in range(n // 2 + 1)]
    else:
        stars = [None]
    kept = []
    seen = set()
    for star in stars:
        for mult in _assoc_tables(n, star, symmetries=_centralizer(star or identity)):
            if star in (None, identity):
                kept.append(mult)
            elif mult != tuple(zip(*mult)):  # not commutative
                key = _symmetry(mult)[0]
                if key not in seen:
                    seen.add(key)
                    kept.append(mult)
    reverse = identity[::-1]
    return tuple(sorted(_apply_perm_mult(mult, reverse, reverse) for mult in kept))


def _centralizer(star, perms=None):
    """The relabelings other than the identity that commute with ``star``,
    among ``perms`` (all of them by default): they map the tables respecting
    ``star`` onto tables respecting it."""
    n = len(star)
    return [p for p in (permutations(range(n)) if perms is None else perms)
            if all(p[star[x]] == star[p[x]] for x in range(n)) and p != tuple(range(n))]


# ---------------------------------------------------------------------------
# compatible order search

def _implied_pairs(mult, star):
    """For each ordered pair (p, q), the distinct pairs (u, v) that p <= q
    forces: (pc, qc) and (cp, cq) by compatibility, (p*, q*) by the star."""
    n = len(mult)
    out = [[()] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            if p != q:
                forced = [(mult[p][c], mult[q][c]) for c in range(n)]
                forced += [(mult[c][p], mult[c][q]) for c in range(n)]
                if star is not None:
                    forced.append((star[p], star[q]))
                out[p][q] = tuple(dict.fromkeys((u, v) for u, v in forced if u != v))
    return out


def _propagate(up, down, no, implied, a, b):
    """Force a <= b plus all consequences into the bitmask state, in place;
    False on conflict with decisions.

    ``up[x]`` holds every y with x <= y decided true, ``down[y]`` every x with
    x <= y, and ``no[x]`` every y with x <= y decided false, which includes the
    reverse of every decided strict pair (antisymmetry)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if up[x] >> y & 1:
            continue
        above = up[y]
        for p in BITS[down[x]]:  # transitivity: everything <= x falls below everything >= y
            new = above & ~up[p]
            if not new:
                continue
            if new & no[p]:
                return False
            up[p] |= new
            bit = 1 << p
            for q in BITS[new]:
                down[q] |= bit
                no[q] |= bit
                for u, v in implied[p][q]:
                    if not up[u] >> v & 1:
                        if no[u] >> v & 1:  # u <= v decided false
                            return False
                        stack.append((u, v))
    return True


def _compatible_order_stream(mult, star=None, require_greatest=False, require_least=False):
    """All partial orders making (mult, leq[, star]) order-compatible (and
    star order-preserving), as boolean matrices, in lexicographic order of
    the matrices (False before True, row by row).

    One search runs per root. With ``require_greatest`` a root is a candidate
    top t: it starts from x <= t forced for every x, with its propagated
    consequences, so t <= x is decided false for every x other than t. With
    ``require_least`` a root is a candidate bottom b, forced below every
    element, and with both a root is a pair (t, b). A root whose forcing
    conflicts is dropped. Without a requirement the one root is the empty
    state. Each search decides the pairs in row-major order, "not <=" before
    "<=" with its propagated consequences, so it yields its leaves in
    lexicographic order. Every order has one top and one bottom at most, so
    the roots partition the leaves, and merging their streams lazily yields
    exactly the orders with the required extremes, in the order the unrooted
    search yields them."""
    n = len(mult)
    implied = _implied_pairs(mult, star)
    full = (1 << n) - 1
    rows = _Memo(lambda mask: tuple(bool(mask >> j & 1) for j in range(n)))
    singletons = [1 << i for i in range(n)]

    def search(up, down, no):
        # the first leaf below a state decides every pair it leaves open
        # "not <=", which changes only ``no``: it is the state's ``up``, yielded
        # before the state branches. Each state on the stack owns its lists, so
        # its "not <=" branch goes on in place.
        stack = [(0, up, down, no)]
        while stack:
            i, up, down, no = stack.pop()
            yield tuple(map(rows.__getitem__, up))
            for i in range(i, n):
                rest = full & ~(up[i] | no[i])  # the undecided pairs of row i
                while rest:
                    bit = rest & -rest
                    # i <= j with its consequences, explored after "not <="
                    up2, down2, no2 = up[:], down[:], no[:]
                    if _propagate(up2, down2, no2, implied, i, bit.bit_length() - 1):
                        stack.append((i, up2, down2, no2))
                    no[i] |= bit
                    rest ^= bit

    def rooted(states, top):
        # each state once per candidate top (bottom) e: with x <= e (e <= x)
        # forced for every x, unless that conflicts
        out = []
        for up, down, no in states:
            for e in range(n):
                forced = [(x, e) if top else (e, x) for x in range(n)]
                up2, down2, no2 = up[:], down[:], no[:]
                if all(_propagate(up2, down2, no2, implied, a, b) for a, b in forced):
                    out.append((up2, down2, no2))
        return out

    roots = [(singletons, singletons[:], [0] * n)]
    if require_greatest:
        roots = rooted(roots, True)
    if require_least:
        roots = rooted(roots, False)
    yield from heapq.merge(*(search(*root) for root in roots))


def _filtered_orders(mult, star, nontrivial_auts, *, require_greatest, require_joins,
                     require_meets, require_join_distributivity):
    """The compatible order stream, minus orders that are not the least in
    their orbit under ``nontrivial_auts`` and orders failing a requirement."""
    # row x of the order relabeled by p is row p[x] read at p; an
    # automorphism is not the identity, so n >= 2 and each getter returns a tuple
    relabelings = [(p, itemgetter(*p)) for p in nontrivial_auts]
    # a finite order in which every pair has a meet has a least element, the
    # meet of all elements, so the meet tiers search from a bottom
    for leq in _compatible_order_stream(mult, star, require_greatest, require_meets):
        if relabelings and any(_relabeled_first(leq, p, get) for p, get in relabelings):
            continue
        if require_joins or require_meets or require_join_distributivity:
            record = _order_record(leq)
            if (require_joins or require_join_distributivity) and VEE in record.failed:
                continue  # a pair without a join
            if require_meets and WEDGE in record.failed:
                continue
            # the stream's orders are compatible partial orders, so only the
            # incomparable pairs can fail join-distributivity (``_model_checks``)
            if require_join_distributivity and next(_check_join_distributive(
                    mult, record.join_table, record.apart), None) is not None:
                continue
        yield leq


def _relabeled_first(leq, p, get) -> bool:
    """``_apply_perm_leq(leq, p) < leq``, with ``get = itemgetter(*p)``,
    compared row by row up to the first row that differs."""
    for x, row in enumerate(leq):
        image = get(leq[p[x]])
        if image != row:
            return image < row
    return False


def compatible_orders(mult, star=None, *, require_greatest=False, require_joins=False,
                      require_meets=False, require_join_distributivity=False,
                      dedupe=True) -> Iterator[tuple[tuple[bool, ...], ...]]:
    """Stream the partial orders compatible with a fixed multiplication table
    (and involution), optionally constrained, deduplicated up to the
    automorphisms of (mult, star), in lexicographic order. Without
    requirements the equality order is always compatible and comes first.
    With ``require_greatest`` (``require_meets``) the search runs from each
    candidate top (bottom). A table that is not square, an entry out of range
    or a star that is not n elements in range raise ``StructureError``."""
    mult = tuple(tuple(row) for row in mult)
    n = len(mult)
    mult = RawStructure(n=n, mult=mult, leq=equality_leq(n)).mult  # its table checks
    if star is not None:
        star = tuple(star)
        if len(star) != n or not all(isinstance(v, int) and 0 <= v < n for v in star):
            raise StructureError(f"star must be {n} elements of 0..{n - 1}, got {star!r}")
        # the unary operation must be an involutive anti-automorphism before
        # any order can make the triple valid; otherwise the stream is empty
        if any(star[star[x]] != x for x in range(n)) or not _anti_automorphic(mult, star):
            return
    # the group is sorted, so the identity comes first
    auts = automorphisms(mult, star=star)[1:] if dedupe else []
    yield from _filtered_orders(
        mult, star, auts, require_greatest=require_greatest,
        require_joins=require_joins, require_meets=require_meets,
        require_join_distributivity=require_join_distributivity)


# ---------------------------------------------------------------------------
# model enumeration

def enumerate_models(spec: ModelSpec) -> Iterator[OrderedAlgebra]:
    """Exactly one representative per isomorphism class of models with the
    requested tiers, the first ``spec.limit`` of them; deterministic order."""
    # a generator function, not the islice itself: a reader may close() the stream
    yield from islice(_models(spec.order, spec.required_tiers), spec.limit)


def _models(n, tiers):
    """The model stream of ``enumerate_models``, with no limit."""
    want_star = INVOLUTION in tiers
    for mult in semigroup_representatives(n, star_admitting=want_star):
        auts = automorphisms(mult)[1:]  # the group is sorted, so the identity comes first
        if want_star:
            # the least star of each conjugacy class under the automorphisms,
            # each with its stabilizer, the automorphisms of (mult, star)
            pairs = [(star, _centralizer(star, auts)) for star in _involutions(mult)
                     if not any(_apply_perm_star(star, p, _perm_inverse(p)) < star
                                for p in auts)]
        else:
            pairs = [(None, auts)]
        for star, stab in pairs:
            # the table and the star, checked once for every model of the pair
            pair = RawStructure(n=n, mult=mult, leq=equality_leq(n), star=star)
            pair_failed = _pair_failures(mult, star)
            for leq in _filtered_orders(
                    mult, star, stab, require_greatest=POE in tiers,
                    require_joins=VEE in tiers, require_meets=WEDGE in tiers,
                    require_join_distributivity=VEE in tiers):
                yield _finish_model(pair, leq, tiers, pair_failed)


def _finish_model(pair, leq, tiers, pair_failed):
    # the full tier set of the model: ``pair_failed`` holds the tiers that the
    # checks of (mult, star) failed, the record those that the order alone
    # fails, and the checks that read the model run here
    model = _accepted_structure(pair._with_order(leq), pair_failed, _order_record(leq))
    missing = tiers - model.tiers
    if missing:  # a bug in the search
        raise RuntimeError(f"enumerated model misses tiers {sorted(missing)}")
    return model


def collect_models(spec: ModelSpec) -> tuple[list[OrderedAlgebra], bool]:
    """Materialize the stream; the second component is False when the limit
    truncated it (the partial-stream marker)."""
    report, models = _sweep(spec, ())
    return list(models), report.complete


# ---------------------------------------------------------------------------
# counterexample sweep

@dataclass
class ClaimSweepStats:
    claim_id: str
    applicable: int = 0
    passes: int = 0
    vacuous_passes: int = 0
    failures: int = 0
    not_applicable: int = 0
    nonvacuous_instances: int = 0


@dataclass
class SweepReport:
    spec: ModelSpec
    claim_ids: tuple[str, ...]
    models_checked: int
    complete: bool
    stats: dict[str, ClaimSweepStats] = field(default_factory=dict)
    counterexample: Optional[tuple[OrderedAlgebra, ClaimReport]] = None

    @property
    def failed(self) -> bool:
        return self.counterexample is not None

    def never_nonvacuous(self) -> tuple[str, ...]:
        """Claims with zero non-vacuous instances over the whole sweep; their
        per-claim stats show whether the hypothesis was ever met."""
        return tuple(cid for cid in self.claim_ids
                     if self.stats[cid].nonvacuous_instances == 0)


def search_counterexample(spec: ModelSpec, claim_ids: Iterable[str]) -> SweepReport:
    """Sweep the model stream, stopping at the first model where any listed
    claim fails; otherwise summarize per-claim totals. No ids give an empty
    report."""
    report, models = _sweep(spec, claim_ids)
    if report.claim_ids:
        any(report.failed for _ in models)  # read up to the first counterexample
    return report


def _sweep(spec: ModelSpec,
           claim_ids: Iterable[str]) -> tuple[SweepReport, Iterator[OrderedAlgebra]]:
    """A report on ``claim_ids`` and the stream of ``spec`` that fills it: each
    model up to the limit is counted and, until the first counterexample,
    checked against the claims before it is yielded."""
    ids = expand_claim_ids(claim_ids)
    report = SweepReport(spec=spec, claim_ids=ids, models_checked=0, complete=True,
                         stats={cid: ClaimSweepStats(cid) for cid in ids})

    def models():
        # the stream is read past the limit: a model there tells a truncated
        # stream from an exact fit
        for seen, model in enumerate(_models(spec.order, spec.required_tiers)):
            if seen == spec.limit:
                report.complete = False  # partial-stream marker: the cap truncated
                return
            if not report.failed:
                report.models_checked += 1
                ctx = StructureAnalysis(model)
                for cid in ids:
                    rep = check_claim(model, cid, ctx)
                    st = report.stats[cid]
                    if rep.status == NOT_APPLICABLE:
                        st.not_applicable += 1
                        continue
                    st.applicable += 1
                    st.nonvacuous_instances += rep.instances_checked
                    if rep.status == PASS:
                        st.passes += 1
                        if rep.vacuous:
                            st.vacuous_passes += 1
                    else:
                        st.failures += 1
                        if report.counterexample is None:
                            report.counterexample = (model, rep)
                            report.complete = False
            yield model

    return report, models()


# ---------------------------------------------------------------------------
# catalog persistence

def write_catalog(models: Iterable[OrderedAlgebra], outdir) -> list[str]:
    """One structure file per model plus index.txt with canonical digests,
    each written as its model arrives."""
    os.makedirs(outdir, exist_ok=True)
    names = []
    with open(os.path.join(outdir, "index.txt"), "w", encoding="utf-8") as index:
        for k, model in enumerate(models, start=1):
            name = f"model_{k:04d}.txt"
            with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
                fh.write(serialize_structure(model))
            index.write(f"{name} {canonical_form(model).digest}\n")
            names.append(name)
        if not names:
            index.write("\n")  # the index of an empty catalog is one empty line
    return names
