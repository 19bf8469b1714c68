"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results from definitions (upper-bound
scans, full generate-filter-dedupe enumeration) so the library's faster paths
are checked against something they do not share code with.
"""

import random
from itertools import permutations, product

from starsemi import (
    ALL_TIERS, INVOLUTION, PO_GROUPOID, POE, RawStructure, check_all, get_claim, load_structure,
    random_models, validate_structure,
)
from starsemi.claims import CONDITIONS, _lookup
from starsemi.structure import equality_leq, reflexive_transitive_closure

from conftest import STRUCTURES

EXAMPLE2_MULT = (
    (0, 0, 0, 0, 0),
    (0, 1, 0, 3, 0),
    (0, 4, 2, 2, 4),
    (0, 1, 3, 3, 1),
    (0, 4, 0, 2, 0),
)
EXAMPLE2_STAR = (0, 2, 1, 3, 4)
EXAMPLE2_LABELS = ("a", "b", "c", "d", "f")


def mk(mult, pairs=None, star=None, labels=None):
    """Build and validate a structure from a table and order generating pairs."""
    n = len(mult)
    leq = reflexive_transitive_closure(n, pairs or ())
    return validate_structure(RawStructure(
        n=n, mult=tuple(map(tuple, mult)), leq=leq,
        star=tuple(star) if star is not None else None,
        labels=labels))


def example2(star=EXAMPLE2_STAR, pairs=None):
    return mk(EXAMPLE2_MULT, pairs=pairs, star=star, labels=EXAMPLE2_LABELS)


def chain2():
    """Two-chain 0 <= e with xy = 0 except ee = e, identity star."""
    return mk(((0, 0), (0, 1)), pairs=((0, 1),), star=(0, 1))


def one_point():
    return mk(((0,),), star=(0,))


def diamond_constant():
    """Diamond order (0 < 1, 2 < 3, 1 and 2 incomparable) with constant
    multiplication, which is compatible with any order."""
    return mk(((0,) * 4,) * 4, pairs=((0, 1), (0, 2), (1, 3), (2, 3)))


def relabel(raw, p):
    """``raw`` with new label i for old element p[i]."""
    n = raw.n
    pinv = [0] * n
    for i, x in enumerate(p):
        pinv[x] = i
    rng = range(n)
    return RawStructure(
        n=n, mult=tuple(tuple(pinv[raw.mult[p[x]][p[y]]] for y in rng) for x in rng),
        leq=tuple(tuple(raw.leq[p[x]][p[y]] for y in rng) for x in rng),
        star=None if raw.star is None else tuple(pinv[raw.star[p[x]]] for x in rng))


def with_relabelings(raws, seed, copies=2):
    rng = random.Random(seed)
    out = []
    for raw in raws:
        out.append(raw)
        for _ in range(copies):
            p = list(range(raw.n))
            rng.shuffle(p)
            out.append(relabel(raw, p))
    return out


def scan_join(S, a, b):
    """Definition-level LUB scan, independent of the cached tables."""
    ubs = [u for u in S.elements() if S.le(a, u) and S.le(b, u)]
    least = [u for u in ubs if all(S.le(u, v) for v in ubs)]
    return least[0] if len(least) == 1 else None


def scan_meet(S, a, b):
    lbs = [u for u in S.elements() if S.le(u, a) and S.le(u, b)]
    greatest = [u for u in lbs if all(S.le(v, u) for v in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def oracle_bounds_tables(leq):
    """Join and meet tables of an arbitrary relation matrix, each entry the
    unique least upper (greatest lower) bound by definition, else None."""
    n = len(leq)

    def unique(found):
        return found[0] if len(found) == 1 else None

    join_t, meet_t = [], []
    for a in range(n):
        join_row, meet_row = [], []
        for b in range(n):
            upper = [u for u in range(n) if leq[a][u] and leq[b][u]]
            join_row.append(unique([u for u in upper if all(leq[u][v] for v in upper)]))
            lower = [u for u in range(n) if leq[u][a] and leq[u][b]]
            meet_row.append(unique([u for u in lower if all(leq[v][u] for v in lower)]))
        join_t.append(tuple(join_row))
        meet_t.append(tuple(meet_row))
    return tuple(join_t), tuple(meet_t)


def oracle_star_on_bounds(S):
    """(guard, ok) of Proposition 5 on S from its definition: bit a*n + b of
    guard is set where a v b or a ^ b exists, and of ok where besides
    (a v b)* = a* v b* wherever a v b exists and (a ^ b)* = a* ^ b* wherever
    a ^ b exists, every bound found by scanning the raw order."""
    n, star = S.n, S.raw.star
    guard = ok = 0
    for a in range(n):
        for b in range(n):
            bounds = [(scan(S, a, b), scan(S, star[a], star[b])) for scan in (scan_join, scan_meet)]
            existing = [(u, v) for u, v in bounds if u is not None]
            if existing:
                guard |= 1 << a * n + b
                if all(star[u] == v for u, v in existing):
                    ok |= 1 << a * n + b
    return guard, ok


def greatest_element(leq):
    """The first t with u <= t for every u, else None."""
    for t in range(len(leq)):
        if all(row[t] for row in leq):
            return t
    return None


def oracle_order_views(S):
    """(up masks, down masks, greatest element) of a validated structure, by
    definition: bit u of entry a is set when a <= u (u <= a), and there is
    no greatest element unless the po-groupoid tier is accepted."""
    leq, n = S.leq, S.n
    up = tuple(sum(1 << u for u in range(n) if leq[a][u]) for a in range(n))
    down = tuple(sum(1 << u for u in range(n) if leq[u][a]) for a in range(n))
    return up, down, greatest_element(leq) if PO_GROUPOID in S.tiers else None


def all_posets(n):
    """Every reflexive-antisymmetric-transitive boolean matrix on n elements,
    by brute force over the off-diagonal cells."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                leq[i][j] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if a != b and leq[a][b] and leq[b][a]:
                    ok = False
                if leq[a][b]:
                    for c in range(n):
                        if leq[b][c] and not leq[a][c]:
                            ok = False
        if ok:
            yield tuple(map(tuple, leq))


def brute_associative_tables(n):
    """Unpruned generate-then-filter enumeration (tiny n only)."""
    rng = range(n)
    for values in product(rng, repeat=n * n):
        mult = tuple(tuple(values[i * n + j] for j in rng) for i in rng)
        if all(mult[mult[a][b]][c] == mult[a][mult[b][c]]
               for a in rng for b in rng for c in rng):
            yield mult
    return


def involutive_perms(n):
    return [p for p in permutations(range(n)) if all(p[p[x]] == x for x in range(n))]


def anti_automorphic(mult, p):
    """(ab)p = (bp)(ap) for every a, b, by direct scan."""
    n = len(mult)
    return all(p[mult[a][b]] == mult[p[b]][p[a]] for a in range(n) for b in range(n))


def admits_involution(mult):
    return any(anti_automorphic(mult, p) for p in involutive_perms(len(mult)))


def search_walk(n, star=None):
    """The cells of an n*n table in the order the table search fills them:
    block t is row t of the subtable on 0..t, then its column t above the
    diagonal; each cell is followed by its partner (j*, i*) under ``star``
    when that is a cell not met before."""
    walk = []
    for t in range(n):
        for i, j in [(t, j) for j in range(t + 1)] + [(i, t) for i in range(t)]:
            for cell in ((i, j),) if star is None else ((i, j), (star[j], star[i])):
                if cell not in walk:
                    walk.append(cell)
    return walk


def commuting_perms(n, star=None):
    """Every permutation but the identity that commutes with ``star`` (every
    one when ``star`` is None)."""
    return [p for p in permutations(range(n))
            if p != tuple(range(n))
            and (star is None or all(p[star[x]] == star[p[x]] for x in range(n)))]


def lex_leader(mult, walk, group):
    """True when no table relabeled by a p in ``group`` (the product x y
    becoming p(x) p(y) = p(xy)) comes before ``mult``, both read cell by
    cell in ``walk`` order."""
    n = len(mult)
    mine = [mult[i][j] for i, j in walk]
    for p in group:
        image = [[None] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                image[p[x]][p[y]] = p[mult[x][y]]
        if [image[i][j] for i, j in walk] < mine:
            return False
    return True


def _relabeled_bytes(n, mult, leq, star, p):
    """(mult, leq, star) relabeled by p (new label -> old element), as bytes."""
    pinv = [0] * n
    for i, x in enumerate(p):
        pinv[x] = i
    body = [n]
    body += [pinv[mult[p[x]][p[y]]] for x in range(n) for y in range(n)]
    if leq is not None:
        body += [1 if leq[p[x]][p[y]] else 0 for x in range(n) for y in range(n)]
    if star is None:
        body.append(0xFF)
    else:
        body += [0xFE] + [pinv[star[p[x]]] for x in range(n)]
    return bytes(body)


def brute_canonical_form(S):
    """The least relabeled encoding over all n! relabelings (order <= 8)."""
    raw = getattr(S, "raw", S)
    n = raw.n
    return min(_relabeled_bytes(n, raw.mult, raw.leq, raw.star, p)
               for p in permutations(range(n)))


def brute_automorphisms(mult, leq=None, star=None):
    """Every permutation p with p[xy] = p[x]p[y], x <= y iff p[x] <= p[y]
    and p[x*] = p[x]*, in lexicographic order, by trying all n!."""
    n = len(mult)
    rng = range(n)
    return [p for p in permutations(rng)
            if all(p[mult[x][y]] == mult[p[x]][p[y]] for x in rng for y in rng)
            and (leq is None or all(bool(leq[x][y]) == bool(leq[p[x]][p[y]])
                                    for x in rng for y in rng))
            and (star is None or all(p[star[x]] == star[p[x]] for x in rng))]


def star_admitting_class_forms(n):
    """Canonical forms (equality order, no star) of the isomorphism classes
    of associative tables admitting an involutive anti-automorphism, by
    brute-force generate-filter-dedupe (tiny n only)."""
    eq = equality_leq(n)
    return {brute_canonical_form(RawStructure(n=n, mult=mult, leq=eq))
            for mult in brute_associative_tables(n) if admits_involution(mult)}


def naive_model_forms(n, require_involution=True, require_greatest=True):
    """Canonical forms of ALL valid models of order n by full
    generate-filter-dedupe; the independent completeness oracle."""
    forms = set()
    posets = list(all_posets(n))
    stars = involutive_perms(n)
    for mult in brute_associative_tables(n):
        for leq in posets:
            compatible = all(
                not leq[a][b] or (leq[mult[a][c]][mult[b][c]] and leq[mult[c][a]][mult[c][b]])
                for a in range(n) for b in range(n) for c in range(n))
            if not compatible:
                continue
            if require_greatest and greatest_element(leq) is None:
                continue
            if require_involution:
                for star in stars:
                    if not anti_automorphic(mult, star):
                        continue
                    if any(leq[a][b] and not leq[star[a]][star[b]]
                           for a in range(n) for b in range(n)):
                        continue
                    raw = RawStructure(n=n, mult=mult, leq=leq, star=star)
                    forms.add(brute_canonical_form(raw))
            else:
                forms.add(brute_canonical_form(RawStructure(n=n, mult=mult, leq=leq)))
    return forms


def oracle_filter_saturation(S, x):
    """The members of the filter generated by x, by the set-based
    saturation: each pass adds the products of the members, then the up-sets
    of the result, then sweeps the table row by row, adding a and b whenever
    ab is in the set as it stands at that cell, until a pass changes nothing.
    Reads only the raw tables."""
    n, mult, leq = S.raw.n, S.raw.mult, S.raw.leq
    members = {x}
    while True:
        new = set(members)
        for a in members:
            for b in members:
                new.add(mult[a][b])
        for a in tuple(new):
            new.update(b for b in range(n) if leq[a][b])
        for a in range(n):
            for b in range(n):
                if mult[a][b] in new:
                    new.add(a)
                    new.add(b)
        if new == members:
            return frozenset(members)
        members = new


def oracle_filter_intersection(S, x):
    """The intersection of every nonempty filter containing x, by testing
    each subset that holds x as a set against the three filter rules: it
    is closed under products, holds a and b whenever it holds ab, and holds
    every element above a member. Reads only the raw tables."""
    n, mult, leq = S.raw.n, S.raw.mult, S.raw.leq
    out = set(range(n))  # the whole structure is a filter
    for mask in range(1, 1 << n):
        members = {i for i in range(n) if mask >> i & 1}
        if x not in members or out <= members:
            continue
        products = {mult[a][b] for a in members for b in members}
        divisors = {c for a in range(n) for b in range(n) if mult[a][b] in members
                    for c in (a, b)}
        above = {b for a in members for b in range(n) if leq[a][b]}
        if products | divisors | above <= members:
            out &= members
    return frozenset(out)


def oracle_thm26_set(S, x):
    """{y | x <= e y* e} from the raw tables, with e found by scanning for
    the element above every element."""
    raw = S.raw
    n, mult, leq, star = raw.n, raw.mult, raw.leq, raw.star
    e = next(t for t in range(n) if all(leq[a][t] for a in range(n)))
    return frozenset(y for y in range(n) if leq[x][mult[mult[e][star[y]]][e]])


def oracle_classify(S):
    """Per element, a dict of the element-level flags decided from the raw
    tables and definition-level meet scans: the ideal inequalities against
    e (the greatest element), semiprimality by trying every t, and the
    starred variants (None without the involution tier)."""
    raw = S.raw
    n, mult, leq = raw.n, raw.mult, raw.leq
    e = next(t for t in range(n) if all(leq[a][t] for a in range(n)))
    star = raw.star if "involution" in S.tiers else None

    def below(x, a):
        return leq[x][a]

    def quasi(x, y, a):
        m = scan_meet(S, x, y)
        return None if m is None else below(m, a)

    out = []
    for a in range(n):
        ae, ea = mult[a][e], mult[e][a]
        flags = {
            "element": a,
            "idempotent": mult[a][a] == a,
            "left_ideal": below(ea, a),
            "right_ideal": below(ae, a),
            "two_sided_ideal": below(ea, a) and below(ae, a),
            "quasi_ideal": quasi(ae, ea, a),
            "bi_ideal": below(mult[ae][a], a),
            "semiprime": all(below(t, a) for t in range(n) if below(mult[t][t], a)),
        }
        for name in ("star_left", "star_right", "star_quasi", "star_bi", "star_semiprime"):
            flags[name] = None
        if star is not None:
            c = star[a]
            ce, ec = mult[c][e], mult[e][c]
            flags.update(
                star_left=below(ec, a),
                star_right=below(ce, a),
                star_quasi=quasi(ce, ec, a),
                star_bi=below(mult[ce][c], a),
                star_semiprime=all(below(t, a) for t in range(n)
                                   if below(mult[star[t]][star[t]], a)),
            )
        out.append(flags)
    return out


def oracle_violations(raw):
    """(tier, axiom, witness) of every failing axiom instance of ``raw``, in
    the order validate_structure reports them, by scanning each axiom
    instance by instance; bounds come from ``oracle_bounds_tables``."""
    n, mult, leq, star = raw.n, raw.mult, raw.leq, raw.star
    rng = range(n)
    join_t, meet_t = oracle_bounds_tables(leq)
    out = [("po-groupoid", "order-reflexive", (a,)) for a in rng if not leq[a][a]]
    out += [("po-groupoid", "order-antisymmetric", (a, b)) for a in rng for b in rng
            if a != b and leq[a][b] and leq[b][a]]
    out += [("po-groupoid", "order-transitive", (a, b, c)) for a in rng for b in rng
            for c in rng if leq[a][b] and leq[b][c] and not leq[a][c]]
    for a in rng:
        for b in rng:
            if leq[a][b]:
                for c in rng:
                    if not leq[mult[a][c]][mult[b][c]]:
                        out.append(("po-groupoid", "compat-right", (a, b, c)))
                    if not leq[mult[c][a]][mult[c][b]]:
                        out.append(("po-groupoid", "compat-left", (a, b, c)))
    out += [("po-semigroup", "associative", (a, b, c)) for a in rng for b in rng for c in rng
            if mult[mult[a][b]][c] != mult[a][mult[b][c]]]
    tops = [t for t in rng if all(leq[a][t] for a in rng)]
    if not tops:
        maximal = [a for a in rng if all(a == b or not leq[a][b] for b in rng)]
        out.append(("poe", "greatest-element", tuple(maximal[:2])))
    missing_joins = [(a, b) for a in rng for b in rng if join_t[a][b] is None]
    out += [("vee", "join-exists", w) for w in missing_joins]
    if not missing_joins:
        for a in rng:
            for b in rng:
                j = join_t[a][b]
                for c in rng:
                    if join_t[mult[a][c]][mult[b][c]] != mult[j][c]:
                        out.append(("vee", "join-distributive-right", (a, b, c)))
                    if join_t[mult[c][a]][mult[c][b]] != mult[c][j]:
                        out.append(("vee", "join-distributive-left", (a, b, c)))
    out += [("wedge", "meet-exists", (a, b)) for a in rng for b in rng if meet_t[a][b] is None]
    if star is None:
        out.append(("involution", "operation-present", ()))
    else:
        out += [("involution", "involutive", (a,)) for a in rng if star[star[a]] != a]
        out += [("involution", "anti-homomorphism", (a, b)) for a in rng for b in rng
                if star[mult[a][b]] != mult[star[b]][star[a]]]
        out += [("involution", "order-preserving", (a, b)) for a in rng for b in rng
                if leq[a][b] and not leq[star[a]][star[b]]]
    prereqs = {"po-groupoid": (), "po-semigroup": ("po-groupoid",), "poe": ("po-groupoid",),
               "vee": ("po-groupoid", "poe"), "wedge": ("po-groupoid",), "le": ("vee", "wedge"),
               "involution": ("po-groupoid",)}
    failed = {tier for tier, _, _ in out}
    accepted = set()
    for tier in prereqs:  # prerequisite order
        if tier in failed:
            continue
        if all(p in accepted for p in prereqs[tier]):
            accepted.add(tier)
        else:
            out.append((tier, "prerequisite", ()))
    return out


def oracle_table_facts(S):
    """The table facts of S from their definitions, from the raw tables:
    the divisors {a, b} and the binding a*n + b of each product value ab,
    each square a a, and, with a top e, the products of each a with e and
    the pairs where e a b e equals e b a e and where it equals e b* a* e.
    The top is found by scanning for the element above every element; None
    fields as in ``_TableFacts``."""
    raw = S.raw
    n, mult, leq, star = raw.n, raw.mult, raw.leq, raw.star
    rng = range(n)
    facts = {
        "divisors": tuple(sum(1 << d for d in rng
                              if any(mult[d][b] == v or mult[b][d] == v for b in rng))
                          for v in rng),
        "value_pairs": tuple(sum(1 << a * n + b for a in rng for b in rng if mult[a][b] == v)
                             for v in rng),
        "aa": tuple(mult[a][a] for a in rng),
    }
    names = ("ea", "ae", "eae", "aea", "eaae", "reversal", "star_reversal")
    facts.update(dict.fromkeys(names))
    if S.e is None:
        return facts
    e = next(t for t in rng if all(leq[a][t] for a in rng))

    def prod(*xs):
        out = xs[0]
        for x in xs[1:]:
            out = mult[out][x]
        return out

    facts.update(
        ea=tuple(prod(e, a) for a in rng), ae=tuple(prod(a, e) for a in rng),
        eae=tuple(prod(e, a, e) for a in rng), aea=tuple(prod(a, e, a) for a in rng),
        eaae=tuple(prod(e, a, a, e) for a in rng),
        reversal=sum(1 << a * n + b for a in rng for b in rng
                     if prod(e, a, b, e) == prod(e, b, a, e)))
    if star is not None:
        facts["star_reversal"] = sum(1 << a * n + b for a in rng for b in rng
                                     if prod(e, a, b, e) == prod(e, star[b], star[a], e))
    return facts


def reference_check(S, claim_id, ctx):
    """(status, reason, instances, witness, vacuous) of one claim or mutant
    by the dispatch the registry describes, each step written out: the tier
    subset test, then every body of the claim's condition, then its body.
    Each body is called directly, and the witness is the first binding in
    lexicographic order that is an instance and fails."""
    claim = get_claim(claim_id)
    if not claim.requires_tiers <= S.tiers:
        missing = [t for t in ALL_TIERS if t in claim.requires_tiers and t not in S.tiers]
        return "not-applicable", "missing tier(s): " + ", ".join(missing), 0, None, False
    if claim.condition is not None:
        for body in CONDITIONS[claim.condition]:
            _, guard, ok = body(ctx)
            if guard & ~ok:
                return "not-applicable", f"hypothesis not met: {claim.condition}", 0, None, False
    arity, guard, ok = _lookup(claim_id).body(ctx)
    bindings = list(product(range(S.n), repeat=arity))
    instances = [i for i in range(len(bindings)) if guard >> i & 1]
    failing = [i for i in instances if not ok >> i & 1]
    if failing:
        return "fail", "", len(instances), bindings[failing[0]], False
    return "pass", "", len(instances), None, not instances


def kept_fact_raws(catalog):
    """The structures on which a structure's kept facts are compared cold
    and warm: the models of ``catalog`` (many share an order or a table),
    the shipped structure files, and 60 random {involution, poe} models of
    order at most 8."""
    raws = [S.raw for S in catalog]
    raws += [load_structure(path) for path in sorted(STRUCTURES.glob("*.txt"))]
    raws += [S.raw for S in random_models(60, 8, (INVOLUTION, POE), seed=20261021)]
    return raws


def cold_and_warm(raw, facts):
    """(S, facts(S), facts(T)) for two fresh structures S and T validated
    from ``raw``: S is read first, so what it keeps is built by ``facts``; T
    only after every claim has been checked on it, so the claim analysis
    built what T keeps."""
    cold = validate_structure(raw)[0]
    got = facts(cold)
    warm = validate_structure(raw)[0]
    check_all(warm)
    return cold, got, facts(warm)
