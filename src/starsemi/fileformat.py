"""Line-oriented text format for structures.

Layout::

    # comment (anywhere; rest of line ignored)
    n 5                       # at most MAX_ORDER
    labels a b c d f          # optional, before the sections below; defaults to 0..n-1
    mult                      # n rows of n whitespace-separated labels
    a a a a a
    ...
    leq                       # optional; pairs, reflexive-transitively closed
    a <= b
    star                      # optional; pairs, unlisted elements fixed
    b -> c

The ``leq`` section lists generating pairs only: the parser applies the
reflexive-transitive closure and rejects cycles (antisymmetry violations)
with a witness. The serializer emits the transitive reduction.
"""

from __future__ import annotations

from typing import Optional, Union

from .structure import (
    MAX_ORDER,
    OrderedAlgebra,
    RawStructure,
    StructureError,
    _SECTION_KEYWORDS,
    antisymmetry_witness,
    reflexive_transitive_closure,
    transitive_reduction_pairs,
)


# the sections that may follow the first line, each ending a pair section
_SECTIONS = _SECTION_KEYWORDS[1:]


class FormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, source: str = "<string>"):
        self.line = line
        self.source = source
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")


def _logical_lines(text: str):
    for i, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield i, body.split()


def parse_structure(text: str, source: str = "<string>") -> RawStructure:
    """Parse the text format into a RawStructure (order closure applied)."""
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty structure file", None, source)

    pos = 0
    lineno, tokens = lines[pos]
    if tokens[0] != "n" or len(tokens) != 2:
        raise FormatError("first line must be 'n <count>'", lineno, source)
    try:
        n = int(tokens[1])
    except ValueError:
        raise FormatError(f"bad element count {tokens[1]!r}", lineno, source) from None
    if n < 1:
        raise FormatError(f"element count must be positive, got {n}", lineno, source)
    if n > MAX_ORDER:
        raise FormatError(f"element count must be at most {MAX_ORDER}, got {n}", lineno, source)
    pos += 1

    labels: Optional[list[str]] = None
    # the labels that name the elements: the default 0..n-1 until a labels
    # section, which must come before every section that names elements
    names = [str(i) for i in range(n)]
    mult: Optional[list[list[int]]] = None
    leq_pairs: list[tuple[int, int]] = []
    leq_line: Optional[int] = None
    star: Optional[list[int]] = None
    seen: set[str] = set()

    def index_of(tok: str, lineno: int) -> int:
        try:
            return names.index(tok)
        except ValueError:
            raise FormatError(f"unknown element label {tok!r}", lineno, source) from None

    while pos < len(lines):
        lineno, tokens = lines[pos]
        key = tokens[0]
        if key in seen:
            raise FormatError(f"duplicate section {key!r}", lineno, source)
        if key == "labels":
            if seen & {"mult", "leq", "star"}:
                raise FormatError("labels must come before mult, leq and star", lineno, source)
            if len(tokens) != n + 1:
                raise FormatError(f"expected {n} labels, got {len(tokens) - 1}", lineno, source)
            labels = tokens[1:]
            if len(set(labels)) != n:
                raise FormatError("labels must be distinct", lineno, source)
            for lab in labels:
                if lab in _SECTION_KEYWORDS:
                    raise FormatError(f"label {lab!r} collides with a section keyword", lineno, source)
            names = labels
            seen.add(key)
            pos += 1
        elif key == "mult":
            if len(tokens) != 1:
                raise FormatError("'mult' takes no arguments", lineno, source)
            seen.add(key)
            pos += 1
            mult = []
            for _ in range(n):
                if pos >= len(lines):
                    raise FormatError(f"mult table needs {n} rows, got {len(mult)}", lineno, source)
                rlineno, row = lines[pos]
                if len(row) != n:
                    raise FormatError(f"mult row has {len(row)} entries, expected {n}", rlineno, source)
                mult.append([index_of(t, rlineno) for t in row])
                pos += 1
        elif key == "leq":
            seen.add(key)
            leq_line = lineno
            pos += 1
            while pos < len(lines) and lines[pos][1][0] not in _SECTIONS:
                plineno, ptok = lines[pos]
                if len(ptok) != 3 or ptok[1] != "<=":
                    raise FormatError("expected 'x <= y'", plineno, source)
                leq_pairs.append((index_of(ptok[0], plineno), index_of(ptok[2], plineno)))
                pos += 1
        elif key == "star":
            seen.add(key)
            pos += 1
            star = list(range(n))
            listed: set[int] = set()
            while pos < len(lines) and lines[pos][1][0] not in _SECTIONS:
                plineno, ptok = lines[pos]
                if len(ptok) != 3 or ptok[1] != "->":
                    raise FormatError("expected 'x -> y'", plineno, source)
                x = index_of(ptok[0], plineno)
                if x in listed:
                    raise FormatError(f"element {ptok[0]!r} mapped twice in star", plineno, source)
                listed.add(x)
                star[x] = index_of(ptok[2], plineno)
                pos += 1
        else:
            raise FormatError(f"unknown section {key!r}", lineno, source)

    if mult is None:
        raise FormatError("missing mult section", None, source)
    leq = reflexive_transitive_closure(n, leq_pairs)
    cyc = antisymmetry_witness(leq)
    if cyc is not None:
        a, b = cyc
        raise FormatError(
            f"leq contains a cycle: {names[a]} <= {names[b]} and {names[b]} <= {names[a]}",
            leq_line, source)
    try:
        return RawStructure(n=n, mult=tuple(map(tuple, mult)), leq=leq,
                            star=tuple(star) if star is not None else None,
                            labels=tuple(labels) if labels is not None else None)
    except StructureError as exc:
        raise FormatError(str(exc), None, source) from exc


def load_structure(path) -> RawStructure:
    with open(path, encoding="utf-8") as fh:
        return parse_structure(fh.read(), source=str(path))


def serialize_structure(struct: Union[RawStructure, OrderedAlgebra]) -> str:
    """Render a structure back to the text format (leq as transitive reduction)."""
    raw = struct.raw if isinstance(struct, OrderedAlgebra) else struct
    lab = [raw.label(i) for i in range(raw.n)]
    out = [f"n {raw.n}", "labels " + " ".join(lab), "mult"]
    for row in raw.mult:
        out.append(" ".join(lab[v] for v in row))
    pairs = transitive_reduction_pairs(raw.leq)
    if pairs:
        out.append("leq")
        out.extend(f"{lab[a]} <= {lab[b]}" for a, b in pairs)
    if raw.star is not None:
        out.append("star")
        out.extend(f"{lab[x]} -> {lab[raw.star[x]]}" for x in range(raw.n))
    return "\n".join(out) + "\n"
