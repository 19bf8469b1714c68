"""Command-line front end.

Subcommands: validate, classify, check, filters, search, orders. Exit codes:
0 success / no counterexample, 1 claim failure or axiom violation found,
2 usage or parse error. ``--json`` switches every subcommand to one
machine-readable JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import Optional

from . import __version__
from .claims import (
    FAIL, NOT_APPLICABLE, StructureAnalysis, check_claim, expand_claim_ids, report_record,
)
from .enumeration import ModelSpec, _sweep, compatible_orders, write_catalog
from .fileformat import FormatError, load_structure, serialize_structure
from .filters import filter_generated, n_class_partition, thm26_set
from .ideals import ElementClassification, classify_all
from .regularity import regularity_profile
from .structure import (
    ALL_TIERS, INVOLUTION, PO_GROUPOID, StructureError,
    tier_closure, transitive_reduction_pairs, validate_structure,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


class _Failure(Exception):
    """Carries a message and the wanted exit code out of a subcommand."""

    def __init__(self, message: str, code: int = EXIT_FINDING):
        super().__init__(message)
        self.code = code


def _load_raw(path):
    try:
        return load_structure(path)
    except FileNotFoundError:
        raise _Failure(f"no such file: {path}", EXIT_USAGE) from None
    except (FormatError, StructureError) as exc:
        raise _Failure(str(exc), EXIT_USAGE) from None


def _load(path):
    return validate_structure(_load_raw(path))


def _parse_tiers(text: str) -> frozenset[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise _Failure(f"no tier named in {text!r}", EXIT_USAGE)
    for t in names:
        if t not in ALL_TIERS:
            raise _Failure(
                f"unknown tier {t!r} (known: {', '.join(ALL_TIERS)})", EXIT_USAGE)
    return tier_closure(names)


def _flag(value: Optional[bool]) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def _cmd_validate(args, out):
    if args.max_witnesses < 0:
        raise _Failure("max-witnesses must be >= 0", EXIT_USAGE)
    S, report = _load(args.file)
    expected = _parse_tiers(args.expect) if args.expect is not None else frozenset({PO_GROUPOID})
    missing = sorted(expected - report.accepted)
    if args.json:
        doc = {
            "command": "validate",
            "file": str(args.file),
            "tiers": sorted(report.accepted),
            "greatest": S.label(S.e) if S.e is not None else None,
            "violations": [
                {"tier": v.tier, "axiom": v.axiom,
                 "witness": [S.label(x) for x in v.witness], "message": v.message}
                for v in report.violations
            ],
            "expected_missing": missing,
        }
        out(json.dumps(doc, indent=2))
    else:
        out(f"structure: {args.file} (order {S.n})")
        out("tiers accepted: " + (", ".join(t for t in ALL_TIERS if t in report.accepted) or "none"))
        if S.e is not None:
            out(f"greatest element: {S.label(S.e)}")
        rejected = [t for t in ALL_TIERS if t not in report.accepted]
        for tier in rejected:
            vs = report.violations_for(tier)
            out(f"tier {tier} rejected ({len(vs)} violation(s)):")
            for v in vs[: args.max_witnesses]:
                out("  " + v.render(S.raw))
            if len(vs) > args.max_witnesses:
                out(f"  ... {len(vs) - args.max_witnesses} more")
        if missing:
            out("MISSING expected tier(s): " + ", ".join(missing))
    return EXIT_FINDING if missing else EXIT_OK


def _cmd_classify(args, out):
    S, report = _load(args.file)
    if S.e is None:
        raise _Failure("classification needs a structure with a greatest element "
                       "(poe tier not attained)")
    classes = classify_all(S)
    profile = regularity_profile(S)
    if args.json:
        doc = {
            "command": "classify",
            "file": str(args.file),
            "elements": [
                {"element": S.label(c.element),
                 **{name: getattr(c, name) for name in ElementClassification.FLAG_NAMES}}
                for c in classes
            ],
            "profile": {
                "regular": profile.regular,
                "intra_regular": profile.intra_regular,
                "star_regular": profile.star_regular,
                "star_intra_regular": profile.star_intra_regular,
            },
        }
        out(json.dumps(doc, indent=2))
        return EXIT_OK
    names = ElementClassification.FLAG_NAMES
    width = max(len("element"), *(len(S.label(x)) for x in S.elements())) + 2
    out("element".ljust(width) + "  ".join(names))
    for c in classes:
        cells = [_flag(getattr(c, name)).ljust(len(name)) for name in names]
        out(S.label(c.element).ljust(width) + "  ".join(cells))
    out("structure: regular=%s intra-regular=%s *-regular=%s *-intra-regular=%s" % (
        _flag(profile.regular), _flag(profile.intra_regular),
        _flag(profile.star_regular), _flag(profile.star_intra_regular)))
    return EXIT_OK


def _select_claims(text: str):
    try:
        ids = expand_claim_ids(t for t in text.split(","))
    except ValueError as exc:
        raise _Failure(str(exc), EXIT_USAGE) from None
    if not ids:
        raise _Failure(f"no claim selected by --claims {text!r}", EXIT_USAGE)
    return ids


def _cmd_check(args, out):
    S, _ = _load(args.file)
    ids = _select_claims(args.claims)
    ctx = StructureAnalysis(S)
    reports = [check_claim(S, cid, ctx) for cid in ids]
    if args.json:
        out(json.dumps({"command": "check", "file": str(args.file),
                        "reports": [report_record(r, S) for r in reports]}, indent=2))
    else:
        for r in reports:
            line = f"{r.claim_id:22s} {r.status}"
            if r.status == NOT_APPLICABLE:
                line += f"  ({r.reason})"
            elif r.status == FAIL:
                rec = report_record(r, S)
                line += "  witness " + ", ".join(f"{k}={v}" for k, v in rec["witness"].items())
            else:
                line += f"  instances={r.instances_checked}"
                if r.vacuous:
                    line += " (vacuous)"
            out(line)
    return EXIT_FINDING if any(r.status == FAIL for r in reports) else EXIT_OK


def _cmd_filters(args, out):
    S, _ = _load(args.file)
    if "po-semigroup" not in S.tiers:
        raise _Failure("filters need an associative structure (po-semigroup tier)")
    # one saturation per element: the rows and the classes share the filters
    # that S keeps
    has_window = S.has(INVOLUTION) and S.e is not None
    rows = [{"element": S.label(x),
             "filter": sorted(S.label(y) for y in filter_generated(S, x).members),
             "window": sorted(S.label(y) for y in thm26_set(S, x)) if has_window else None}
            for x in S.elements()]
    part = n_class_partition(S)
    blocks = [{"members": sorted(S.label(y) for y in blk),
               "greatest": S.label(g) if g is not None else None}
              for blk, g in zip(part.blocks, part.block_greatest)]
    if args.json:
        out(json.dumps({"command": "filters", "file": str(args.file),
                        "filters": rows, "classes": blocks}, indent=2))
        return EXIT_OK
    for row in rows:
        line = f"N({row['element']}) = {{{', '.join(row['filter'])}}}"
        if row["window"] is not None:
            line += f"   window = {{{', '.join(row['window'])}}}"
        out(line)
    for blk in blocks:
        out(f"class {{{', '.join(blk['members'])}}} greatest={blk['greatest'] or '-'}")
    return EXIT_OK


def _cmd_search(args, out):
    tiers = _parse_tiers("involution,poe" if args.tiers is None else args.tiers)
    spec = ModelSpec(order=args.order, required_tiers=tiers, limit=args.limit)
    report, models = _sweep(spec, () if args.claims is None else _select_claims(args.claims))
    if args.out:
        write_catalog(models, args.out)  # the whole stream, past a counterexample too
    else:
        any(report.failed for _ in models)  # read up to the first counterexample
    if not report.claim_ids:
        if args.json:
            out(json.dumps({"command": "search", "order": args.order,
                            "tiers": sorted(tiers), "models": report.models_checked,
                            "complete": report.complete}, indent=2))
        else:
            out(f"{report.models_checked} model(s) at order {args.order}, "
                f"tiers {{{', '.join(sorted(tiers))}}}"
                + ("" if report.complete else " (stream truncated by limit)"))
            if args.out:
                out(f"catalog written to {args.out}")
        return EXIT_OK
    if args.json:
        doc = {
            "command": "search", "order": args.order, "tiers": sorted(tiers),
            "models_checked": report.models_checked, "complete": report.complete,
            "stats": [
                {"id": cid, "applicable": st.applicable, "passes": st.passes,
                 "failures": st.failures, "not_applicable": st.not_applicable,
                 "vacuous_passes": st.vacuous_passes,
                 "nonvacuous_instances": st.nonvacuous_instances}
                for cid, st in report.stats.items()
            ],
        }
        if report.failed:
            model, crep = report.counterexample
            doc["counterexample"] = {
                "structure": serialize_structure(model),
                "report": report_record(crep, model),
            }
        out(json.dumps(doc, indent=2))
    else:
        out(f"checked {report.models_checked} model(s) at order {args.order}, "
            f"tiers {{{', '.join(sorted(tiers))}}}"
            + ("" if report.complete else " (sweep stopped early)"))
        for cid in report.claim_ids:
            st = report.stats[cid]
            out(f"  {cid:22s} applicable={st.applicable:5d} pass={st.passes:5d} "
                f"fail={st.failures} n/a={st.not_applicable:5d} "
                f"nonvacuous-instances={st.nonvacuous_instances}")
        never = report.never_nonvacuous()
        if never:
            out("claims with zero non-vacuous instances at this order: " + ", ".join(never))
        if report.failed:
            model, crep = report.counterexample
            rec = report_record(crep, model)
            out(f"COUNTEREXAMPLE to {crep.claim_id}: witness "
                + ", ".join(f"{k}={v}" for k, v in rec["witness"].items()))
            out(serialize_structure(model).rstrip())
    return EXIT_FINDING if report.failed else EXIT_OK


def _cmd_orders(args, out):
    if args.limit is not None and args.limit < 0:
        raise _Failure("limit must be >= 0", EXIT_USAGE)
    raw = _load_raw(args.file)
    count = 0
    docs = []
    labels = [raw.label(i) for i in range(raw.n)]
    orders = compatible_orders(raw.mult, raw.star, require_greatest=args.require_greatest,
                               require_joins=args.require_lattice,
                               require_meets=args.require_lattice)
    for leq in islice(orders, args.limit):
        count += 1
        pairs = transitive_reduction_pairs(leq)
        if args.json:
            docs.append([[labels[a], labels[b]] for a, b in pairs])
        else:
            shown = ", ".join(f"{labels[a]} <= {labels[b]}" for a, b in pairs) or "(equality)"
            out(f"order {count}: {shown}")
    if args.json:
        out(json.dumps({"command": "orders", "file": str(args.file),
                        "count": count, "orders": docs}, indent=2))
    else:
        out(f"{count} compatible order(s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starsemi",
        description="Finite-model workbench for involution ordered semigroups.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report attained axiom tiers")
    p.add_argument("file")
    p.add_argument("--expect", help="comma-separated tiers that must be attained")
    p.add_argument("--max-witnesses", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("classify", help="per-element ideal classification table")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("check", help="check registered claims on one structure")
    p.add_argument("file")
    p.add_argument("--claims", default="all", help="comma-separated ids or 'all'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("filters", help="filters, class partition, window sets")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_filters)

    p = sub.add_parser("search", help="enumerate models; sweep claims for counterexamples")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--tiers", help="comma-separated tiers (default: involution,poe)")
    p.add_argument("--claims", help="comma-separated ids or 'all'")
    p.add_argument("--limit", type=int)
    p.add_argument("--out", help="write the model catalog to this directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("orders", help="orders compatible with a multiplication table")
    p.add_argument("file")
    p.add_argument("--require-greatest", action="store_true")
    p.add_argument("--require-lattice", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_orders)
    return ap


def run(argv=None, stdout=None) -> int:
    """Parse argv and execute; returns the exit code."""
    stream = stdout if stdout is not None else sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    def out(line=""):
        print(line, file=stream)

    try:
        return args.fn(args, out)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> None:
    try:
        code = run(argv)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
    except BrokenPipeError:
        # stdout was closed early, as by ``| head``: send what is left to
        # devnull, so that the flush at exit is quiet, and exit 1 (EPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
