"""Span tracer for the starsemi benchmark.

The tracer replaces public functions of the ``starsemi`` modules with
wrappers at every module binding that holds them, so a call made through
``starsemi.enumeration.automorphisms`` and one made through
``starsemi.automorphisms`` land in the same span. Each span records its
name, start, end and parent in flat arrays; self time (duration minus the
time covered by child spans) is computed once, when the run ends.

A generator function gets one span per resumption, so the self time of
``enumerate_models`` is the work done between its yields, outside the
wrapped functions it calls.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

MARK = "__perfbench_span__"

# (defining module, function, kind, count to record from the result)
TARGETS = (
    ("enumeration", "enumerate_models", "gen", None),
    ("enumeration", "semigroup_representatives", "call", "enumeration.semigroup_classes"),
    ("enumeration", "automorphisms", "call", None),
    ("enumeration", "canonical_form", "call", None),
    ("enumeration", "compatible_orders", "gen", None),
    ("structure", "validate_structure", "call", None),
    ("structure", "bounds_tables", "call", None),
    ("claims", "check_claim", "call", None),
    ("ideals", "classify_all", "call", None),
    ("regularity", "regularity_profile", "call", None),
    ("filters", "filter_generated", "call", None),
    ("filters", "filter_oracle", "call", None),
    ("filters", "thm26_set", "call", None),
    ("filters", "n_class_partition", "call", None),
    ("fileformat", "serialize_structure", "call", None),
    ("fileformat", "parse_structure", "call", None),
    ("sampling", "random_models", "call", None),
)

# spans whose label is the claim id passed as the second argument
LABELLED = {"claims.check_claim": ("claim_id", 1)}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "starsemi" or name.startswith("starsemi."))]


def wrapped_bindings():
    """(module name, attribute) of every binding that still holds a wrapper."""
    return [(m.__name__, attr) for m in package_modules()
            for attr, val in vars(m).items() if hasattr(val, MARK)]


class Tracer:
    """Records spans of the wrapped functions; install() and uninstall()
    patch and restore the module bindings."""

    def __init__(self, clock=perf_counter):
        self._now = clock
        self.keys: list[tuple[str, str]] = []
        self._key_ids: dict[tuple[str, str], int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _key_id(self, name, label):
        k = (name, label)
        kid = self._key_ids.get(k)
        if kid is None:
            kid = self._key_ids[k] = len(self.keys)
            self.keys.append(k)
        return kid

    def _open(self, kid):
        idx = len(self.key)
        self.key.append(kid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = self._now()
        return idx

    def _close(self, idx):
        self.end[idx] = self._now()
        self._stack.pop()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _wrap_call(self, f, name, count_name):
        tracer = self
        label_arg = LABELLED.get(name)

        def wrapper(*args, **kwargs):
            label = ""
            if label_arg is not None:
                kw, pos = label_arg
                label = kwargs[kw] if kw in kwargs else args[pos]
            idx = tracer._open(tracer._key_id(name, label))
            try:
                result = f(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count_name is not None:
                tracer.count(count_name, len(result))
            return result

        return wrapper

    def _wrap_gen(self, f, name):
        tracer = self

        def wrapper(*args, **kwargs):
            it = f(*args, **kwargs)
            kid = tracer._key_id(name, "")
            try:
                while True:
                    idx = tracer._open(kid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.count(name + "#yields")
                    yield item
            finally:
                it.close()

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        for mod, fname, kind, count_name in TARGETS:
            original = getattr(by_name["starsemi." + mod], fname)
            name = f"{mod}.{fname}"
            if kind == "gen":
                wrapper = self._wrap_gen(original, name)
            else:
                wrapper = self._wrap_call(original, name, count_name)
            setattr(wrapper, MARK, name)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def summary(self):
        """Per (name, label): calls, inclusive seconds and self seconds, plus
        the total self time, which equals the time covered by top-level
        spans."""
        n = len(self.key)
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        covered = array("d", bytes(8 * n))
        top = 0.0
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += d
            else:
                top += d
        rows: dict[tuple[str, str], list[float]] = {}
        total_self = 0.0
        for i in range(n):
            d = self.end[i] - self.start[i]
            row = rows.setdefault(self.keys[self.key[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - covered[i]
            total_self += d - covered[i]
        return {"spans": n, "top_level_s": top, "self_s": total_self,
                "rows": [[name, label, c, inc, slf]
                         for (name, label), (c, inc, slf) in sorted(rows.items())],
                "counts": dict(self.counts)}
