"""Spans around calls into the library, recorded from outside it.

`Tracer.install` replaces each traced public function by a wrapper in
every `schubitope` namespace that binds it, so calls made through a
module global (``polytope.vertices`` calling ``vertex_vector``) are seen
as well as calls through the package.  A span is (name, start, end,
parent); spans are kept in flat arrays while the run lasts and written out
when it ends.  A layer's self time is its span durations minus the time
their child spans cover.
"""
from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections.abc import Sequence

# Public functions whose calls and self time are reported, by module, and
# the end-to-end figures they should move:
#   fillings.*, polytope.vertices       vertex-sweep ops_per_s
#   polytope.column_word/theta/hrep/member
#                                       hrep-member op_p50_ms, op_p90_ms; verify-desk wall_s
#   polytope.certify_vertices, lp.*     newton-certify ops_per_s, op_p90_ms; verify-desk wall_s
#   polyoracle.*, perms.*               newton-certify, verify-desk
# checks.<name>.s, checks.self_s and oracles.self_s move verify-desk wall_s.
LAYERS = {
    "fillings": ("fill_column", "fill_diagram", "vertex_vector"),
    "polytope": ("vertices", "column_word", "theta", "hrep", "member", "certify_vertices"),
    "lp": ("solve_nonnegative", "convex_combination", "hull_vertices"),
    "polyoracle": ("schubert_polynomial", "key_polynomial", "divided_difference", "demazure"),
    "perms": ("vertex_compositions", "bruhat_leq"),
}


class Tracer:
    """Spans of one pass, in opening order, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, observe=None):
        """A wrapper recording one span per call; ``name`` may be a function
        of the call's arguments, and ``observe(args, result)`` may count."""
        name_of = name if callable(name) else None
        fixed = None if name_of else self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if name_of is None else self._id(name_of(args)))
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def spans(self) -> "Spans":
        return Spans(self)

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated lines: index, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, s, e, p) in enumerate(self.spans()):
                fh.write(f"{i}\t{p}\t{name}\t{s:.9f}\t{e:.9f}\n")


class Spans(Sequence):
    """(name, start, end, parent index) per span, in opening order, built on
    access so that millions of spans stay in the tracer's flat arrays."""

    def __init__(self, tracer: Tracer):
        self._t = tracer

    def __len__(self) -> int:
        return len(self._t.start)

    def __getitem__(self, i):
        t = self._t
        return t.names[t.name_id[i]], t.start[i], t.end[i], t.parent[i]


def self_times(spans):
    """Per name: (calls, total seconds, self seconds).

    ``spans`` is a sequence of (name, start, end, parent index); a span's
    self time is its duration minus the durations of its direct children,
    which run one after another inside it.  A parent opens before its
    children, so its row exists when a child's duration is taken off it."""
    out: dict[str, list] = {}
    for name, s, e, p in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e - s
        row[2] += e - s
        if p >= 0:
            out[spans[p][0]][2] -= e - s
    return {name: tuple(row) for name, row in out.items()}


def install(tracer: Tracer) -> list:
    """Wrap the traced layers, every public `oracles` function and each `verify` check.

    Returns the (module, attribute, original) bindings it replaced."""
    import schubitope
    from schubitope import checks, oracles

    replaced = []

    def _rebind(old, new):
        for modname, module in list(sys.modules.items()):
            if modname == "schubitope" or modname.startswith("schubitope."):
                for attr, value in list(vars(module).items()):
                    if value is old:
                        setattr(module, attr, new)
                        replaced.append((module, attr, old))

    def on_vertices(args, result):
        tracer.count("vertices.found", len(result))
        tracer.count("vertices.swept", math.factorial(args[0].n))

    def on_hull(args, result):
        tracer.count("hull.kept", len(result))
        tracer.count("hull.points", len({tuple(p) for p in args[0]}))

    observers = {"polytope.vertices": on_vertices, "lp.hull_vertices": on_hull}
    for modname, funcs in LAYERS.items():
        module = getattr(schubitope, modname)
        for fname in funcs:
            fn = getattr(module, fname)
            key = f"{modname}.{fname}"
            _rebind(fn, tracer.wrap(key, fn, observers.get(key)))
    for fname, fn in list(vars(oracles).items()):
        if callable(fn) and not fname.startswith("_") and getattr(fn, "__module__", None) == oracles.__name__:
            _rebind(fn, tracer.wrap(f"oracles.{fname}", fn))
    _rebind(checks.run_check, tracer.wrap(lambda args: f"check:{args[0]}", checks.run_check))
    return replaced


def layer_metrics(tracer: Tracer, check_names) -> dict:
    """The per-layer metrics of one traced pass, keyed by name."""
    times = self_times(tracer.spans())
    out = {}
    for modname, funcs in LAYERS.items():
        for fname in funcs:
            calls, _, self_s = times.get(f"{modname}.{fname}", (0, 0.0, 0.0))
            out[f"{modname}.{fname}.calls"] = (calls, "count")
            out[f"{modname}.{fname}.self_s"] = (self_s, "s")
    c = tracer.counters
    out["polytope.vertices.distinct_ratio"] = (_ratio(c, "vertices.found", "vertices.swept"), "ratio")
    out["lp.hull_vertices.kept_ratio"] = (_ratio(c, "hull.kept", "hull.points"), "ratio")
    for name in check_names:  # a check that ran no span is left out, so it shows as not measured
        if f"check:{name}" in times:
            out[f"checks.{name}.s"] = (times[f"check:{name}"][1], "s")
    out["checks.self_s"] = (
        sum(row[2] for key, row in times.items() if key.startswith("check:")),
        "s",
    )
    out["oracles.self_s"] = (
        sum(row[2] for key, row in times.items() if key.startswith("oracles.")),
        "s",
    )
    out["trace.spans"] = (len(tracer.start), "count")
    return out


def _ratio(counters, num, den):
    return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
