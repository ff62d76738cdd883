"""Per-layer tracing of delta-ineq from outside the package.

``install()`` replaces every public function of the package's modules, in
every module namespace that binds it, with a wrapper that counts calls and
times them.  Self time is a call's span minus the wrapped calls inside it;
inclusive time counts only the outermost call of a recursion.  Hot leaf
functions (HOT, none of them recursive) are timed and counted in aggregate
only; every other call also records a span (name, parent span, start, end)
in memory, written out by ``Tracer.dump``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import re
import time

MODULES = ("timescale", "calculus", "ostrowski", "harness", "reporting", "cli")
# Called hundreds of times per trial: no span per call.
HOT = frozenset({
    "timescale.grid_points", "calculus.feval", "calculus.poly_eval",
    "calculus.poly_derive", "calculus.poly_antiderive", "calculus.poly_mul",
    "calculus.poly_add", "calculus.poly_scale", "calculus.poly_definite",
    "reporting.fmt17", "ostrowski.summarize",
})
WALL_TIME = re.compile(r'"wall_time_s":\s*[^,\n}]*')
# Functions whose distinct inputs are counted.
DISTINCT = frozenset({"timescale.grid_points", "ostrowski.kernel_moments"})


def _key(obj):
    """A hashable value-key for obj (dicts and unhashable dataclasses by value)."""
    try:
        hash(obj)
        return obj
    except TypeError:
        pass
    if isinstance(obj, dict):
        return frozenset((k, _key(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_key(v) for v in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(_key(getattr(obj, f.name))
                                             for f in dataclasses.fields(obj))
    return id(obj)


class Stat:
    """Counters of one wrapped function."""

    __slots__ = ("calls", "self_ns", "incl_ns", "depth", "keys", "out_bytes", "evals")

    def __init__(self, distinct: bool) -> None:
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.depth = 0
        self.keys = set() if distinct else None
        self.out_bytes = 0
        self.evals = 0

    def to_json(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_ns * 1e-9, "s": self.incl_ns * 1e-9}
        if self.keys is not None:
            out["distinct"] = len(self.keys)
        if self.out_bytes:
            out["bytes"] = self.out_bytes
        if self.evals:
            out["evals"] = self.evals
        return out


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # per open call: time spent in wrapped calls inside it
        self.child_ns: list[int] = [0]
        # span ids of the open non-hot calls
        self.open_spans: list[int] = [-1]
        self.spans: list[tuple[int, int, int, int]] = []
        self.names: list[str] = []

    def wrap(self, name: str, fn):
        st = self.stats[name] = Stat(name in DISTINCT)
        child_ns = self.child_ns
        open_spans = self.open_spans
        spans = self.spans
        clock = time.perf_counter_ns
        name_id = len(self.names)
        self.names.append(name)
        keys = st.keys

        if name in HOT:
            def traced(*args, **kwargs):
                if keys is not None:
                    keys.add(_key(args))
                child_ns.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st.calls += 1
                    st.self_ns += dt - child_ns.pop()
                    st.incl_ns += dt
                    child_ns[-1] += dt
        else:
            def traced(*args, **kwargs):
                if keys is not None:
                    keys.add(_key(args))
                span = len(spans)
                parent = open_spans[-1]
                spans.append((name_id, parent, 0, 0))
                open_spans.append(span)
                child_ns.append(0)
                st.depth += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    st.depth -= 1
                    st.calls += 1
                    st.self_ns += dt - child_ns.pop()
                    if st.depth == 0:
                        st.incl_ns += dt
                    child_ns[-1] += dt
                    open_spans.pop()
                    spans[span] = (name_id, parent, t0, t1)
                if name == "reporting.json_dumps":
                    # the wall time is the only part that varies between identical runs
                    st.out_bytes += len(WALL_TIME.sub("", result).encode())
                elif name == "harness.sharpness_search":
                    st.evals += result.iterations
                return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "stats": {k: v.to_json() for k, v in sorted(self.stats.items())},
                "span_fields": ["name", "parent", "start_ns", "end_ns"],
                "names": self.names,
                "spans": self.spans,
            }, fh)
            fh.write("\n")


def install() -> Tracer:
    """Wrap delta_ineq's public functions everywhere they are bound."""
    tracer = Tracer()
    mods = {m: importlib.import_module(f"delta_ineq.{m}") for m in MODULES}
    namespaces = [importlib.import_module("delta_ineq")] + list(mods.values())
    wrapped: dict[int, object] = {}
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrapped[id(fn)] = tracer.wrap(f"{short}.{attr}", fn)
        for cls in list(vars(mod).values()):
            if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and "grid_points" in vars(cls)):
                setattr(cls, "grid_points", tracer.wrap(f"{short}.grid_points",
                                                        vars(cls)["grid_points"]))
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(ns, attr, wrapped[id(value)])
    return tracer
