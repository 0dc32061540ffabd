"""Span tracing of ebundles from outside the package.

``Tracer.install`` wraps every function named in the ``__all__`` of the
five layer modules and rebinds each place that holds it: module globals in
every layer (``axioms`` and ``convergence`` import ``e_theta`` by name),
registry dicts such as ``cli._COMMANDS`` and ``convergence.SEQUENCE_FAMILIES``,
and the bundle definitions in ``bundles.BUNDLES``.  Methods of the rank
function classes are wrapped on the classes.

Each wrapped call records a span (name, start, end, parent span, job) in
flat in-memory arrays; self time is derived afterwards as the span's
duration minus its direct children's.  The hot scalar methods ``value``,
``inverse`` and ``cumulative`` are counted only, not timed: they run
millions of times per round, so their time stays in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "functions", "bundles", "axioms", "convergence")
COUNTED_METHODS = ("value", "inverse", "cumulative")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        nid = self._nid(name)
        t0, t1, parent, names, jobs = self.t0, self.t1, self.parent, self.name, self.job
        stack, opened, clock = self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            i = len(t0)
            t0.append(0.0)
            t1.append(0.0)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            jobs.append(self.job_id)
            stack.append(i)
            opened[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                t0[i] = start
                stack.pop()
                opened[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn, inside: str | None = None):
        """Count calls to ``fn`` under ``key``, and under ``key.in.<inside>``
        while a span named ``inside`` is open."""
        counts, opened = self.counts, self._open
        inside_id = self._nid(inside) if inside else None
        inside_key = f"{key}.in.{inside}"

        def counted(*args, **kwargs):
            counts[key] += 1
            if inside_id is not None and opened[inside_id]:
                counts[inside_key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _set(self, obj, attr: str, value) -> None:
        old = getattr(obj, attr)
        self._undo.append(lambda: setattr(obj, attr, old))
        setattr(obj, attr, value)

    def _set_item(self, d: dict, key, value) -> None:
        old = d[key]
        self._undo.append(lambda: d.__setitem__(key, old))
        d[key] = value

    # -- hooks for counters that need the call's arguments or result ---------

    def _after_sweep(self, args, table) -> None:
        self.counts["bundles.sweep.cells"] += 4 * len(table.rows)
        self.counts["bundles.sweep.na_cells"] += sum(
            getattr(r, n) is None for r in table.rows for n in ("e", "h", "mu", "i")
        )

    def _after_positive(self, args, result) -> None:
        knots = getattr(args[0], "knots", ())
        if knots:
            scanned = len(knots) - 1
            if not result:
                scanned = next(i for i, k in enumerate(knots) if k.y <= 0.0) + 1
            self.counts["functions.is_positive_before_T.knots_scanned"] += scanned

    def _after_pwl_build(self, args, result) -> None:
        self.counts["functions.knots_built"] += len(args[0].knots)

    def _after_generate(self, args, pairs) -> None:
        self.counts["axioms.generate_pairs.accepted"] += len(pairs)

    # -- install / uninstall --------------------------------------------------

    def install(self, package) -> None:
        mods = {layer: getattr(package, layer) for layer in LAYERS}
        fn_mod = mods["functions"]
        after = {
            "bundles.sweep": self._after_sweep,
            "axioms.generate_pairs": self._after_generate,
        }
        swap: dict = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    swap[obj] = self.span(name, obj, after.get(name))
        # pair-construction attempts, for the generator's accept ratio
        build_pair = mods["axioms"]._build_pair
        swap[build_pair] = self.count("axioms.generate_pairs.attempts", build_pair)

        def replacement(val):
            if inspect.isfunction(val):
                return swap.get(val)
            if dataclasses.is_dataclass(val) and not isinstance(val, type):
                changes = {f.name: swap[v] for f in dataclasses.fields(val)
                           if inspect.isfunction(v := getattr(val, f.name)) and v in swap}
                return dataclasses.replace(val, **changes) if changes else None
            return None

        for mod in (package, *mods.values()):
            for attr, val in list(vars(mod).items()):
                new = replacement(val)
                if new is not None:
                    self._set(mod, attr, new)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        new = replacement(item)
                        if new is not None:
                            self._set_item(val, key, new)

        for cls in vars(fn_mod).values():
            if not (isinstance(cls, type) and issubclass(cls, fn_mod.RankFunction)):
                continue
            for meth in COUNTED_METHODS:
                if meth in vars(cls):
                    self._set(cls, meth, self.count(f"functions.{meth}.calls", vars(cls)[meth],
                                                    inside="bundles.h_theta"))
            if "is_positive_before_T" in vars(cls):
                self._set(cls, "is_positive_before_T",
                          self.span("functions.is_positive_before_T",
                                    vars(cls)["is_positive_before_T"], self._after_positive))
        pwl = fn_mod.PiecewiseLinearFn
        self._set(pwl, "__init__", self.span("functions.pwl_build", pwl.__init__,
                                             self._after_pwl_build))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        t0 = np.frombuffer(self.t0, dtype=float)
        t1 = np.frombuffer(self.t1, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "t0": t0, "t1": t1, "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.int64),
            "dur": dur, "self": dur - child,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=a["self"], minlength=n)
        incl = np.bincount(a["name"], weights=a["dur"], minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl[i])}
                for i, name in enumerate(self.names)}

    def inclusive_by_job(self, name: str) -> dict[int, float]:
        """Inclusive seconds of ``name``'s spans summed per job."""
        if name not in self._ids:
            return {}
        a = self.arrays()
        sel = a["name"] == self._ids[name]
        out: dict[int, float] = defaultdict(float)
        for j, d in zip(a["job"][sel].tolist(), a["dur"][sel].tolist()):
            out[j] += d
        return dict(out)

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, t0=a["t0"], t1=a["t1"], parent=a["parent"], name=a["name"],
                            job=a["job"], names=np.array(self.names))
