"""Spans around aoskit's layers, recorded from outside the package.

aoskit modules bind names at import (``from .simplex import solve_model``),
so a function is wrapped at every module that calls it, not only where it is
defined. Spans stay in memory; ``dump`` writes them once, after the run.
Spans are recorded only while an operation is open, so the benchmark's own
set-up and checks leave no trace.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

from aoskit import analysis, binary, cli, model, projection, reporting, sets, simplex, sublevel, vertices


def _walk(counts, args, result):
    counts["vertices.bases_feasible"] += result.meta.get("bases_visited", 0)
    counts["vertices.distinct"] += len(result)


def _count(key, measure):
    def hook(counts, args, result):
        counts[key] += measure(args, result)
    return hook


# (module or class, attribute, span name, counter hook or None)
TARGETS = [
    (cli, "main", "cli", None),
    (cli, "network_from_dict", "power", None),
    (cli, "build_dcopf", "power", None),
    (cli, "build_network_flow", "power", None),
    (cli, "build_copper_plate", "power", None),
    (model.LpModel, "from_json_dict", "model.load", None),
    (cli, "apply_box_bounds", "sublevel", None),
    (vertices, "make_sublevel_model", "sublevel", None),
    (analysis, "make_sublevel_model", "sublevel", None),
    (simplex, "solve_model", "simplex.model", None),
    (cli, "solve_model", "simplex.model", None),
    (vertices, "solve_model", "simplex.model", None),
    (binary, "solve_model", "simplex.model", _count("binary.lp_solves", lambda a, r: 1)),
    (simplex, "to_standard_form", "standard_form", None),
    (simplex, "drop_redundant_equalities", "standard_form", None),
    (simplex, "solve_standard", "simplex.solve",
     lambda c, a, r: c.update({"simplex.solves": 1, "simplex.iterations": r.iterations})),
    (cli, "enumerate_vertices", "vertices.walk", _walk),
    (vertices, "enumerate_vertices", "vertices.walk", _walk),
    (vertices, "is_unique_minimizer", "vertices.unique", None),
    (sets.VertexSet, "from_points", "sets.dedup", _count("sets.points_in", lambda a, r: np.shape(a[0])[0])),
    (cli, "project_set", "projection", None),
    (analysis, "project_set", "projection", None),
    (cli, "check_containment", "analysis.containment",
     _count("analysis.points_checked", lambda a, r: sum(len(p.points) for p in r.pairs))),
    (cli, "write_report", "reporting.render", _count("reporting.bytes", lambda a, r: len(r))),
    (reporting, "render_report", "reporting.render", None),
    (binary, "enumerate_binary", "binary.pool", _count("binary.entries", lambda a, r: len(r))),
    (binary, "solve_binary", "binary.bnb", None),
]


class Tracer:
    """Span recorder: each span is [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                # call through the bound classmethod; staticmethod keeps the
                # wrapper from being bound a second time
                wrapped = staticmethod(self._wrap(getattr(owner, attr), name, hook))
            else:
                wrapped = self._wrap(raw, name, hook)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def span(self, name: str, op: int, fn):
        """Run ``fn`` as the root span of operation ``op``."""
        self.op = op
        try:
            return self._wrap(fn, name, None)()
        finally:
            self.op = None

    def self_times(self, scale: list[float]) -> tuple[dict[str, float], dict[str, float], dict[int, float]]:
        """Per span name: summed self time and summed duration; per op: root
        duration. Each span's times are multiplied by ``scale[op]``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        root_s: dict[int, float] = {}
        for (name, start, end, parent, op), c in zip(self.spans, child):
            self_s[name] += (end - start - c) * scale[op]
            total_s[name] += (end - start) * scale[op]
            if parent is None:
                root_s[op] = (end - start) * scale[op]
        return self_s, total_s, root_s

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
