"""Finite point sets with canonical ordering, plus uniqueness certificates."""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


# the canonical order compares values on a grid this fine, relative to the
# largest of them: far coarser than rounding noise and than the 12
# significant digits of a report, far finer than any dedup tolerance in use
_ORDER_GRID = 1e-9
# two points within this max-coordinate distance are one, unless a caller
# asks for another distance
DEDUP_TOL = 1e-6


def order_keys(values: np.ndarray) -> tuple[np.ndarray, float]:
    """``values`` snapped to the canonical order grid, in grid cells, and
    the grid spacing: ``_ORDER_GRID * max(1, max |finite value|)``."""
    values = np.asarray(values, dtype=float)
    grid = _ORDER_GRID * max(1.0, float(np.abs(values[np.isfinite(values)]).max(initial=0.0)))
    return np.round(values / grid) + 0.0, grid


class _PointIndex:
    """Points looked up by max-coordinate distance ``tol``: the one
    implementation of the rule that two points within ``tol`` are one.

    A point is hashed by its weighted coordinate sum. The weights are
    positive and sum to 1, so points within ``tol`` have sums within
    ``tol``; they are unequal, since many sets share one plain sum (DC-OPF
    generation sums to the load). A lookup probes the sum's cell, 64
    ``tol`` wide, and the cell across the nearer edge when the sum lies
    within twice ``tol`` of it, then checks the distance to each candidate.
    A row's sum depends on that row alone.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.cell = 64.0 * tol if tol > 0 else 1.0
        self.cells: dict[float, list[int]] = {}
        self.points: list[np.ndarray] = []

    @staticmethod
    @functools.cache
    def _weights(d: int) -> np.ndarray:
        """1 plus the fractional part of i times the golden ratio, scaled."""
        w = 1.0 + (np.arange(d) * 0.6180339887498949) % 1.0
        w /= w.sum()
        w.flags.writeable = False  # one array serves every index
        return w

    def _probes(self, rows: np.ndarray) -> list[tuple[float, ...]]:
        """For each row, its own cell, then the neighbour to probe if any."""
        # a C-ordered product sums each row alike whatever the batch
        u = (np.ascontiguousarray(rows) * self._weights(rows.shape[1])).sum(axis=1) / self.cell
        margin = 2.0 * self.tol / self.cell
        cells = [(x // 1.0, x % 1.0) for x in u.tolist()]
        return [(k, k - 1.0) if f <= margin else (k, k + 1.0) if f >= 1.0 - margin else (k,) for k, f in cells]

    def _store(self, cell: float, y: np.ndarray) -> int:
        self.cells.setdefault(cell, []).append(len(self.points))
        self.points.append(y)
        return len(self.points) - 1

    def add(self, rows: np.ndarray) -> None:
        """Store every row, also one within ``tol`` of a stored point."""
        rows = np.asarray(rows, dtype=float)
        for probe, y in zip(self._probes(rows), rows):
            self._store(probe[0], y)

    def find(self, rows: np.ndarray, store: bool = False) -> list[int]:
        """For each row, the index of a stored point within ``tol`` of it,
        or -1. With ``store``, a row with none is stored under the next
        index, and later rows of the same call see it."""
        rows = np.asarray(rows, dtype=float)
        hits = []
        for probe, y in zip(self._probes(rows), rows):
            near = (p for k in probe for p in self.cells.get(k, ()))
            hit = next((p for p in near if np.abs(self.points[p] - y).max() <= self.tol), -1)
            if hit < 0 and store:
                hit = self._store(probe[0], y)
            hits.append(hit)
        return hits


def dedup_and_sort(points: np.ndarray, dedup_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Points in canonical order with near-duplicates removed.

    The canonical order is lexicographic on the coordinates snapped to the
    grid of :func:`order_keys`, ties broken by the raw coordinates, so
    points that differ only by rounding noise keep one order whichever
    computation produced them. Two points clash when their max coordinate
    difference is at most ``dedup_tol``; in canonical order, a point is kept
    unless it clashes with a point kept before it. Returns (kept points,
    indices of the kept points in the input array).

    Past the sort, the expected cost is linear in the number of points: the
    kept points are looked up in a :class:`_PointIndex`.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        return pts.copy(), np.zeros(0, dtype=int)
    pts = pts + 0.0  # normalize -0.0 so sorting and output are sign-stable
    snapped, _ = order_keys(pts)
    order = np.lexsort(np.vstack([pts.T[::-1], snapped.T[::-1]]))
    # the first row that finds a kept point is the row that stored it
    _, first = np.unique(_PointIndex(dedup_tol).find(pts[order], store=True), return_index=True)
    src = order[first]
    return pts[src], src


def _point_rows(points, names: tuple[str, ...]) -> np.ndarray:
    """``points`` as a float array of one row per point, one coordinate per
    name."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros((0, len(names)))
    if pts.ndim != 2:
        raise ValueError(f"points must be rows of {len(names)} coordinates, got shape {pts.shape}")
    if pts.shape[1] != len(names):
        raise ValueError(f"points are {pts.shape[1]} wide, but there are {len(names)} names")
    return pts


@dataclass
class VertexSet:
    """An ordered, deduplicated set of points in a labelled coordinate space.

    ``objectives`` aligns with ``points`` (primary objective value of each
    point, when known). ``complete`` records whether enumeration proved the
    list exhaustive; a run truncated by a limit reports complete=False.
    ``meta`` carries the level value ("tau") and source model fingerprint.
    """

    points: np.ndarray
    names: tuple[str, ...]
    objectives: np.ndarray | None = None
    complete: bool = True
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_points(
        cls,
        points,
        names: tuple[str, ...],
        objectives=None,
        complete: bool = True,
        dedup_tol: float = DEDUP_TOL,
        meta: dict | None = None,
    ) -> "VertexSet":
        names = tuple(names)
        kept, src = dedup_and_sort(_point_rows(points, names), dedup_tol)
        obj = None
        if objectives is not None:
            obj = np.asarray(objectives, dtype=float)[src] if len(src) else np.zeros(0)
        return cls(kept, names, obj, complete, dict(meta or {}))

    @property
    def dimension(self) -> int:
        return len(self.names)

    @property
    def tau(self) -> float | None:
        return self.meta.get("tau")

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    def contains_point(self, q, tol: float = DEDUP_TOL) -> bool:
        """Whether some listed point matches q within max-coordinate tol."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dimension,):
            raise ValueError(f"point dimensions differ: {q.shape} vs ({self.dimension},)")
        index = _PointIndex(tol)
        index.add(self.points)
        return index.find(q[None])[0] >= 0

    def is_subset_of(self, other: "VertexSet", tol: float = DEDUP_TOL) -> bool:
        """Whether every point matches one of other's within max-coordinate tol."""
        if self.dimension != other.dimension:
            raise ValueError(f"point dimensions differ: {self.dimension} vs {other.dimension}")
        # other's points may lie within tol of each other; all of them count
        index = _PointIndex(tol)
        index.add(other.points)
        return -1 not in index.find(self.points)

    def same_points(self, other: "VertexSet", tol: float = DEDUP_TOL) -> bool:
        return self.is_subset_of(other, tol) and other.is_subset_of(self, tol)

    def to_json_dict(self) -> dict:
        doc: dict = {
            "names": list(self.names),
            "count": len(self),
            "complete": self.complete,
            "tau": self.meta.get("tau"),
            "model_fingerprint": self.meta.get("model_fingerprint"),
            "points": [list(map(float, p)) for p in self.points],
            "objectives": None
            if self.objectives is None
            else [float(v) for v in self.objectives],
        }
        extra = {k: v for k, v in self.meta.items() if k not in ("tau", "model_fingerprint")}
        if extra:
            doc["meta"] = extra
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "VertexSet":
        if not isinstance(doc.get("names"), list):
            raise ValueError("a vertex set needs a 'names' list")
        names = tuple(str(n) for n in doc["names"])
        try:
            rows = [[float(v) for v in p] for p in doc.get("points", [])]
        except TypeError as exc:
            raise ValueError(f"points must be rows of {len(names)} coordinates: {exc}") from exc
        pts = _point_rows(rows, names)
        obj = doc.get("objectives")
        if obj is not None:
            try:
                obj = np.array([float(v) for v in obj])
            except TypeError as exc:
                raise ValueError(f"objectives must be null or a list of numbers: {exc}") from exc
            if len(obj) != len(pts):
                raise ValueError(f"{len(obj)} objectives for {len(pts)} points")
        meta = dict(doc.get("meta") or {})
        if doc.get("tau") is not None:
            meta["tau"] = float(doc["tau"])
        if doc.get("model_fingerprint"):
            meta["model_fingerprint"] = doc["model_fingerprint"]
        return cls(
            points=pts,
            names=names,
            objectives=obj,
            complete=bool(doc.get("complete", True)),
            meta=meta,
        )


@dataclass(frozen=True)
class UniquenessCertificate:
    """Outcome of asking whether exactly one point attains the level value.

    ``unique`` is claimed only when enumeration was exhaustive and found a
    single point; otherwise ``witnesses`` holds the distinct points found
    (two suffice to refute uniqueness).
    """

    unique: bool
    tau: float
    witnesses: tuple
    complete: bool

    def to_json_dict(self) -> dict:
        return {
            "unique": self.unique,
            "tau": self.tau,
            "witnesses": [list(map(float, w)) for w in self.witnesses],
            "complete": self.complete,
        }
