"""Finite point sets with canonical ordering, plus uniqueness certificates."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# the canonical order compares values on a grid this fine, relative to the
# largest of them: far coarser than rounding noise and than the 12
# significant digits of a report, far finer than any dedup tolerance in use
_ORDER_GRID = 1e-9


def order_keys(values: np.ndarray) -> tuple[np.ndarray, float]:
    """``values`` snapped to the canonical order grid, in grid cells, and
    the grid spacing: ``_ORDER_GRID * max(1, max |finite value|)``."""
    values = np.asarray(values, dtype=float)
    grid = _ORDER_GRID * max(1.0, float(np.abs(values[np.isfinite(values)]).max(initial=0.0)))
    return np.round(values / grid) + 0.0, grid


class _PointIndex:
    """Points looked up by max-coordinate distance ``tol``: the one
    implementation of the rule that two points within ``tol`` are one.

    Points are hashed by their coordinates rounded to cells far wider than
    ``tol``. A lookup also probes the neighbouring cell of every coordinate
    lying within twice ``tol`` of a cell edge, so it sees every stored point
    within ``tol``; when many coordinates lie that close, it scans instead.
    Cells and edge masks are computed for all rows of a call at once, so
    each row costs dict lookups and a distance check of its candidates.
    """

    _MAX_NEAR = 8

    def __init__(self, tol: float):
        self.tol = tol
        self.cell = 1024.0 * tol if tol > 0 else 1.0
        self.cells: dict[bytes, list[int]] = {}
        self.points: list[np.ndarray] = []

    def _keys(self, rows: np.ndarray):
        """Every row in cell units, its cell's number per coordinate, and
        its cell's key."""
        s = rows / self.cell + 0.5
        base = np.floor(s)
        flat, width = base.tobytes(), base.shape[1] * base.itemsize
        return s, base, [flat[i * width : (i + 1) * width] for i in range(len(rows))]

    def _store(self, key: bytes, y: np.ndarray) -> int:
        self.cells.setdefault(key, []).append(len(self.points))
        self.points.append(y)
        return len(self.points) - 1

    def add(self, rows: np.ndarray) -> None:
        """Store every row, also one within ``tol`` of a stored point."""
        rows = np.asarray(rows, dtype=float)
        for key, y in zip(self._keys(rows)[2], rows):
            self._store(key, y)

    def find(self, rows: np.ndarray, store: bool = False) -> list[int]:
        """For each row, the index of a stored point within ``tol`` of it,
        or -1. With ``store``, a row with none is stored under the next
        index, and later rows of the same call see it."""
        rows = np.asarray(rows, dtype=float)
        s, base, keys = self._keys(rows)
        offset = (s - base) * self.cell
        down = offset <= 2.0 * self.tol
        near = down | (self.cell - offset <= 2.0 * self.tol)
        near_cols: dict[int, list[int]] = {}
        for r, i in zip(*(a.tolist() for a in np.nonzero(near))):
            near_cols.setdefault(r, []).append(i)
        hits = []
        for r, key in enumerate(keys):
            y, hit, cols = rows[r], -1, near_cols.get(r, ())
            if len(cols) > self._MAX_NEAR:
                close = np.abs(np.reshape(self.points, (-1, y.size)) - y).max(axis=1) <= self.tol
                if close.any():
                    hit = int(close.argmax())
            else:
                probe = [base[r]]
                for i in cols:
                    moved = [k.copy() for k in probe]
                    for k in moved:
                        k[i] += -1.0 if down[r, i] else 1.0
                    probe += moved
                probe = [k.tobytes() for k in probe] if cols else [key]
                for p in (p for k in probe for p in self.cells.get(k, ())):
                    if np.abs(self.points[p] - y).max() <= self.tol:
                        hit = p
                        break
            if hit < 0 and store:
                hit = self._store(key, y)
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
        dedup_tol: float = 1e-6,
        meta: dict | None = None,
    ) -> "VertexSet":
        names = tuple(names)
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = np.zeros((0, len(names)))
        if pts.shape[1] != len(names):
            raise ValueError(f"{pts.shape[1]} coordinates but {len(names)} names")
        kept, src = dedup_and_sort(pts, dedup_tol)
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

    def contains_point(self, q, tol: float = 1e-6) -> bool:
        """Whether some listed point matches q within max-coordinate tol."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dimension,):
            raise ValueError(f"point dimensions differ: {q.shape} vs ({self.dimension},)")
        index = _PointIndex(tol)
        index.add(self.points)
        return index.find(q[None])[0] >= 0

    def is_subset_of(self, other: "VertexSet", tol: float = 1e-6) -> bool:
        """Whether every point matches one of other's within max-coordinate tol."""
        if self.dimension != other.dimension:
            raise ValueError(f"point dimensions differ: {self.dimension} vs {other.dimension}")
        # other's points may lie within tol of each other; all of them count
        index = _PointIndex(tol)
        index.add(other.points)
        return -1 not in index.find(self.points)

    def same_points(self, other: "VertexSet", tol: float = 1e-6) -> bool:
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
        names = tuple(str(n) for n in doc["names"])
        pts = np.array([[float(v) for v in p] for p in doc.get("points", [])], dtype=float)
        if pts.size == 0:
            pts = np.zeros((0, len(names)))
        obj = doc.get("objectives")
        meta = dict(doc.get("meta") or {})
        if doc.get("tau") is not None:
            meta["tau"] = float(doc["tau"])
        if doc.get("model_fingerprint"):
            meta["model_fingerprint"] = doc["model_fingerprint"]
        return cls(
            points=pts,
            names=names,
            objectives=None if obj is None else np.asarray(obj, dtype=float),
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
