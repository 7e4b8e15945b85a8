"""Finite point sets with canonical ordering, plus uniqueness certificates."""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np


def dedup_and_sort(points: np.ndarray, dedup_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically sorted points with near-duplicates removed.

    Two points clash when their max coordinate difference is at most
    ``dedup_tol``; in lexicographic order, a point is kept unless it clashes
    with a point kept before it. Returns (kept points, indices of the kept
    points in the input array).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        return pts.copy(), np.zeros(0, dtype=int)
    pts = pts + 0.0  # normalize -0.0 so sorting and output are sign-stable
    order = np.lexsort(pts.T[::-1])
    kept = np.empty_like(pts)
    firsts: list[float] = []  # kept first coordinates, ascending in lexicographic order
    kept_src: list[int] = []
    for src in order:
        p = pts[src]
        # a clash needs the first coordinates within dedup_tol; the window
        # is twice as wide so that rounding in p[0] - dedup_tol loses none
        lo = bisect.bisect_left(firsts, p[0] - 2.0 * dedup_tol)
        if lo == len(firsts) or np.abs(kept[lo : len(firsts)] - p).max(axis=1).min() > dedup_tol:
            kept[len(firsts)] = p
            firsts.append(p[0])
            kept_src.append(int(src))
    return kept[: len(firsts)].copy(), np.array(kept_src, dtype=int)


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
        if len(self) == 0:
            return False
        return bool(np.min(np.abs(self.points - q).max(axis=1)) <= tol)

    def is_subset_of(self, other: "VertexSet", tol: float = 1e-6) -> bool:
        return all(other.contains_point(p, tol) for p in self.points)

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
