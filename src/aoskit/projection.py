"""Coordinate projection of points and point sets.

A projection keeps either the leading k coordinates or an explicit list of
named coordinates. Applied to a vertex set it acts pointwise, then
duplicates collapse; distinct pre-images may land on the same image, and
points interior to the projected region can survive (they are images of
genuine vertices, not artifacts).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ROLES, LpModel
from .sets import DEDUP_TOL, VertexSet


@dataclass(frozen=True)
class ProjectionSpec:
    """Keep the leading ``k`` coordinates, or exactly the listed ``names``."""

    k: int | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.k is None) == (self.names is None):
            raise ValueError("exactly one of k and names must be given")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if not self.names:
                raise ValueError("names must be non-empty")
            if len(set(self.names)) != len(self.names):
                raise ValueError("projection names repeat a variable")

    def resolve(self, source_names: Sequence[str]) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """Kept indices and labels, in output order, for a coordinate space."""
        source_names = tuple(source_names)
        if self.k is not None:
            if self.k > len(source_names):
                raise ValueError(f"k={self.k} exceeds the source dimension {len(source_names)}")
            idx = tuple(range(self.k))
        else:
            pos = {n: i for i, n in enumerate(source_names)}
            missing = [n for n in self.names if n not in pos]
            if missing:
                raise ValueError(f"projection references unknown variables {missing}")
            idx = tuple(pos[n] for n in self.names)
        return idx, tuple(source_names[i] for i in idx)


def role_projection(model: LpModel, *roles: str) -> ProjectionSpec:
    """Projection onto every variable tagged with one of the given roles."""
    for role in roles:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
    names = tuple(v.name for v in model.variables if v.role in roles)
    if not names:
        raise ValueError(f"model has no variable with role in {roles}")
    return ProjectionSpec(names=names)


def project_point(
    p, spec: ProjectionSpec, source_names: Sequence[str] | None = None
) -> np.ndarray:
    """The kept coordinates of one point, in the spec's output order."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {p.shape}")
    if spec.k is not None:
        if spec.k > p.shape[0]:
            raise ValueError(f"k={spec.k} exceeds the point dimension {p.shape[0]}")
        return p[: spec.k].copy()
    if source_names is None:
        raise ValueError("a name-based projection needs the point's coordinate names")
    idx, _ = spec.resolve(source_names)
    return p[list(idx)].copy()


def project_set(vs: VertexSet, spec: ProjectionSpec, dedup_tol: float = DEDUP_TOL) -> VertexSet:
    """Project every point of ``vs`` pointwise, collapse duplicates, re-sort."""
    idx, labels = spec.resolve(vs.names)
    pts = vs.points[:, list(idx)] if len(vs) else np.zeros((0, len(idx)))
    meta = dict(vs.meta)
    meta["projected_from_dimension"] = vs.dimension
    return VertexSet.from_points(
        pts,
        labels,
        objectives=vs.objectives,
        complete=vs.complete,
        dedup_tol=dedup_tol,
        meta=meta,
    )
