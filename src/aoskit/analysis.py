"""Cross-model analyses: containment checking, hull membership, ranking.

The containment check is deliberately pointwise: each projected vertex is
evaluated against every constraint of the relaxed sublevel model. That way
a failure names a concrete violated constraint instead of relying on a
second enumeration being correct.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Constraint, LpModel, Objective, Variable
from .projection import ProjectionSpec, project_set
from .sets import DEDUP_TOL, VertexSet, order_keys
from .simplex import INFEASIBLE, OPTIMAL, solve_model
from .sublevel import SublevelSpec, make_sublevel_model
from .vertices import NumericFailureError

CONTAINMENT_TOL = 1e-6


@dataclass
class PairResult:
    """One projected-set-versus-relaxed-model check."""

    label: str
    tau: float
    tolerance: float
    names: tuple[str, ...]
    points: np.ndarray
    violations: list[float]
    worst_constraints: list[str]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "tau": self.tau,
            "tolerance": self.tolerance,
            "names": list(self.names),
            "passed": self.passed,
            "points": [
                {
                    "point": list(map(float, p)),
                    "max_violation": v,
                    "worst_constraint": w,
                    "contained": v <= self.tolerance,
                }
                for p, v, w in zip(self.points, self.violations, self.worst_constraints)
            ],
        }


@dataclass
class ContainmentReport:
    """Aggregated pair checks; passes only when every pair passes."""

    pairs: list[PairResult]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.pairs)

    @classmethod
    def combine(cls, reports: "list[ContainmentReport]") -> "ContainmentReport":
        return cls([p for r in reports for p in r.pairs])

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "pairs": [p.to_json_dict() for p in self.pairs]}


def check_containment(
    points: VertexSet,
    projection: ProjectionSpec,
    relaxed_model: LpModel,
    z_star: float,
    spec: SublevelSpec,
    dedup_tol: float = DEDUP_TOL,
    label: str | None = None,
) -> ContainmentReport:
    """Test that the projected points all satisfy the relaxed sublevel model.

    The level cut is resolved from ``z_star`` and ``spec`` against the
    relaxed model's objective sense; both sides of a containment claim must
    share one level value, so callers comparing several relaxations should
    resolve tau once and pass it as an absolute spec.
    """
    relaxed_sub = make_sublevel_model(relaxed_model, z_star, spec)
    tau = relaxed_sub.metadata["sublevel_tau"]
    projected = project_set(points, projection, dedup_tol)
    if projected.names != relaxed_model.variable_names:
        raise ValueError(
            f"projected coordinates {projected.names} do not match the relaxed model's "
            f"variables {relaxed_model.variable_names}"
        )
    labels = relaxed_sub.constraint_labels()
    violations: list[float] = []
    worst: list[str] = []
    for p in projected.points:
        v = relaxed_sub.violations(p)
        i = int(np.argmax(v)) if v.size else 0
        violations.append(float(v[i]) if v.size else 0.0)
        worst.append(labels[i] if v.size else "")
    pair = PairResult(
        label=label or f"->{relaxed_model.metadata.get('model_family', 'relaxed')}",
        tau=tau,
        tolerance=CONTAINMENT_TOL,
        names=projected.names,
        points=projected.points,
        violations=violations,
        worst_constraints=worst,
        passed=all(v <= CONTAINMENT_TOL for v in violations),
    )
    return ContainmentReport([pair])


def is_in_convex_hull(q, generators) -> bool:
    """Whether q is a convex combination of the generator points.

    Solves the membership LP (weights in the simplex reproducing q) with
    the bundled solver; feasibility is the answer.
    """
    q = np.asarray(q, dtype=float)
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("generators must be non-empty")
    if any(g.shape != q.shape for g in gens):
        raise ValueError("generator dimensions do not match the query point")
    variables = [Variable(f"w[{i}]", 0.0, 1.0) for i in range(len(gens))]
    constraints = [
        Constraint(coeffs={f"w[{i}]": 1.0 for i in range(len(gens))}, sense="=", rhs=1.0)
    ]
    for t in range(q.shape[0]):
        constraints.append(
            Constraint(
                coeffs={f"w[{i}]": float(g[t]) for i, g in enumerate(gens)},
                sense="=",
                rhs=float(q[t]),
            )
        )
    res = solve_model(LpModel(variables, constraints, Objective("min", {})))
    if res.status == OPTIMAL:
        return True
    if res.status == INFEASIBLE:
        return False
    raise NumericFailureError(f"membership LP ended with status {res.status}")


@dataclass
class RankedAlternatives:
    """Vertex set reordered by a secondary criterion, best first.

    ``values`` aligns with ``points``; values equal up to rounding noise
    tie, and tied points keep the vertex set's canonical order, so the
    order is reproducible. ``method`` records whether values came from a
    linear objective or external per-point scores.
    """

    names: tuple[str, ...]
    points: np.ndarray
    values: np.ndarray
    sense: str
    method: str
    secondary: Objective | None = None

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def best(self) -> tuple[np.ndarray, float] | None:
        return (self.points[0], float(self.values[0])) if len(self) else None

    @property
    def worst(self) -> tuple[np.ndarray, float] | None:
        return (self.points[-1], float(self.values[-1])) if len(self) else None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "names": list(self.names),
            "sense": self.sense,
            "method": self.method,
            "count": len(self),
            "entries": [
                {
                    "point": list(map(float, p)),
                    "value": float(v),
                    "best": i == 0,
                    "worst": i == len(self) - 1,
                }
                for i, (p, v) in enumerate(zip(self.points, self.values))
            ],
        }
        if self.secondary is not None:
            doc["secondary"] = {
                "sense": self.secondary.sense,
                "coeffs": dict(self.secondary.coeffs),
                "constant": self.secondary.constant,
            }
        return doc


def _ranked(vs: VertexSet, values: np.ndarray, sense: str, method: str, secondary=None):
    sign = 1.0 if sense == "min" else -1.0
    # values within rounding noise tie and keep the set's canonical order
    order = np.argsort(order_keys(sign * values)[0], kind="stable")
    return RankedAlternatives(
        names=vs.names,
        points=vs.points[order] if len(vs) else vs.points,
        values=values[order] if len(vs) else values,
        sense=sense,
        method=method,
        secondary=secondary,
    )


def rank_alternatives(vs: VertexSet, secondary: Objective) -> RankedAlternatives:
    """Order the points by a linear secondary objective, best first.

    Linear criteria attain their extremes at vertices, so ranking the
    vertex list alone already locates the secondary optimum over the whole
    sublevel polytope.
    """
    unknown = [n for n in secondary.coeffs if n not in vs.names]
    if unknown:
        raise ValueError(f"secondary objective references unknown variables {unknown}")
    c = np.array([secondary.coeffs.get(n, 0.0) for n in vs.names])
    values = (vs.points @ c + secondary.constant) if len(vs) else np.zeros(0)
    return _ranked(vs, values, secondary.sense, "linear", secondary)


def rank_by_scores(vs: VertexSet, scores, sense: str = "max") -> RankedAlternatives:
    """Order the points by externally supplied per-point scores.

    Scores align with the vertex set's own point order; this is the entry
    path for criteria evaluated outside the toolkit (simulators, committee
    judgments), which need not be linear.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be min or max, got {sense!r}")
    values = np.asarray(list(scores), dtype=float)
    if values.shape != (len(vs),):
        raise ValueError(f"expected {len(vs)} scores, got {values.shape}")
    return _ranked(vs, values, sense, "scores")


def compare_projected_sets(a: VertexSet, b: VertexSet, dedup_tol: float = DEDUP_TOL) -> str:
    """Set relation between two point sets under tolerance.

    Returns one of "equal", "a_subset_of_b", "b_subset_of_a",
    "incomparable" (strict subsets; "equal" covers mutual containment).
    """
    a_in_b = a.is_subset_of(b, dedup_tol)
    b_in_a = b.is_subset_of(a, dedup_tol)
    if a_in_b and b_in_a:
        return "equal"
    if a_in_b:
        return "a_subset_of_b"
    if b_in_a:
        return "b_subset_of_a"
    return "incomparable"
