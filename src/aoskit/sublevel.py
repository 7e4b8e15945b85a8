"""Near-optimal sublevel restrictions of a linear program.

A sublevel model is the original feasible region intersected with
"objective no worse than tau". For minimization that is c.x <= tau; for
maximization the cut flips to c.x >= tau.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .model import Constraint, LpModel, Variable


@dataclass(frozen=True)
class SublevelSpec:
    """Level choice: an absolute ``tau`` or a relative ``gap``, never both.

    A relative gap widens the optimum by ``gap * max(1, |z_star|)`` in the
    direction of worse objective values, so gap=0 pins the optimal face and
    the scaling stays sane when z_star is near zero.
    """

    tau: float | None = None
    gap: float | None = None

    def __post_init__(self):
        if (self.tau is None) == (self.gap is None):
            raise ValueError("exactly one of tau and gap must be given")
        if self.gap is not None and (self.gap < 0 or math.isnan(self.gap)):
            raise ValueError(f"gap must be nonnegative, got {self.gap}")
        if self.tau is not None and math.isnan(self.tau):
            raise ValueError("tau is NaN")

    def resolve(self, z_star: float, sense: str) -> float:
        """The level at the optimal value ``z_star``. An absolute tau beyond
        it by rounding only (not provably empty) is ``z_star`` itself."""
        if self.tau is not None:
            beyond = self.tau < z_star if sense == "min" else self.tau > z_star
            return float(z_star if beyond and not _provably_empty(z_star, self.tau, sense) else self.tau)
        slack = self.gap * max(1.0, abs(z_star))
        return float(z_star + slack) if sense == "min" else float(z_star - slack)


def _provably_empty(z_star: float, tau: float, sense: str) -> bool:
    """Whether the level ``tau`` lies beyond the optimal value ``z_star``
    (below it for minimization) by more than 1e-9 * max(1, |z_star|).

    Such a sublevel set is empty. A level closer to the optimum than that is
    rounding away from it, which :meth:`SublevelSpec.resolve` undoes.
    """
    slack = 1e-9 * max(1.0, abs(z_star))
    if sense == "min":
        return tau < z_star - slack
    return tau > z_star + slack


def make_sublevel_model(model: LpModel, z_star: float, spec: SublevelSpec) -> LpModel:
    """Append the objective-level cut at the level ``spec`` resolves to.

    ``z_star`` must be the model's optimal value; with an absolute tau it is
    still required so callers cannot skip solving first, but only the gap
    form consumes it.
    """
    tau = spec.resolve(z_star, model.objective.sense)
    return add_level_cut(model, tau)


def add_level_cut(model: LpModel, tau: float) -> LpModel:
    """Append "objective value no worse than tau" as a linear constraint."""
    if not model.objective.coeffs:
        raise ValueError("model has an empty objective; a level cut would be vacuous")
    sense = "<=" if model.objective.sense == "min" else ">="
    cut = Constraint(coeffs=dict(model.objective.coeffs), sense=sense, rhs=tau - model.objective.constant)
    return model.with_constraint(cut, note={"sublevel_tau": tau})


def apply_box_bounds(model: LpModel, box: float) -> LpModel:
    """Replace every infinite bound with -box / +box.

    Needed before vertex enumeration when the region is unbounded along
    some direction, e.g. the uniform-shift freedom of voltage angles.
    """
    if not (box > 0) or math.isinf(box) or math.isnan(box):
        raise ValueError(f"box bound must be a positive finite number, got {box}")
    new_vars = []
    changed = []
    for v in model.variables:
        lo = -box if math.isinf(v.lower) else v.lower
        hi = box if math.isinf(v.upper) else v.upper
        if lo > hi:
            raise ValueError(
                f"box bound {box} conflicts with existing bounds of {v.name!r} [{v.lower}, {v.upper}]"
            )
        if (lo, hi) != (v.lower, v.upper):
            changed.append(v.name)
            v = dataclasses.replace(v, lower=lo, upper=hi)
        new_vars.append(v)
    meta = dict(model.metadata)
    if changed:
        meta["box_bound"] = box
        meta["box_bounded_variables"] = changed
    return LpModel(new_vars, model.constraints, model.objective, metadata=meta)
