"""Branch-and-bound for binary programs and single-tree solution pools."""
from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import LpModel
from .simplex import INFEASIBLE, NUMERIC_FAILURE, OPTIMAL, SimplexResult, solve_model
from .sublevel import SublevelSpec

INT_TOL = 1e-6
VALUE_TOL = 1e-9


def _checked_binary_names(model: LpModel, binary_vars) -> tuple[str, ...]:
    """Binary variable names in model declaration order, bounds validated."""
    requested = set(binary_vars)
    unknown = requested - set(model.variable_names)
    if unknown:
        raise ValueError(f"binary variables not in the model: {sorted(unknown)}")
    names = tuple(n for n in model.variable_names if n in requested)
    for n in names:
        v = model.variables[model.variable_index(n)]
        if v.lower < -INT_TOL or v.upper > 1 + INT_TOL:
            raise ValueError(
                f"binary variable {n!r} must have bounds within [0,1], got [{v.lower}, {v.upper}]"
            )
    return names


def _fix_variables(model: LpModel, fixes: dict[str, int]) -> LpModel:
    new_vars = []
    for v in model.variables:
        if v.name in fixes:
            val = float(fixes[v.name])
            v = dataclasses.replace(v, lower=val, upper=val)
        new_vars.append(v)
    return LpModel(new_vars, model.constraints, model.objective, metadata=model.metadata)


def _first_fractional(x: np.ndarray, idx: list[int]) -> int | None:
    """Position in ``idx`` of the lowest-index binary that ``x`` leaves fractional."""
    return next((pos for pos, j in enumerate(idx) if abs(x[j] - round(x[j])) > INT_TOL), None)


def _children(model: LpModel, fixes: dict[str, int], name: str) -> list[dict[str, int]]:
    """Nodes fixing ``name`` within its own bounds, pushed so LIFO explores 0 first.

    ``_fix_variables`` replaces bounds, so an out-of-bounds value must not be a child.
    """
    v = model.variables[model.variable_index(name)]
    return [{**fixes, name: val} for val in (1, 0) if v.lower - INT_TOL <= val <= v.upper + INT_TOL]


def solve_binary(model: LpModel, binary_vars) -> SimplexResult:
    """Optimal point with the named variables restricted to {0, 1}.

    Depth-first branch and bound over the LP relaxation: branch on the
    lowest-index fractional binary, explore the 0-branch first, prune on
    bound; the first incumbent wins objective ties.
    """
    names = _checked_binary_names(model, binary_vars)
    sense = model.objective.sense
    idx = [model.variable_index(n) for n in names]

    best: SimplexResult | None = None

    def worse_or_equal(value: float) -> bool:
        """True when a relaxation bound cannot strictly beat the incumbent."""
        assert best is not None
        if sense == "min":
            return value >= best.value - VALUE_TOL
        return value <= best.value + VALUE_TOL

    stack: list[dict[str, int]] = [{}]
    relaxations_solved = 0
    while stack:
        fixes = stack.pop()
        res = solve_model(_fix_variables(model, fixes))
        relaxations_solved += 1
        if res.status == NUMERIC_FAILURE:
            return res
        if res.status != OPTIMAL:
            continue
        if best is not None and worse_or_equal(res.value):
            continue
        frac = _first_fractional(res.x, idx)
        if frac is None:
            # integral relaxation: re-solve with binaries pinned for a clean completion
            snapped = dict(fixes)
            for pos, j in enumerate(idx):
                snapped[names[pos]] = int(round(res.x[j]))
            clean = solve_model(_fix_variables(model, snapped))
            if clean.status == OPTIMAL and (best is None or not worse_or_equal(clean.value)):
                best = clean
            continue
        stack.extend(_children(model, fixes, names[frac]))

    if best is None:
        return SimplexResult(status=INFEASIBLE, message="no binary assignment is feasible")
    best.message = f"branch-and-bound over {relaxations_solved} LP relaxations"
    return best


@dataclass
class BinarySolutionPool:
    """Alternative binary solutions within the level value, best first.

    ``exhausted`` is the completeness claim: True means no further feasible
    binary assignment with objective within ``tau`` exists.
    """

    names: tuple[str, ...]
    assignments: list[tuple[int, ...]]
    values: list[float]
    tau: float | None
    exhausted: bool

    def __len__(self) -> int:
        return len(self.assignments)

    def __contains__(self, assignment) -> bool:
        return tuple(int(v) for v in assignment) in set(self.assignments)

    def to_json_dict(self) -> dict:
        return {
            "binary_names": list(self.names),
            "count": len(self),
            "tau": self.tau,
            "exhausted": self.exhausted,
            "entries": [
                {"assignment": list(a), "value": v}
                for a, v in zip(self.assignments, self.values)
            ],
        }


def enumerate_binary(
    model: LpModel, binary_vars, spec: SublevelSpec, limit: int = 1000
) -> BinarySolutionPool:
    """All binary-feasible assignments within the sublevel of ``spec``.

    ``solve_binary`` finds the optimum that ``spec`` resolves to the level
    ``tau``. One depth-first tree then prunes every node whose relaxation is
    worse than ``tau`` or, once ``limit`` entries are held, worse than the
    worst of them. A node whose relaxation is integral still branches on its
    lowest-index unfixed binary, because other assignments within the level
    can lie below it; every fully fixed leaf within the bound is an entry.
    Entries are sorted best objective first, ties by assignment
    lexicographically, and the best ``limit`` are kept.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    names = _checked_binary_names(model, binary_vars)
    idx = [model.variable_index(n) for n in names]
    sense = model.objective.sense

    first = solve_binary(model, names)
    if first.status == NUMERIC_FAILURE:
        raise ArithmeticError(f"binary solve failed: {first.message}")
    if first.status != OPTIMAL:
        return BinarySolutionPool(names, [], [], tau=None, exhausted=True)
    tau = spec.resolve(first.value, sense)

    sign = 1.0 if sense == "min" else -1.0
    entries: list[tuple[float, tuple[int, ...]]] = []  # (sign * value, assignment), ascending
    stack: list[dict[str, int]] = [{}]
    while stack:
        fixes = stack.pop()
        res = solve_model(_fix_variables(model, fixes))
        if res.status == NUMERIC_FAILURE:
            raise ArithmeticError(f"binary solve failed: {res.message}")
        bound = entries[-1][0] if len(entries) == limit else sign * tau
        if res.status != OPTIMAL or sign * res.value > bound + VALUE_TOL:
            continue
        if len(fixes) == len(names):
            bisect.insort(entries, (sign * res.value, tuple(fixes[n] for n in names)))
            del entries[limit:]
            continue
        pos = _first_fractional(res.x, idx)
        if pos is None:
            pos = next(p for p, n in enumerate(names) if n not in fixes)
        stack.extend(_children(model, fixes, names[pos]))

    return BinarySolutionPool(
        names=names,
        assignments=[a for _, a in entries],
        values=[sign * key for key, _ in entries],
        tau=tau,
        exhausted=len(entries) < limit,
    )
