"""One branch-and-bound tree for binary optima and their solution pools."""
from __future__ import annotations

import bisect
import dataclasses
import math
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


def _children(model: LpModel, fixes: dict[str, int], name: str, first: int) -> list[dict[str, int]]:
    """Nodes fixing ``name`` within its own bounds, pushed so LIFO explores ``first`` first.

    ``_fix_variables`` replaces bounds, so an out-of-bounds value must not be a child.
    """
    v = model.variables[model.variable_index(name)]
    return [{**fixes, name: val} for val in (1 - first, first) if v.lower - INT_TOL <= val <= v.upper + INT_TOL]


def _tree(model: LpModel, names: tuple[str, ...], spec: SublevelSpec, limit: int):
    """Depth-first branch and bound keeping the best ``limit`` fully fixed leaves.

    Branches on the lowest-index fractional binary, 0 first. At an integral
    relaxation it branches on the lowest-index unfixed binary, and the child
    keeping the relaxation's value goes first, reusing the parent's result
    when that value is exact. Keys are ``sign * value``. Once a leaf is found,
    a key above the level of the root or of the best leaf, whichever is
    worse, is pruned (``resolve`` falls as z falls when gap > 1 and z < -1).
    Once ``limit`` leaves are held, so is a key that does not beat the worst
    by more than ``VALUE_TOL``: the first leaf found wins a tie.

    Returns the ``(assignment, result)`` pairs within ``tau``, best first,
    ``tau`` (None without a leaf) and the LP count. A numerically failed
    solve ends the walk and is returned as the only pair.
    """
    idx = [model.variable_index(n) for n in names]
    sense = model.objective.sense
    sign = 1.0 if sense == "min" else -1.0
    leaves: list[tuple[float, tuple[int, ...], SimplexResult]] = []  # ascending (key, assignment)
    root_level = level = math.inf
    solves = 0

    def pruned(key: float) -> bool:
        return key > level + VALUE_TOL or (len(leaves) == limit and key >= leaves[-1][0] - VALUE_TOL)

    stack: list[tuple[dict[str, int], float, SimplexResult | None]] = [({}, -math.inf, None)]
    while stack:
        fixes, parent_key, res = stack.pop()
        if pruned(parent_key):
            continue
        if res is None:
            res = solve_model(_fix_variables(model, fixes))
            solves += 1
            if res.status == NUMERIC_FAILURE:
                return [((), res)], None, solves
        if res.status != OPTIMAL:
            continue
        key = sign * res.value
        if pruned(key):
            continue
        if not fixes:
            root_level = sign * spec.resolve(res.value, sense)
        if len(fixes) == len(names):
            bisect.insort(leaves, (key, tuple(fixes[n] for n in names), res), key=lambda leaf: leaf[:2])
            del leaves[limit:]
            level = max(root_level, sign * spec.resolve(leaves[0][2].value, sense))
            continue
        pos = _first_fractional(res.x, idx)
        first = 0
        if pos is None:
            pos = next(p for p, n in enumerate(names) if n not in fixes)
            first = int(round(res.x[idx[pos]]))
        for child in _children(model, fixes, names[pos], first):
            stack.append((child, key, res if res.x[idx[pos]] == child[names[pos]] else None))

    if not leaves:
        return [], None, solves
    tau = spec.resolve(leaves[0][2].value, sense)
    return [(a, r) for k, a, r in leaves if k <= sign * tau + VALUE_TOL], tau, solves


def solve_binary(model: LpModel, binary_vars) -> SimplexResult:
    """Optimal point with the named variables restricted to {0, 1}.

    The pool tree at gap 0 holding one leaf: depth-first branch and bound
    over the LP relaxation, lowest-index fractional binary first, 0-branch
    first, pruned on bound; the first incumbent wins objective ties.
    """
    leaves, _, solves = _tree(model, _checked_binary_names(model, binary_vars), SublevelSpec(gap=0.0), 1)
    if not leaves:
        return SimplexResult(status=INFEASIBLE, message="no binary assignment is feasible")
    best = leaves[0][1]
    if best.status == OPTIMAL:
        best.message = f"branch-and-bound over {solves} LP relaxations"
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

    One depth-first tree finds the optimum and the pool together: ``tau`` is
    resolved from the best fully fixed leaf, and the level a node is pruned
    at follows the incumbent. Entries are sorted best objective first, ties
    by assignment lexicographically, and the best ``limit`` are kept; a tie
    within ``VALUE_TOL`` at the ``limit`` boundary keeps the assignment
    found first, not the lexicographically smallest.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    names = _checked_binary_names(model, binary_vars)
    leaves, tau, _ = _tree(model, names, spec, limit)
    if leaves and leaves[0][1].status == NUMERIC_FAILURE:
        raise ArithmeticError(f"binary solve failed: {leaves[0][1].message}")
    return BinarySolutionPool(
        names=names,
        assignments=[a for a, _ in leaves],
        values=[r.value for _, r in leaves],
        tau=tau,
        exhausted=len(leaves) < limit,
    )
