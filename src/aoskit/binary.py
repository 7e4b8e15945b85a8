"""One branch-and-bound tree for binary optima and their solution pools.

The tree builds one standard form and solves its root cold. A child differs
from its parent only in one binary's bounds, so it copies the parent's
bound arrays, fixes that column, and is re-optimised from the parent's
optimal basis by a bounded dual simplex (:func:`simplex.solve_from`); a warm
solve that fails numerically is repeated cold once.
"""
from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .model import LpModel
from .simplex import INFEASIBLE, NUMERIC_FAILURE, OPTIMAL, SimplexResult, solve_from, solve_model, solve_standard
from .sublevel import SublevelSpec, _provably_empty

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


def _counted(stats: dict, res: SimplexResult) -> SimplexResult:
    stats["lp_solves"] += 1
    stats["pivots"] += res.iterations
    return res


def _solve_child(parent: SimplexResult, j: int, value: int, stats: dict) -> SimplexResult:
    """The parent's relaxation with standard-form column ``j`` fixed at ``value``.

    A parent point already at ``value`` is the child's optimum and is reused
    with the child's bounds. Otherwise the child is re-optimised from the
    parent's basis, and re-solved cold once if that fails numerically.
    """
    lower, upper = parent.sf.lower.copy(), parent.sf.upper.copy()
    lower[j] = upper[j] = float(value)
    sf = dataclasses.replace(parent.sf, lower=lower, upper=upper)
    if parent.x_std[j] == value:
        return dataclasses.replace(parent, sf=sf)
    res = _counted(stats, solve_from(sf, parent))
    if res.status == NUMERIC_FAILURE:
        res = _counted(stats, solve_standard(sf))
    return res


def _first_fractional(x: np.ndarray, idx: list[int]) -> int | None:
    """Position in ``idx`` of the lowest-index binary that ``x`` leaves fractional."""
    return next((pos for pos, j in enumerate(idx) if abs(x[j] - round(x[j])) > INT_TOL), None)


def _children(model: LpModel, name: str, first: int) -> list[int]:
    """Values fixing ``name`` within its own bounds, pushed so LIFO explores ``first`` first.

    A fix replaces the bounds, so an out-of-bounds value must not be a child.
    """
    v = model.variables[model.variable_index(name)]
    return [val for val in (1 - first, first) if v.lower - INT_TOL <= val <= v.upper + INT_TOL]


def _tree(model: LpModel, names: tuple[str, ...], spec: SublevelSpec, limit: int):
    """Depth-first branch and bound keeping the best ``limit`` fully fixed leaves.

    Branches on the lowest-index fractional binary, 0 first. At an integral
    relaxation it branches on the lowest-index unfixed binary, and the child
    keeping the relaxation's value goes first, reusing the parent's result
    when that value is exact. Keys are ``sign * value``. Once a leaf is found,
    a key past the level of the root or of the best leaf, whichever is
    worse, by more than the band :meth:`SublevelSpec.resolve` folds into the
    optimum is pruned (``resolve`` falls as z falls when gap > 1 and z < -1).
    Once ``limit`` leaves are held, so is a key that does not beat the worst
    by more than ``VALUE_TOL``: the first leaf found wins a tie.

    The root is solved cold through :func:`solve_model`, the tree's one
    standard form; every other node through :func:`_solve_child`.

    Returns the ``(assignment, result)`` pairs within ``tau``, best first,
    ``tau`` (None without a leaf) and the counters ``lp_solves`` (every LP
    solved, warm or cold) and ``pivots`` (their iterations). A node whose
    solve fails numerically, cold as well, ends the walk and is returned as
    the only pair.
    """
    idx = [model.variable_index(n) for n in names]
    sense = model.objective.sense
    sign = 1.0 if sense == "min" else -1.0
    leaves: list[tuple[float, tuple[int, ...], SimplexResult]] = []  # ascending (key, assignment)
    root_level = level = math.inf
    stats = {"lp_solves": 0, "pivots": 0}

    def pruned(key: float) -> bool:
        # nothing below a node beats its key: the level may be empty there
        return _provably_empty(key, level, "min") or (len(leaves) == limit and key >= leaves[-1][0] - VALUE_TOL)

    # (fixes, parent key, parent result, branched position); the root has no parent
    stack: list[tuple[dict[str, int], float, SimplexResult | None, int]] = [({}, -math.inf, None, -1)]
    while stack:
        fixes, parent_key, parent, pos = stack.pop()
        if pruned(parent_key):
            continue
        if parent is None:
            res = _counted(stats, solve_model(model))
        else:
            res = _solve_child(parent, idx[pos], fixes[names[pos]], stats)
        if res.status == NUMERIC_FAILURE:
            return [((), res)], None, stats
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
        for val in _children(model, names[pos], first):
            stack.append(({**fixes, names[pos]: val}, key, res, pos))

    if not leaves:
        return [], None, stats
    tau = spec.resolve(leaves[0][2].value, sense)
    return [(a, r) for k, a, r in leaves if k <= sign * tau + VALUE_TOL], tau, stats


def solve_binary(model: LpModel, binary_vars) -> SimplexResult:
    """Optimal point with the named variables restricted to {0, 1}.

    The pool tree at gap 0 holding one leaf: depth-first branch and bound
    over the LP relaxation, lowest-index fractional binary first, 0-branch
    first, pruned on bound; the first incumbent wins objective ties.
    """
    leaves, _, stats = _tree(model, _checked_binary_names(model, binary_vars), SublevelSpec(gap=0.0), 1)
    if not leaves:
        return SimplexResult(status=INFEASIBLE, message="no binary assignment is feasible")
    best = leaves[0][1]
    if best.status == OPTIMAL:
        best.message = f"branch-and-bound over {stats['lp_solves']} LP relaxations"
    return best


@dataclass
class BinarySolutionPool:
    """Alternative binary solutions within the level value, best first.

    ``exhausted`` is the completeness claim: True means no further feasible
    binary assignment with objective within ``tau`` exists. ``stats`` holds
    the tree's deterministic counters: ``lp_solves`` (every LP solved, warm
    or cold) and ``pivots`` (their simplex iterations).
    """

    names: tuple[str, ...]
    assignments: list[tuple[int, ...]]
    values: list[float]
    tau: float | None
    exhausted: bool
    stats: dict = field(default_factory=dict)

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
            "stats": dict(self.stats),
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
    leaves, tau, stats = _tree(model, names, spec, limit)
    if leaves and leaves[0][1].status == NUMERIC_FAILURE:
        raise ArithmeticError(f"binary solve failed: {leaves[0][1].message}")
    return BinarySolutionPool(
        names=names,
        assignments=[a for a, _ in leaves],
        values=[r.value for _, r in leaves],
        tau=tau,
        exhausted=len(leaves) < limit,
        stats=stats,
    )
