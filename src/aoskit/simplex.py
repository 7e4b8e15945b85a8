"""Two-phase revised simplex for bounded-variable standard form.

A cold solve first drops the equality rows that depend on others
(:func:`~aoskit.standard_form.drop_redundant_equalities`), so phase 1 starts
from rows of full rank, and the result carries the cleaned form.

Handles general bounds (including free and fixed columns) without variable
splitting: a nonbasic column rests at its lower bound, its upper bound, or,
when both bounds are infinite, at zero. Phase 1 minimizes the total
artificial infeasibility; phase 2 minimizes the real objective. Dantzig
pricing with a permanent switch to Bland's rule after a long degenerate
stall keeps the method finite.

A form whose bounds were tightened after a solve (a branch-and-bound
child) is re-optimised by :func:`solve_from` without phase 1: a bounded
dual simplex runs from the earlier optimal basis, which stays dual
feasible, until the basic point is within bounds, and the primal loop then
certifies optimality with the same pricing test as a cold solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LpModel
from .standard_form import StandardForm, drop_redundant_equalities, to_standard_form

TOL_PIVOT = 1e-9
TOL_FEAS = 1e-7
TOL_DUAL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERIC_FAILURE = "numeric_failure"


def basic_point(A, b, lower, upper, basis, status) -> np.ndarray:
    """Coordinates of the basic solution for (basis, nonbasic statuses).

    A nonbasic column rests at its lower bound ("L"), its upper bound ("U"),
    or, when free ("F"), at zero; the basic columns then solve A x = b.
    """
    x = np.where(status == "L", lower, np.where(status == "U", upper, 0.0))
    if len(basis):
        nonbasic = np.ones(A.shape[1], dtype=bool)
        nonbasic[basis] = False
        # keep the nonbasic-only product: its summation order fixes the pivots
        rhs = b - A[:, nonbasic] @ x[nonbasic]
        x[basis] = np.linalg.solve(A[:, basis], rhs)
    return x


def ratio_test(lower, upper, xb, rate) -> tuple[np.ndarray, float]:
    """Step limits imposed by the bounds of the basic variables.

    ``lower``, ``upper`` and ``xb`` are the basic variables' bounds and
    values; ``rate[i]`` is d(xb[i])/dt for a unit step t of the entering
    move. Rates within TOL_PIVOT of zero never block. Returns (per-row
    ratios, smallest ratio), with inf for an unblocked row or an empty basis.
    A 2-D ``rate`` holds one column per entering move; the ratios then have
    its shape and the smallest ratio is an array, one per column.
    """
    if rate.ndim == 2:
        lower, upper, xb = (np.broadcast_to(v[:, None], rate.shape) for v in (lower, upper, xb))
    rises = (rate > TOL_PIVOT) & np.isfinite(upper)
    falls = (rate < -TOL_PIVOT) & np.isfinite(lower)
    ratios = np.full(rate.shape, np.inf)
    ratios[rises] = (upper[rises] - xb[rises]) / rate[rises]
    ratios[falls] = (xb[falls] - lower[falls]) / -rate[falls]
    ratios = np.maximum(ratios, 0.0)  # degenerate overshoot clamps to zero
    if rate.ndim == 2:
        return ratios, ratios.min(axis=0, initial=np.inf)
    return ratios, (float(ratios.min()) if ratios.size else math.inf)


def _tied(ratios: np.ndarray, t):
    """Mask of the rows whose ratio ties the smallest one, ``t``."""
    return ratios <= t * (1 + 1e-9) + 1e-12


def leaving_row(ratios: np.ndarray, t, w: np.ndarray):
    """Among the rows tied at the smallest ratio, the largest pivot |w[r]|.

    With 2-D ``ratios`` and ``w`` (one column per entering move, as
    :func:`ratio_test` returns them) and ``t`` per column, one row per column.
    """
    r = np.argmax(np.where(_tied(ratios, t), np.abs(w), -1.0), axis=0)
    return int(r) if r.ndim == 0 else r


@dataclass
class SimplexResult:
    """Solver outcome; basis and statuses describe the final vertex.

    ``sf`` is the form solved: after a cold solve, the cleaned one.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    x_std: np.ndarray | None = None
    value_std: float | None = None
    basis: tuple[int, ...] = ()
    statuses: tuple[str, ...] = ()
    sf: StandardForm | None = None
    ray: np.ndarray | None = None
    iterations: int = 0
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class _BoundedSimplex:
    """Mutable solver state over one standard form.

    Cold (``start`` None), artificials are appended for phase 1. Warm,
    ``start`` is a (basis, statuses) pair on ``sf``'s own columns: no
    artificials, and a nonbasic status that no longer names a finite bound
    moves to one that does (a column fixed from free rests at its value).
    """

    def __init__(self, sf: StandardForm, max_iter: int | None = None, start=None):
        m, n = sf.m, sf.n
        self.n_real = n
        self.iterations = 0
        if start is None:
            self.A = np.hstack([sf.A, np.zeros((m, m))])
            self.b = sf.b
            self.lower = np.concatenate([sf.lower, np.zeros(m)])
            self.upper = np.concatenate([sf.upper, np.full(m, np.inf)])
            self.basis: list[int] = []
            self.status = np.full(n + m, "L", dtype="<U1")
        else:
            self.A, self.b, self.lower, self.upper = sf.A, sf.b, sf.lower, sf.upper
            self.basis = list(start[0])
            status = np.array(start[1], dtype="<U1")
            keep_upper = (status == "U") & np.isfinite(self.upper)
            self.status = np.where((status == "B") | keep_upper, status, _resting(self.lower, self.upper))
        self.max_iter = max_iter if max_iter is not None else max(5000, 200 * (m + n))
        self.bland = False
        self.degenerate_run = 0
        self.ray: np.ndarray | None = None  # recession direction once UNBOUNDED

    # -- linear algebra helpers -------------------------------------------

    def _B(self) -> np.ndarray:
        return self.A[:, self.basis] if self.basis else np.zeros((0, 0))

    def compute_x(self) -> np.ndarray:
        return basic_point(self.A, self.b, self.lower, self.upper, self.basis, self.status)

    # -- pivoting -----------------------------------------------------------

    def _entering(self, d: np.ndarray) -> int | None:
        n_tot = self.A.shape[1]
        cand = np.zeros(n_tot, dtype=bool)
        st = self.status
        movable = (st != "B") & (self.lower != self.upper)
        cand |= movable & (st == "L") & (d < -TOL_DUAL)
        cand |= movable & (st == "U") & (d > TOL_DUAL)
        cand |= movable & (st == "F") & (np.abs(d) > TOL_DUAL)
        idx = np.nonzero(cand)[0]
        if idx.size == 0:
            return None
        if self.bland:
            return int(idx[0])
        return int(idx[np.argmax(np.abs(d[idx]))])

    def _step(self, c: np.ndarray, x: np.ndarray) -> str | None:
        """One pivot or bound flip; returns a terminal status or None.

        On UNBOUNDED the entering move is itself the recession direction:
        ``self.ray`` gets +-1 on the entering column and ``rate`` on the basis.
        """
        try:
            if self.basis:
                y = np.linalg.solve(self._B().T, c[self.basis])
                d = c - self.A.T @ y
            else:
                d = c.copy()
        except np.linalg.LinAlgError:
            return NUMERIC_FAILURE
        d[self.basis] = 0.0

        j = self._entering(d)
        if j is None:
            return OPTIMAL
        direction = 1.0 if (self.status[j] == "L" or d[j] < 0) else -1.0

        try:
            w = np.linalg.solve(self._B(), self.A[:, j]) if self.basis else np.zeros(0)
        except np.linalg.LinAlgError:
            return NUMERIC_FAILURE

        # rate of change of each basic variable as x_j moves by +t*direction
        rate = -direction * w
        ratios, t_basic = ratio_test(self.lower[self.basis], self.upper[self.basis], x[self.basis], rate)

        own_range = self.upper[j] - self.lower[j]
        if own_range <= t_basic:
            if not np.isfinite(own_range):
                self.ray = np.zeros(self.A.shape[1])
                self.ray[j] = direction
                self.ray[self.basis] = rate
                return UNBOUNDED
            # bound flip: the entering column crosses to its other bound
            self.status[j] = "U" if self.status[j] == "L" else "L"
            self.degenerate_run = self.degenerate_run + 1 if own_range <= TOL_PIVOT else 0
            return None

        if self.bland:
            tied = np.nonzero(_tied(ratios, t_basic))[0]
            r = int(tied[np.argmin(np.array(self.basis)[tied])])
        else:
            r = leaving_row(ratios, t_basic, w)
        leaving = self.basis[r]
        self.status[leaving] = "U" if rate[r] > 0 else "L"
        self.status[j] = "B"
        self.basis[r] = j

        self.degenerate_run = self.degenerate_run + 1 if t_basic <= TOL_PIVOT else 0
        return None

    def _dual_step(self, c: np.ndarray, x: np.ndarray) -> str | None:
        """One bounded dual simplex pivot; returns a terminal status or None.

        The most infeasible basic variable leaves, onto the bound it
        violates (Bland: the lowest-index one, among those beyond TOL_FEAS
        if any are). The entering column is the movable nonbasic one that
        pushes it toward that bound with the smallest dual ratio
        |d_j / alpha_j|, ties to the largest |alpha_j| (Bland: the lowest
        index). A violation counts above 1e-12 relative, so a small bound
        change is not mistaken for rounding; OPTIMAL means none is left, or
        that the ones left are within TOL_FEAS (relative) and cannot be
        pushed. INFEASIBLE means a basic variable beyond TOL_FEAS cannot be.
        """
        basis = np.array(self.basis, dtype=int)
        xb = x[basis]
        below = self.lower[basis] - xb
        above = xb - self.upper[basis]
        violation = np.maximum(below, above) / np.maximum(1.0, np.abs(xb))
        beyond = violation > TOL_FEAS
        rows = np.nonzero(beyond if beyond.any() else violation > 1e-12)[0]
        if rows.size == 0:
            return OPTIMAL
        if self.bland:
            r = int(rows[np.argmin(basis[rows])])
        else:
            r = int(rows[np.argmax(violation[rows])])
        rises = bool(below[r] > above[r])

        e_r = np.zeros(len(basis))
        e_r[r] = 1.0
        try:
            y, rho = np.linalg.solve(self._B().T, np.column_stack([c[basis], e_r])).T
        except np.linalg.LinAlgError:
            return NUMERIC_FAILURE
        d = c - self.A.T @ y
        alpha = self.A.T @ rho  # x_B[r] falls by alpha[j] per unit rise of x_j

        # push[j] > 0: moving x_j off its bound moves x_B[r] toward the violated bound
        push = -alpha if rises else alpha
        st = self.status
        movable = (st != "B") & (self.lower != self.upper)
        cand = movable & (
            ((st == "L") & (push > TOL_PIVOT))
            | ((st == "U") & (push < -TOL_PIVOT))
            | ((st == "F") & (np.abs(push) > TOL_PIVOT))
        )
        idx = np.nonzero(cand)[0]
        if idx.size == 0:
            return INFEASIBLE if beyond[r] else OPTIMAL
        ratios = np.abs(d[idx]) / np.abs(alpha[idx])
        t = float(ratios.min())
        if self.bland:
            q = int(idx[np.nonzero(_tied(ratios, t))[0][0]])
        else:
            q = int(idx[leaving_row(ratios, t, alpha[idx])])

        leaving = self.basis[r]
        self.status[leaving] = "L" if rises else "U"
        self.status[q] = "B"
        self.basis[r] = q
        self.degenerate_run = self.degenerate_run + 1 if t <= TOL_DUAL else 0
        return None

    def run(self, c: np.ndarray, step=None) -> str:
        """Iterate to a terminal status for objective c (``self.ray`` on UNBOUNDED).

        ``step`` is the primal :meth:`_step` unless given (:meth:`_dual_step`).
        """
        step = step or self._step
        stall_limit = 50 * max(1, len(self.basis))
        while True:
            if self.iterations >= self.max_iter:
                return NUMERIC_FAILURE
            self.iterations += 1
            if self.degenerate_run > stall_limit:
                self.bland = True
            outcome = step(c, self.compute_x())
            if outcome is not None:
                return outcome

    # -- phase 1 -------------------------------------------------------------

    def phase1(self) -> str:
        m, n = len(self.b), self.n_real
        self.status[:n] = _resting(self.lower[:n], self.upper[:n])
        x_rest = basic_point(self.A[:, :n], self.b, self.lower[:n], self.upper[:n], [], self.status[:n])
        resid = self.b - self.A[:, :n] @ x_rest
        for i in range(m):
            self.A[i, n + i] = 1.0 if resid[i] >= 0 else -1.0
        self.basis = list(range(n, n + m))
        self.status[n:] = "B"

        c1 = np.zeros(n + m)
        c1[n:] = 1.0
        status = self.run(c1)
        if status != OPTIMAL:
            return status
        x = self.compute_x()
        if x[n:].sum() > TOL_FEAS * max(1.0, float(np.abs(self.b).max(initial=0.0))):
            return INFEASIBLE
        if not self._expel_artificials():
            return NUMERIC_FAILURE
        # artificials are now pinned at zero and can never re-enter
        self.lower[self.n_real :] = 0.0
        self.upper[self.n_real :] = 0.0
        return OPTIMAL

    def _expel_artificials(self) -> bool:
        """Pivot residual artificials out of the basis; False if one cannot
        be, which only a row dependent on the others can cause."""
        for r in range(len(self.basis) - 1, -1, -1):
            if self.basis[r] < self.n_real:
                continue
            e_r = np.zeros(len(self.basis))
            e_r[r] = 1.0
            w_row = np.linalg.solve(self._B().T, e_r)
            vals = w_row @ self.A[:, : self.n_real]
            vals[[bj for bj in self.basis if bj < self.n_real]] = 0.0
            k = int(np.argmax(np.abs(vals)))
            if abs(vals[k]) <= TOL_PIVOT:
                return False
            art = self.basis[r]
            self.basis[r] = k
            self.status[k] = "B"
            self.status[art] = "L"
        return True


def _resting(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Nonbasic statuses at a finite bound, the lower one first, or free."""
    return np.where(np.isfinite(lower), "L", np.where(np.isfinite(upper), "U", "F"))


def solve_standard(sf: StandardForm, max_iter: int | None = None) -> SimplexResult:
    """Drop ``sf``'s dependent equality rows, then solve it to optimality.

    The result carries the cleaned form, and its message notes the rows
    dropped; a dependent row with a conflicting right-hand side makes it
    INFEASIBLE. See :class:`SimplexResult`.
    """
    sf, dropped, inconsistent = drop_redundant_equalities(sf)
    if inconsistent:
        return SimplexResult(INFEASIBLE, sf=sf, message="dependent equality rows have conflicting right-hand sides")
    solver = _BoundedSimplex(sf, max_iter=max_iter)
    try:
        status = solver.phase1()
        if status == OPTIMAL:
            c2 = np.zeros(solver.A.shape[1])
            c2[: sf.n] = sf.c
            status = solver.run(c2)
    except np.linalg.LinAlgError:
        status = NUMERIC_FAILURE
    res = _result(solver, sf, status)
    if dropped:
        res.message = (res.message + f" (dropped {len(dropped)} dependent rows)").strip()
    return res


def solve_from(sf: StandardForm, start: SimplexResult) -> SimplexResult:
    """Re-optimise ``sf`` from the optimal basis of ``start``, without phase 1.

    ``sf`` has ``start.sf``'s rows and columns, only its bounds may differ.
    After tightened bounds the basis stays dual feasible: a bounded dual
    simplex restores primal feasibility (or proves the form infeasible), and
    the primal loop then certifies optimality as in a cold solve.
    ``iterations`` counts both loops.
    """
    solver = _BoundedSimplex(sf, start=(start.basis, start.statuses))
    try:
        status = solver.run(sf.c, solver._dual_step)
        if status == OPTIMAL:
            status = solver.run(sf.c)
    except np.linalg.LinAlgError:
        status = NUMERIC_FAILURE
    return _result(solver, sf, status)


_MESSAGES = {
    UNBOUNDED: "objective improves without limit along the reported ray",
    INFEASIBLE: "no point satisfies all constraints and bounds",
    NUMERIC_FAILURE: "pivoting failed to converge or hit a singular basis",
}


def _result(solver: _BoundedSimplex, sf: StandardForm, status: str) -> SimplexResult:
    """The outcome of a finished run of ``solver`` on ``sf``."""
    res = SimplexResult(status=status, sf=sf, iterations=solver.iterations, message=_MESSAGES.get(status, ""))
    if status == OPTIMAL:
        res.x_std = solver.compute_x()[: sf.n]
        res.value_std = float(sf.c @ res.x_std)
        res.x, res.value = sf.recover(res.x_std), sf.original_value(res.value_std)
        res.basis, res.statuses = tuple(solver.basis), tuple(solver.status[: sf.n])
    elif status == UNBOUNDED:
        res.ray = sf.recover(solver.ray[: sf.n])
    return res


def solve_model(model: LpModel, max_iter: int | None = None) -> SimplexResult:
    """Translate ``model`` to standard form and solve it (:func:`solve_standard`)."""
    return solve_standard(to_standard_form(model), max_iter=max_iter)
