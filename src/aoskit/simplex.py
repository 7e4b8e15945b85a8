"""Two-phase revised simplex for bounded-variable standard form.

Handles general bounds (including free and fixed columns) without variable
splitting: a nonbasic column rests at its lower bound, its upper bound, or,
when both bounds are infinite, at zero. Phase 1 minimizes the total
artificial infeasibility; phase 2 minimizes the real objective. Dantzig
pricing with a permanent switch to Bland's rule after a long degenerate
stall keeps the method finite.
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
    """Solver outcome; basis and statuses describe the final vertex."""

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
    """Mutable solver state over one standard form, artificials appended."""

    def __init__(self, sf: StandardForm, max_iter: int | None = None):
        self.sf = sf
        m, n = sf.m, sf.n
        self.n_real = n
        self.A = np.hstack([sf.A, np.zeros((m, m))])
        self.b = sf.b.copy()
        self.lower = np.concatenate([sf.lower, np.zeros(m)])
        self.upper = np.concatenate([sf.upper, np.full(m, np.inf)])
        self.row_keep = list(range(m))
        self.basis: list[int] = []
        self.status = np.full(n + m, "L", dtype="<U1")
        self.iterations = 0
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

    def run(self, c: np.ndarray) -> str:
        """Iterate to a terminal status for objective c (``self.ray`` on UNBOUNDED)."""
        stall_limit = 50 * max(1, len(self.basis))
        while True:
            if self.iterations >= self.max_iter:
                return NUMERIC_FAILURE
            self.iterations += 1
            if self.degenerate_run > stall_limit:
                self.bland = True
            outcome = self._step(c, self.compute_x())
            if outcome is not None:
                return outcome

    # -- phase 1 -------------------------------------------------------------

    def phase1(self) -> str:
        m, n = len(self.b), self.n_real
        for j in range(n):
            if np.isfinite(self.lower[j]):
                self.status[j] = "L"
            elif np.isfinite(self.upper[j]):
                self.status[j] = "U"
            else:
                self.status[j] = "F"
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
        self._expel_artificials()
        # artificials are now pinned at zero and can never re-enter
        self.lower[self.n_real :] = 0.0
        self.upper[self.n_real :] = 0.0
        return OPTIMAL

    def _expel_artificials(self):
        """Pivot residual artificials out of the basis, dropping truly null rows."""
        for r in range(len(self.basis) - 1, -1, -1):
            if self.basis[r] < self.n_real:
                continue
            e_r = np.zeros(len(self.basis))
            e_r[r] = 1.0
            w_row = np.linalg.solve(self._B().T, e_r)
            vals = w_row @ self.A[:, : self.n_real]
            vals[[bj for bj in self.basis if bj < self.n_real]] = 0.0
            k = int(np.argmax(np.abs(vals)))
            if abs(vals[k]) > TOL_PIVOT:
                art = self.basis[r]
                self.basis[r] = k
                self.status[k] = "B"
                self.status[art] = "L"
            else:
                self._drop_row(r)

    def _drop_row(self, r: int):
        art = self.basis[r]
        keep = [i for i in range(len(self.b)) if i != r]
        self.A = self.A[keep]
        self.b = self.b[keep]
        del self.row_keep[r]
        del self.basis[r]
        self.status[art] = "L"
        self.upper[art] = 0.0


def solve_standard(sf: StandardForm, max_iter: int | None = None) -> SimplexResult:
    """Solve a standard form to optimality; see :class:`SimplexResult`."""
    solver = _BoundedSimplex(sf, max_iter=max_iter)
    try:
        status = solver.phase1()
        if status == OPTIMAL:
            c2 = np.zeros(solver.A.shape[1])
            c2[: sf.n] = sf.c
            status = solver.run(c2)
    except np.linalg.LinAlgError:
        status = NUMERIC_FAILURE

    kept = solver.row_keep
    used_sf = sf
    if len(kept) != sf.m:
        used_sf = StandardForm(
            A=sf.A[kept].copy(),
            b=sf.b[kept].copy(),
            c=sf.c,
            lower=sf.lower,
            upper=sf.upper,
            col_names=sf.col_names,
            n_original=sf.n_original,
            sense_sign=sf.sense_sign,
            obj_constant=sf.obj_constant,
            row_origin=tuple(sf.row_origin[i] for i in kept),
        )

    if status == OPTIMAL:
        x_full = solver.compute_x()
        x_std = x_full[: sf.n]
        value_std = float(sf.c @ x_std)
        return SimplexResult(
            status=OPTIMAL,
            x=used_sf.recover(x_std),
            value=used_sf.original_value(value_std),
            x_std=x_std,
            value_std=value_std,
            basis=tuple(solver.basis),
            statuses=tuple(solver.status[: sf.n]),
            sf=used_sf,
            iterations=solver.iterations,
        )
    if status == UNBOUNDED:
        return SimplexResult(
            status=UNBOUNDED,
            sf=used_sf,
            ray=used_sf.recover(solver.ray[: sf.n]),
            iterations=solver.iterations,
            message="objective improves without limit along the reported ray",
        )
    if status == INFEASIBLE:
        return SimplexResult(
            status=INFEASIBLE,
            sf=used_sf,
            iterations=solver.iterations,
            message="no point satisfies all constraints and bounds",
        )
    return SimplexResult(
        status=NUMERIC_FAILURE,
        sf=used_sf,
        iterations=solver.iterations,
        message="pivoting failed to converge or hit a singular basis",
    )


def solve_model(model: LpModel, max_iter: int | None = None) -> SimplexResult:
    """Translate to standard form, clean dependent rows, and solve."""
    sf = to_standard_form(model)
    sf, dropped, inconsistent = drop_redundant_equalities(sf)
    if inconsistent:
        return SimplexResult(
            status=INFEASIBLE,
            sf=sf,
            message="dependent equality rows have conflicting right-hand sides",
        )
    res = solve_standard(sf, max_iter=max_iter)
    if dropped:
        res.message = (res.message + f" (dropped {len(dropped)} dependent rows)").strip()
    return res
