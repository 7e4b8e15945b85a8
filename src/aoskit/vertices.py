"""Vertex enumeration of bounded sublevel polytopes.

Two independent routes to the same answer:

* :func:`enumerate_vertices` walks the basis graph: starting from one
  optimal basis it breadth-first explores every feasible single pivot and
  bound flip, merging degenerate bases by geometric point. Its basic-point
  solve, ratio test and leaving-row rule are the simplex's own
  (:func:`~aoskit.simplex.basic_point`, :func:`~aoskit.simplex.ratio_test`,
  :func:`~aoskit.simplex.leaving_row`), so both walk the same bases.
* :func:`brute_force_vertices` intersects every n-subset of constraint,
  bound, and level-cut hyperplanes and keeps the feasible solutions. It is
  slower but has no pivoting logic to get wrong, so it serves as the
  oracle for the first route.
"""
from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from .model import LpModel
from .sets import UniquenessCertificate, VertexSet
from .simplex import (
    INFEASIBLE,
    NUMERIC_FAILURE,
    TOL_PIVOT,
    UNBOUNDED,
    basic_point,
    leaving_row,
    ratio_test,
    solve_model,
)
from .standard_form import StandardForm
from .sublevel import SublevelSpec, make_sublevel_model

_BOX_HINT = "the region is unbounded; call apply_box_bounds on the model first"


class EnumerationError(RuntimeError):
    """Vertex enumeration could not produce a trustworthy answer."""


class UnboundedRegionError(EnumerationError):
    """The polytope assumption failed: a feasible ray or line exists."""

    def __init__(self, message: str = _BOX_HINT):
        super().__init__(message)


class NumericFailureError(EnumerationError):
    """The underlying solver reported a numeric failure."""


class OracleGuardError(EnumerationError):
    """The brute-force combination count exceeds the configured guard."""


def _crash_free_columns(sf: StandardForm, basis: list[int], st: np.ndarray):
    """Pivot every free nonbasic column into the basis.

    A free column resting between bounds means the current point is not a
    vertex; driving it until some basic variable hits a bound fixes that.
    If neither direction is blocked the region contains a whole line, which
    no box has bounded away, so enumeration refuses to start.
    """
    while True:
        free_nb = [j for j in range(sf.n) if st[j] == "F"]
        if not free_nb:
            return basis, st
        j = free_nb[0]
        x = basic_point(sf.A, sf.b, sf.lower, sf.upper, basis, st)
        w = np.linalg.solve(sf.A[:, basis], sf.A[:, j]) if basis else np.zeros(0)
        pivoted = False
        for direction in (1.0, -1.0):
            rate = -direction * w
            ratios, t = ratio_test(sf.lower[basis], sf.upper[basis], x[basis], rate)
            if math.isfinite(t):
                r = leaving_row(ratios, t, w)
                st[basis[r]] = "U" if rate[r] > 0 else "L"
                st[j] = "B"
                basis[r] = j
                pivoted = True
                break
        if not pivoted:
            raise UnboundedRegionError(
                f"free direction through column {sf.col_names[j]!r} is unblocked both ways; "
                + _BOX_HINT
            )


def _neighbors(sf: StandardForm, basis: list[int], st: np.ndarray, x: np.ndarray, order):
    """All nodes one feasible pivot or bound flip away from (basis, st)."""
    basis_set = set(basis)
    nonbasic = [j for j in range(sf.n) if j not in basis_set and sf.lower[j] != sf.upper[j]]
    if order is not None:
        nonbasic = list(nonbasic)
        order.shuffle(nonbasic)
    W = np.linalg.solve(sf.A[:, basis], sf.A[:, nonbasic]) if basis and nonbasic else None
    lower_b, upper_b, xb = sf.lower[basis], sf.upper[basis], x[basis]
    out = []
    for k, j in enumerate(nonbasic):
        direction = 1.0 if st[j] == "L" else -1.0
        w = W[:, k] if W is not None else np.zeros(len(basis))
        rate = -direction * w
        ratios, t_basic = ratio_test(lower_b, upper_b, xb, rate)
        own_range = sf.upper[j] - sf.lower[j]
        if not math.isfinite(t_basic) and not math.isfinite(own_range):
            raise UnboundedRegionError(
                f"feasible ray through column {sf.col_names[j]!r}; " + _BOX_HINT
            )
        tie = 1e-9 * (1.0 + abs(min(t_basic, own_range))) + 1e-12
        if math.isfinite(own_range) and own_range <= t_basic + tie:
            flipped = st.copy()
            flipped[j] = "U" if st[j] == "L" else "L"
            out.append((tuple(basis), tuple(flipped)))
        if math.isfinite(t_basic) and t_basic <= own_range + tie:
            for r in np.nonzero(ratios <= t_basic + tie)[0]:
                if abs(w[r]) <= TOL_PIVOT:
                    continue
                leaving = basis[r]
                new_basis = sorted(b for b in basis if b != leaving)
                new_basis.append(j)
                new_basis.sort()
                new_st = st.copy()
                new_st[j] = "B"
                new_st[leaving] = "U" if rate[r] > 0 else "L"
                out.append((tuple(new_basis), tuple(new_st)))
    return out


def enumerate_vertices(
    model: LpModel,
    z_star: float,
    spec: SublevelSpec,
    limit: int = 10_000,
    dedup_tol: float = 1e-6,
    order_rng: np.random.Generator | None = None,
    max_bases: int = 500_000,
) -> VertexSet:
    """All vertices of the model's sublevel polytope at the level ``spec``.

    The sublevel model is built internally from ``z_star`` and ``spec``.
    Points are reported in the model's own variable space, deduplicated at
    ``dedup_tol``, and sorted. ``limit`` caps the number of distinct points;
    hitting it (or ``max_bases`` explored bases) yields complete=False.
    ``order_rng`` shuffles exploration order only; the result is identical.
    """
    sub = make_sublevel_model(model, z_star, spec)
    tau = sub.metadata["sublevel_tau"]
    meta = {"tau": tau, "model_fingerprint": model.fingerprint()}
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")

    res = solve_model(sub)
    if res.status == INFEASIBLE:
        meta["empty_reason"] = "sublevel model infeasible (tau below the optimal value)"
        return VertexSet.from_points(
            np.zeros((0, model.n_variables)), model.variable_names, objectives=[], meta=meta
        )
    if res.status == NUMERIC_FAILURE:
        raise NumericFailureError(res.message)
    if res.status == UNBOUNDED:
        raise UnboundedRegionError()

    sf = res.sf
    basis, st = _crash_free_columns(sf, list(res.basis), np.array(res.statuses, dtype="<U1"))

    start = (tuple(sorted(basis)), tuple(st))
    visited = {start}
    queue = deque([start])
    collected: list[np.ndarray] = []
    reps: list[np.ndarray] = []
    truncated = None
    while queue:
        node_basis, node_st = queue.popleft()
        basis_l = list(node_basis)
        st_a = np.array(node_st, dtype="<U1")
        try:
            x = basic_point(sf.A, sf.b, sf.lower, sf.upper, basis_l, st_a)
        except np.linalg.LinAlgError:
            continue
        if sf.max_violation(x) > 1e-7:
            continue
        collected.append(x)
        if all(np.abs(x - r).max() > dedup_tol for r in reps):
            reps.append(x)

        for key in _neighbors(sf, basis_l, st_a, x, order_rng):
            if key not in visited:
                visited.add(key)
                queue.append(key)

        if len(reps) >= limit and queue:
            truncated = "vertex limit"
            break
        if len(visited) > max_bases:
            truncated = "basis budget"
            break

    meta["bases_visited"] = len(collected)
    if truncated:
        meta["truncated"] = truncated
    pts = np.array([sf.recover(x) for x in collected])
    c = model.objective_vector()
    objectives = pts @ c + model.objective.constant if len(pts) else []
    return VertexSet.from_points(
        pts,
        model.variable_names,
        objectives=objectives,
        complete=truncated is None,
        dedup_tol=dedup_tol,
        meta=meta,
    )


def is_unique_minimizer(
    model: LpModel, z_star: float, spec: SublevelSpec, dedup_tol: float = 1e-6
) -> UniquenessCertificate:
    """Certify whether the sublevel set holds exactly one point.

    Runs the enumerator with an early exit at the second distinct point;
    uniqueness is only claimed from an exhaustive run.
    """
    vs = enumerate_vertices(model, z_star, spec, limit=2, dedup_tol=dedup_tol)
    return UniquenessCertificate(
        unique=vs.complete and len(vs) == 1,
        tau=vs.meta["tau"],
        witnesses=tuple(np.array(p) for p in vs.points),
        complete=vs.complete,
    )


# -- brute-force oracle ------------------------------------------------------


def _canonical_plane(a: np.ndarray, r: float) -> tuple[np.ndarray, float] | None:
    """Scale a hyperplane a.x = r to a canonical signed unit form."""
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return None
    a = a / scale
    r = r / scale
    lead = a[np.nonzero(np.abs(a) > 1e-12)[0][0]]
    if lead < 0:
        a, r = -a, -r
    return a, r


def brute_force_vertices(
    model: LpModel,
    z_star: float,
    spec: SublevelSpec,
    feas_tol: float = 1e-7,
    dedup_tol: float = 1e-6,
    max_combos: int = 10_000_000,
) -> VertexSet:
    """Oracle enumeration: intersect hyperplane subsets, filter by feasibility.

    Every equality constraint is mandatory; the remaining degrees of freedom
    are filled by choosing among inequality boundaries, finite bound planes,
    and the level cut. Always returns complete=True. Refuses instances whose
    combination count exceeds ``max_combos``.
    """
    sub = make_sublevel_model(model, z_star, spec)
    tau = sub.metadata["sublevel_tau"]
    n = sub.n_variables
    meta = {"tau": tau, "model_fingerprint": model.fingerprint()}

    def empty(reason: str) -> VertexSet:
        meta["empty_reason"] = reason
        return VertexSet.from_points(
            np.zeros((0, n)), sub.variable_names, objectives=[], meta=meta
        )

    rows, rhs, senses = sub.constraint_matrix()
    eq_rows: list[np.ndarray] = []
    eq_rhs: list[float] = []
    pool: list[tuple[np.ndarray, float]] = []
    for i in range(rows.shape[0]):
        a, r, sense = rows[i], float(rhs[i]), senses[i]
        if not np.any(np.abs(a) > 1e-12):
            bad = (sense == "<=" and r < -feas_tol) or (sense == ">=" and r > feas_tol)
            bad = bad or (sense == "=" and abs(r) > feas_tol)
            if bad:
                return empty(f"constraint c[{i}] is unsatisfiable")
            continue
        if sense == "=":
            eq_rows.append(a)
            eq_rhs.append(r)
        else:
            plane = _canonical_plane(a, r)
            if plane is not None:
                pool.append(plane)
    lower, upper = sub.bounds_arrays()
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if math.isfinite(lower[j]):
            pool.append((e, float(lower[j])))
        if math.isfinite(upper[j]) and upper[j] != lower[j]:
            pool.append((e.copy(), float(upper[j])))

    # independent equality core; a dependent row with conflicting rhs is proof of emptiness
    E: list[np.ndarray] = []
    d: list[float] = []
    for a, r in zip(eq_rows, eq_rhs):
        scale = max(1.0, float(np.abs(a).max()), abs(r))
        if E:
            lam, *_ = np.linalg.lstsq(np.array(E).T, a, rcond=None)
            resid = a - np.array(E).T @ lam
            if np.abs(resid).max() <= 1e-9 * scale:
                if abs(r - float(np.array(d) @ lam)) > 1e-7 * scale:
                    return empty("conflicting dependent equality rows")
                continue
        E.append(a)
        d.append(r)
    n_eq = len(E)

    # drop exact duplicate planes from the pool
    seen = set()
    unique_pool: list[tuple[np.ndarray, float]] = []
    for a, r in pool:
        key = tuple(np.round(np.append(a, r), 10))
        if key not in seen:
            seen.add(key)
            unique_pool.append((a, r))
    pool = unique_pool

    k = n - n_eq
    if k < 0:
        return empty("more independent equalities than variables")
    if k > len(pool):
        raise UnboundedRegionError(
            "fewer active hyperplanes than dimensions; no vertex exists, " + _BOX_HINT
        )
    combos = math.comb(len(pool), k)
    meta["combinations"] = combos
    if combos > max_combos:
        raise OracleGuardError(
            f"{combos} hyperplane combinations exceed the guard of {max_combos}"
        )

    pool_a = np.array([a for a, _ in pool]) if pool else np.zeros((0, n))
    pool_r = np.array([r for _, r in pool]) if pool else np.zeros(0)
    E_arr = np.array(E) if E else np.zeros((0, n))
    d_arr = np.array(d) if d else np.zeros(0)

    # feasibility machinery over the full sublevel model
    G_rows, G_rhs = [], []
    for i in range(rows.shape[0]):
        if senses[i] == "<=":
            G_rows.append(rows[i])
            G_rhs.append(rhs[i])
        elif senses[i] == ">=":
            G_rows.append(-rows[i])
            G_rhs.append(-rhs[i])
    G = np.array(G_rows) if G_rows else np.zeros((0, n))
    h = np.array(G_rhs) if G_rhs else np.zeros(0)
    Eq_all = np.array(eq_rows) if eq_rows else np.zeros((0, n))
    dq_all = np.array(eq_rhs) if eq_rhs else np.zeros(0)

    def feasible_mask(X: np.ndarray) -> np.ndarray:
        viol = np.zeros(X.shape[0])
        if G.shape[0]:
            viol = np.maximum(viol, (X @ G.T - h).max(axis=1))
        if Eq_all.shape[0]:
            viol = np.maximum(viol, np.abs(X @ Eq_all.T - dq_all).max(axis=1))
        lo_f = np.isfinite(lower)
        up_f = np.isfinite(upper)
        if lo_f.any():
            viol = np.maximum(viol, (lower[lo_f] - X[:, lo_f]).max(axis=1))
        if up_f.any():
            viol = np.maximum(viol, (X[:, up_f] - upper[up_f]).max(axis=1))
        return viol <= feas_tol

    found: list[np.ndarray] = []
    chunk_size = 20_000
    combo_iter = itertools.combinations(range(len(pool)), k)
    while True:
        chunk = list(itertools.islice(combo_iter, chunk_size))
        if not chunk:
            break
        idx = np.array(chunk, dtype=int).reshape(len(chunk), k)
        M = np.empty((len(chunk), n, n))
        R = np.empty((len(chunk), n))
        M[:, :n_eq, :] = E_arr
        R[:, :n_eq] = d_arr
        M[:, n_eq:, :] = pool_a[idx]
        R[:, n_eq:] = pool_r[idx]
        dets = np.abs(np.linalg.det(M))
        good = dets > 1e-10
        if good.any():
            Mg, Rg = M[good], R[good]
            X = np.linalg.solve(Mg, Rg[:, :, None])[:, :, 0]
            residual = Rg - np.einsum("bij,bj->bi", Mg, X)
            X += np.linalg.solve(Mg, residual[:, :, None])[:, :, 0]
            keep = feasible_mask(X)
            found.extend(X[keep])
        band = np.nonzero((dets > 1e-14) & ~good)[0]
        for bi in band:
            x, *_ = np.linalg.lstsq(M[bi], R[bi], rcond=None)
            if np.abs(M[bi] @ x - R[bi]).max() <= 1e-9 and feasible_mask(x[None, :])[0]:
                found.append(x)

    pts = np.array(found) if found else np.zeros((0, n))
    c = sub.objective_vector()
    objectives = pts @ c + sub.objective.constant if len(pts) else []
    return VertexSet.from_points(
        pts,
        sub.variable_names,
        objectives=objectives,
        complete=True,
        dedup_tol=dedup_tol,
        meta=meta,
    )
