"""Vertex enumeration of bounded sublevel polytopes.

Two independent routes to the same answer:

* :func:`enumerate_vertices` walks the vertex graph: starting from one
  optimal vertex it breadth-first visits each vertex once, at one basis,
  and follows each of its edges. The edges are the extreme rays of the
  vertex's tangent cone. Where no basic variable rests on a bound they are
  the single pivots and bound flips; at a degenerate vertex they are the
  vertices of a cross-section of the cone, walked the same way one
  dimension down. (Avis & Fukuda 1992, "A pivoting algorithm for convex
  hulls and vertex enumeration of arrangements and polyhedra", likewise
  enumerate vertices rather than bases.) Its basic-point solve, ratio test
  and leaving-row rule are the simplex's own
  (:func:`~aoskit.simplex.basic_point`, :func:`~aoskit.simplex.ratio_test`,
  :func:`~aoskit.simplex.leaving_row`).

  Above the optimum (a level tau > z*) the walk expands only the vertices
  strictly below the level. Every vertex of the sublevel polytope is still
  found: the vertices strictly below tau are connected, since each has a
  simplex-monotone path to the optimum that stays below tau, and each
  vertex on the level is adjacent to one of them (a point where an edge of
  the polytope crosses the level, to that edge's lower end; a polytope
  vertex lying on the level, along an improving edge). So on-level
  vertices are landed and reported, but their edges are never computed
  (Ziegler, *Lectures on Polytopes*, ch. 3; Murty 1968). At tau = z*
  every vertex lies on the level, and all of them are expanded.
* :func:`brute_force_vertices` intersects every n-subset of constraint,
  bound, and level-cut hyperplanes and keeps the feasible solutions. It is
  slower but has no pivoting logic to get wrong, so it serves as the
  oracle for the first route.
"""
from __future__ import annotations

import itertools
import logging
import math
from collections import deque

import numpy as np

from .model import LpModel
from .sets import UniquenessCertificate, VertexSet, _PointIndex
from .simplex import (
    INFEASIBLE,
    NUMERIC_FAILURE,
    OPTIMAL,
    TOL_FEAS,
    TOL_PIVOT,
    UNBOUNDED,
    SimplexResult,
    basic_point,
    leaving_row,
    ratio_test,
    solve_model,
    solve_standard,
)
from .standard_form import StandardForm, to_standard_form
from .sublevel import SublevelSpec, make_sublevel_model

_BOX_HINT = "the region is unbounded; call apply_box_bounds on the model first"
# a basic variable within this distance of a bound, relative to 1 + |bound|,
# rests on it; rounding noise on the benchmark networks and random LPs stayed
# below it, and the nearest points off a bound lay ten times further out
_AT_BOUND = 1e-9
# distance at which two points of a tangent cone's cross-section, whose
# coordinates sum to 1, are one vertex
_CONE_TOL = 1e-9
# the walk logs a progress line each time it has expanded this many bases
_LOG_EVERY = 1000

log = logging.getLogger("aoskit.vertices")


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
    """Pivot every free nonbasic column into the basis; returns the sorted
    basis and the statuses.

    A free column resting between bounds means the current point is not a
    vertex; driving it until some basic variable hits a bound fixes that.
    If neither direction is blocked the region contains a whole line, which
    no box has bounded away, so enumeration refuses to start.
    """
    while True:
        free_nb = [j for j in range(sf.n) if st[j] == "F"]
        if not free_nb:
            return sorted(basis), st
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


def _at_bounds(x: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Masks of the entries of x resting on their lower and upper bounds."""
    at_lower = np.isfinite(lower) & (x - lower <= _AT_BOUND * (1.0 + np.abs(lower)))
    at_upper = np.isfinite(upper) & (upper - x <= _AT_BOUND * (1.0 + np.abs(upper)))
    return at_lower, at_upper


class _Walk:
    """State shared by one enumeration and every cone walk it starts."""

    def __init__(self, order: np.random.Generator | None, max_bases: int):
        self.order = order
        self.max_bases = max_bases
        self.bases = 0  # bases whose edges were computed, cone walks included
        self.rejected = 0  # bases dropped: singular, or their point infeasible
        self.on_level = 0  # distinct vertices landed on the level, never expanded
        self.progress = None  # the outermost walk's (found, queue), for the log

    def point(self, sf: StandardForm, basis: list[int], st: np.ndarray) -> np.ndarray | None:
        """The basic point of (basis, st), with basic variables resting on a
        bound moved onto it; None, counted, if the point is unusable."""
        try:
            x = basic_point(sf.A, sf.b, sf.lower, sf.upper, basis, st)
        except np.linalg.LinAlgError:
            self.rejected += 1
            return None
        if sf.max_violation(x) > 1e-7:
            self.rejected += 1
            return None
        at_lower, at_upper = _at_bounds(x, sf.lower, sf.upper)
        x[at_lower] = sf.lower[at_lower]
        x[at_upper] = sf.upper[at_upper]
        return x

    def vertices(
        self,
        sf: StandardForm,
        basis: list[int],
        st: np.ndarray,
        x: np.ndarray,
        limit: float,
        tol: float,
        level: int | None = None,
    ):
        """Breadth-first walk over the vertices of sf's polytope.

        Starts at the vertex x of (basis, st), as :meth:`point` returns it.
        Vertices are told apart by their first ``sf.n_original`` coordinates
        at max-coordinate distance ``tol``. Returns ([(point, basis,
        statuses)] with one basis per vertex, the truncation reason or None).

        ``level`` is the column of the level cut's slack, given only when x
        lies strictly below the level. A new vertex whose slack is exactly 0,
        as :meth:`point` leaves it, lies on the level: it is kept, but never
        queued, so its edges are never computed. Any positive slack is
        strictly below, however small: an edge from there may cross the
        level far from the vertex.
        """
        n0 = sf.n_original
        index = _PointIndex(tol)
        index.add(x[None, :n0])
        found = [(x, basis, st)]
        landed = {st.tobytes(): 0}  # vertex of every basis reached; -1 if dropped
        queue = deque([(0, basis, st, x)])
        if self.progress is None:
            self.progress = (found, queue)
        while queue:
            if self.bases >= self.max_bases:
                return found, "basis budget"
            self.bases += 1
            vid, basis, st, x = queue.popleft()
            if self.bases % _LOG_EVERY == 0:
                top_found, top_queue = self.progress
                log.info("walk: %d bases expanded, %d vertices, %d queued", self.bases, len(top_found), len(top_queue))
            moves, truncated = self._edges(sf, basis, st, x)
            if truncated:
                return found, truncated
            for new_basis, new_st in moves:
                key = new_st.tobytes()
                if key in landed:
                    continue
                y = self.point(sf, new_basis, new_st)
                if y is None:
                    landed[key] = -1
                    continue
                hit = index.find(y[None, :n0], store=True)[0]
                if hit == len(found):
                    found.append((y, new_basis, new_st))
                    if len(found) > limit:
                        return found[:-1], "vertex limit"
                    if level is not None and y[level] == 0.0:
                        self.on_level += 1
                    else:
                        queue.append((hit, new_basis, new_st, y))
                elif hit == vid:
                    # an edge shorter than tol: its far end is another basis
                    # of this vertex, whose own edges may lead elsewhere
                    queue.append((vid, new_basis, new_st, y))
                landed[key] = hit
        return found, None

    def _edges(self, sf: StandardForm, basis: list[int], st: np.ndarray, x: np.ndarray):
        """One (basis, statuses) at the far end of each edge of the vertex x.

        (basis, st) is a basis at x. The edges are the extreme rays of x's
        tangent cone. A nonbasic column that moves no basic variable resting
        on a bound is one; when no basic variable rests on a bound, those
        are all. The rest come from :meth:`_cone_moves`.
        """
        basis_set = set(basis)
        nonbasic = [j for j in range(sf.n) if j not in basis_set and sf.lower[j] != sf.upper[j]]
        if not nonbasic:
            return [], None
        if self.order is not None:
            self.order.shuffle(nonbasic)
        W = np.linalg.solve(sf.A[:, basis], sf.A[:, nonbasic]) if basis else np.zeros((0, len(nonbasic)))
        sign = np.where(st[nonbasic] == "U", -1.0, 1.0)
        at_lower, at_upper = _at_bounds(x[basis], sf.lower[basis], sf.upper[basis])
        rows = np.nonzero(at_lower | at_upper)[0]
        # G[i, k] >= 0 (== 0 when fixed): column k's move keeps basic
        # variable rows[i] on the feasible side of the bound it rests on
        G = -W[rows] * sign * np.where(at_lower[rows], 1.0, -1.0)[:, None]
        G[np.abs(G) <= TOL_PIVOT] = 0.0  # rates the ratio test ignores
        moving = G.any(axis=0)
        direct = np.nonzero(~moving)[0]
        out = self._direct_moves(sf, x, basis, st, [nonbasic[k] for k in direct], sign[direct], W[:, direct])
        if moving.any():
            involved = G[:, moving].any(axis=1)
            cone, truncated = self._cone_moves(
                basis, st, [nonbasic[k] for k in np.nonzero(moving)[0]], sign[moving],
                G[involved][:, moving], rows[involved], at_lower, at_upper,
            )
            if truncated:
                return [], truncated
            out += [far for far in (self._cone_move(sf, x, *move) for move in cone) if far is not None]
        return out, None

    def _direct_moves(self, sf, x, basis, st, cols, sign, W):
        """The far end of each move of a nonbasic column in ``cols`` from
        (basis, st), all ratio tests at once; ``W`` holds B^-1 A_j."""
        if not cols:
            return []
        rate = -W * sign
        ratios, t_basic = ratio_test(sf.lower[basis], sf.upper[basis], x[basis], rate)
        own_range = sf.upper[cols] - sf.lower[cols]
        ray = ~np.isfinite(t_basic) & ~np.isfinite(own_range)
        if ray.any():
            j = cols[int(np.argmax(ray))]
            raise UnboundedRegionError(f"feasible ray through column {sf.col_names[j]!r}; " + _BOX_HINT)
        flip = own_range <= t_basic
        leave = leaving_row(ratios, t_basic, W) if basis else None
        out = []
        for k, j in enumerate(cols):
            r = None if flip[k] else int(leave[k])
            out.append(_land(basis, st, j, sign[k], r, 0.0 if r is None else rate[r, k]))
        return out

    def _cone_moves(self, basis, st, cols, sign, G, rows, at_lower, at_upper):
        """A basis at x and an entering column for each edge of x's tangent
        cone that moves a basic variable resting on a bound.

        With u >= 0 a step along the nonbasic columns ``cols``, each oriented
        away from its bound, the basic variables of ``rows`` stay feasible
        iff G u >= 0. The cone's cross-section Q = {u >= 0, sum(u) = 1,
        G u >= 0} is walked as a polytope of its own, with slacks s = G u.
        At a vertex of Q, the columns with u > 0 or s > 0 are basic in Q.
        Swapping the rows whose s is nonbasic for all but one basic u (the
        largest) gives a basis at x where that one column's move runs along
        the edge.
        """
        K, D = len(cols), rows.size
        fixed = at_lower[rows] & at_upper[rows]
        cone = StandardForm(
            A=np.block([[G, -np.eye(D)], [np.ones((1, K)), np.zeros((1, D))]]),
            b=np.append(np.zeros(D), 1.0),
            c=np.zeros(K + D),
            lower=np.zeros(K + D),
            upper=np.append(np.full(K, np.inf), np.where(fixed, 0.0, np.inf)),
            col_names=tuple(f"u[{k}]" for k in range(K)) + tuple(f"s[{i}]" for i in range(D)),
            n_original=K,
            sense_sign=1,
            obj_constant=0.0,
            row_origin=tuple(range(D + 1)),
        )
        unit = np.nonzero((G >= 0).all(axis=0) & (G[fixed] == 0).all(axis=0))[0]
        if unit.size:
            q_basis = [int(unit[0])] + list(range(K, K + D))
            q_st = np.full(K + D, "L", dtype="<U1")
            q_st[q_basis] = "B"
        else:
            res = solve_standard(cone)
            if res.status == INFEASIBLE:
                return [], None  # no such edge
            if res.status != OPTIMAL or len(res.basis) != D + 1:
                self.rejected += 1
                return [], None
            q_basis, q_st = sorted(res.basis), np.array(res.statuses, dtype="<U1")
        q_x = self.point(cone, q_basis, q_st)
        if q_x is None:
            return [], None
        rays, truncated = self.vertices(cone, q_basis, q_st, q_x, math.inf, _CONE_TOL)
        moves = []
        for u, q_basis, _ in rays:
            in_u = [p for p in q_basis if p < K]
            e = max(in_u, key=lambda p: u[p])
            kept = {p - K for p in q_basis if p >= K}
            out_rows = (rows[i] for i in range(D) if i not in kept)
            new_basis, new_st = list(basis), st.copy()
            for r, p in zip(out_rows, (p for p in in_u if p != e)):
                new_st[basis[r]] = "L" if at_lower[r] else "U"
                new_basis[r] = cols[p]
                new_st[cols[p]] = "B"
            moves.append((sorted(new_basis), new_st, cols[e], sign[e]))
        return moves, truncated

    def _cone_move(self, sf, x, basis, st, j, direction):
        """The far end of column j's move from a basis at x that the tangent
        cone gave. Basic variables on a bound may be among the basis; the
        cone keeps the move on their feasible side, so a rate towards that
        bound is noise."""
        xb, lb, ub = x[basis], sf.lower[basis], sf.upper[basis]
        try:
            w = np.linalg.solve(sf.A[:, basis], sf.A[:, j])
        except np.linalg.LinAlgError:
            self.rejected += 1
            return None
        rate = -direction * w
        at_lower, at_upper = _at_bounds(xb, lb, ub)
        rate[(at_lower & (rate < 0)) | (at_upper & (rate > 0))] = 0.0
        ratios, t_basic = ratio_test(lb, ub, xb, rate)
        own_range = sf.upper[j] - sf.lower[j]
        if not math.isfinite(t_basic) and not math.isfinite(own_range):
            raise UnboundedRegionError(f"feasible ray through column {sf.col_names[j]!r}; " + _BOX_HINT)
        if own_range <= t_basic:
            return _land(basis, st, j, direction, None, 0.0)
        r = leaving_row(ratios, t_basic, w)
        return _land(basis, st, j, direction, r, rate[r])


def _land(basis, st, j, direction, r, rate_r):
    """(basis, statuses) after column j's move: a bound flip when ``r`` is
    None, else a pivot on basis[r], which leaves at the bound its ``rate_r``
    runs into."""
    new_st = st.copy()
    if r is None:
        new_st[j] = "U" if direction > 0 else "L"
        return basis, new_st
    new_st[j] = "B"
    new_st[basis[r]] = "U" if rate_r > 0 else "L"
    return sorted(basis[:r] + basis[r + 1 :] + [j]), new_st


def _start_basis(sub: LpModel, start: SimplexResult | None):
    """The sublevel form and a basis at ``start``'s optimum, or None.

    ``start`` is the optimal result of ``solve_model`` on the model that
    ``sub`` cuts. Its form keeps the rows that survived the cleaning of
    dependent rows; the sublevel form keeps those plus the level row, whose
    slack column joins the basis. None when ``start`` is missing, not
    optimal or of another model, or when its optimum lies beyond the level
    (a tau below the optimal value).
    """
    if start is None or start.status != OPTIMAL:
        return None
    full = to_standard_form(sub)
    level = sub.metadata["sublevel_row"]
    rows = list(start.sf.row_origin) + [level]
    slack = full.n - 1  # the level row is the last row, so its slack is the last column
    same = full.col_names[:slack] == start.sf.col_names and all(
        np.array_equal(mine, theirs)
        for mine, theirs in (
            (full.A[rows[:-1], :slack], start.sf.A),
            (full.b[rows[:-1]], start.sf.b),
            (full.lower[:slack], start.sf.lower),
            (full.upper[:slack], start.sf.upper),
        )
    )
    if not same:
        return None
    level_slack = (full.b[level] - full.A[level, :slack] @ start.x_std) / full.A[level, slack]
    if level_slack < -TOL_FEAS * max(1.0, abs(full.b[level])):
        return None
    sf = StandardForm(
        A=full.A[rows],
        b=full.b[rows],
        c=full.c,
        lower=full.lower,
        upper=full.upper,
        col_names=full.col_names,
        n_original=full.n_original,
        sense_sign=full.sense_sign,
        obj_constant=full.obj_constant,
        row_origin=tuple(rows),
    )
    st = np.array(start.statuses + ("B",), dtype="<U1")
    return sf, list(start.basis) + [slack], st


def enumerate_vertices(
    model: LpModel,
    z_star: float,
    spec: SublevelSpec,
    limit: int = 10_000,
    dedup_tol: float = 1e-6,
    order_rng: np.random.Generator | None = None,
    max_bases: int = 500_000,
    start: SimplexResult | None = None,
) -> VertexSet:
    """All vertices of the model's sublevel polytope at the level ``spec``.

    The sublevel model is built internally from ``z_star`` and ``spec``.
    Points are reported in the model's own variable space, deduplicated at
    ``dedup_tol``, and sorted. ``limit`` caps the number of distinct points;
    finding more, or exploring ``max_bases`` bases (cone walks included),
    yields complete=False. So does a basis dropped because its solve failed
    or its point was infeasible: ``meta["rejected"]`` counts those, and
    ``meta["truncated"]`` reads "numerical". ``order_rng`` shuffles
    exploration order only; the result is identical.

    ``start``, the optimal result of ``solve_model(model)``, saves the
    sublevel solve: its optimum is a vertex of the sublevel polytope, so the
    walk starts there, at its basis plus the level cut's slack. Without it,
    or when it cannot be used (not optimal, another model, an optimum
    beyond the level, an unusable basis), the sublevel model is solved from
    scratch. A complete vertex set is the same either way.

    When the optimum lies strictly below the level, the walk expands only
    the vertices strictly below it; vertices on the level are found from
    their neighbours below and never expanded (see the module docstring).
    ``meta["bases_visited"]`` counts the bases whose edges were computed,
    and ``meta["on_level"]`` the vertices landed on the level instead.
    """
    sub = make_sublevel_model(model, z_star, spec)
    tau = sub.metadata["sublevel_tau"]
    meta = {"tau": tau, "model_fingerprint": model.fingerprint()}
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")

    walk = _Walk(order_rng, max_bases)
    begin, x = _start_basis(sub, start), None
    if begin is not None:
        sf, basis, st = begin
        basis, st = _crash_free_columns(sf, basis, st)
        x = walk.point(sf, basis, st)
        walk.rejected = 0  # an unusable start basis costs a cold solve, not a vertex
    if x is None:
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
        x = walk.point(sf, basis, st)
    if x is None:
        found, truncated = [], None
    else:
        # the level row is the last row of either form, its slack the last
        # column: cleaning drops only equality rows, which have no slack
        level = sf.n - 1 if x[sf.n - 1] > 0 else None
        found, truncated = walk.vertices(sf, basis, st, x, limit, dedup_tol, level)
    if truncated is None and walk.rejected:
        truncated = "numerical"

    meta["bases_visited"] = walk.bases
    meta["on_level"] = walk.on_level
    meta["rejected"] = walk.rejected
    if truncated:
        meta["truncated"] = truncated
    pts = np.array([sf.recover(x) for x, _, _ in found])
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
