"""Vertex enumeration of bounded sublevel polytopes.

Two independent routes to the same answer:

* :func:`enumerate_vertices` walks the vertex graph: starting from one
  optimal vertex it breadth-first visits each vertex once, at one basis,
  and follows each of its edges. The edges are the extreme rays of the
  vertex's tangent cone. Where no basic variable rests on a bound they are
  the single pivots and bound flips; at a degenerate vertex they are the
  vertices of a cross-section of the cone, walked the same way one
  dimension down. A vertex is the one point where its tight constraints
  meet, so vertices are told apart by their tight sets, the columns that
  lie on a bound, not by distance. (Avis & Fukuda 1992, "A pivoting
  algorithm for convex hulls and vertex enumeration of arrangements and
  polyhedra", likewise enumerate vertices rather than bases.) Its ratio
  test and leaving-row rule are the simplex's own
  (:func:`~aoskit.simplex.ratio_test`,
  :func:`~aoskit.simplex.leaving_row`). A far end's point is not solved
  for: it is the vertex stepped along the edge, x + t d, with d from the
  same solve that gives the rates and t from the ratio test, and all far
  ends of a vertex are checked in one pass. The simplex's basic-point
  solve (:func:`~aoskit.simplex.basic_point`) gives the start vertex, the
  start of a cone cross-section, and any far end whose residual shows it
  cannot be trusted.

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
  bound, and level-cut hyperplanes and keeps the solutions that the
  sublevel model's own violation kernel (:meth:`LpModel.violations`) finds
  feasible. It is slower but has no pivoting logic to get wrong, so it
  serves as the oracle for the first route.
"""
from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from collections import deque

import numpy as np

from .model import LpModel
from .sets import DEDUP_TOL, UniquenessCertificate, VertexSet
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
from .sublevel import SublevelSpec, _provably_empty, make_sublevel_model

_BOX_HINT = "the region is unbounded; call apply_box_bounds on the model first"
# a basic variable within this distance of a bound, relative to 1 + |bound|,
# rests on it; rounding noise on the benchmark networks and random LPs stayed
# below it, and the nearest points off a bound lay ten times further out
_AT_BOUND = 1e-9
# a far end's point y, stepped along its edge, is trusted while each row's
# |A y - b| stays within this share of the row's scale, |b| + max|y| times
# the sum of the row's |A|; the largest share on conftest seeds 9 and 31
# (30 buses) was 2e-15
_RESIDUAL = 1e-9
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
    vertex; driving it upward until some basic variable hits a bound fixes
    that. If nothing blocks it, the region contains a ray, which no box has
    bounded away, so enumeration refuses to start.
    """
    for j in np.flatnonzero(st == "F").tolist():
        x = basic_point(sf.A, sf.b, sf.lower, sf.upper, basis, st)
        w = np.linalg.solve(sf.A[:, basis], sf.A[:, j]) if basis else np.zeros(0)
        [(basis, st)], _ = _far_ends(sf, basis, st, x, [j], np.ones(1), -w[:, None])
    return sorted(basis), st


def _far_ends(sf: StandardForm, basis: list[int], st: np.ndarray, x: np.ndarray, cols, sign, rate):
    """(basis, statuses) at the far end of each move from the point x of
    (basis, st), where column ``cols[k]`` leaves its bound in the direction
    ``sign[k]``; and the far ends' points, one row each.

    ``rate[:, k]`` holds the basic variables' rates along move k; its
    magnitudes are those of B^-1 A_j, which the leaving-row rule compares.
    All ratio tests run at once. An unblocked move is a bound flip, or a
    feasible ray when the column's other bound is infinite too; a blocked
    one pivots the column in for the basic variable that
    :func:`~aoskit.simplex.leaving_row` picks, which leaves at the bound its
    rate runs into.

    Move k steps t = min(its ratio, the column's own range) along its edge:
    the basic variables move by t * rate[:, k] and the column by sign[k] * t,
    and the column that turns nonbasic lands exactly on the bound its new
    status names. The other nonbasic coordinates keep x's values, which lie
    exactly on their bounds. So at a far end y, A y - b = B (y_B - the new
    basis's basic point), and a small residual ties y to the point
    :func:`~aoskit.simplex.basic_point` would solve for.
    """
    ratios, t_basic = ratio_test(sf.lower[basis], sf.upper[basis], x[basis], rate)
    own_range = sf.upper[cols] - sf.lower[cols]
    ray = ~np.isfinite(t_basic) & ~np.isfinite(own_range)
    if ray.any():
        j = cols[int(np.argmax(ray))]
        raise UnboundedRegionError(f"feasible ray through column {sf.col_names[j]!r}; " + _BOX_HINT)
    flip = own_range <= t_basic
    leave = None if flip.all() else leaving_row(ratios, t_basic, rate)
    t = np.where(flip, own_range, t_basic)
    moves = np.arange(len(cols))
    Y = np.repeat(x[None, :], len(cols), axis=0)
    Y[:, basis] += (rate * t).T
    Y[moves, cols] = np.where(flip, np.where(sign > 0, sf.upper[cols], sf.lower[cols]), x[cols] + sign * t)
    out = []
    for k, j in enumerate(cols):
        new_st = st.copy()
        if flip[k]:
            new_st[j] = "U" if sign[k] > 0 else "L"
            out.append((basis, new_st))
        else:
            r = int(leave[k])
            i, up = basis[r], rate[r, k] > 0
            new_st[j], new_st[i] = "B", "U" if up else "L"
            Y[k, i] = sf.upper[i] if up else sf.lower[i]
            out.append((sorted(basis[:r] + basis[r + 1 :] + [j]), new_st))
    return out, Y


def _snap(sf: StandardForm, x: np.ndarray) -> np.ndarray:
    """x, a point or a stack of points, with every coordinate within
    ``_AT_BOUND`` of a finite bound moved onto it."""
    lb, ub = sf.lower, sf.upper
    at_lower = np.isfinite(lb) & (x - lb <= _AT_BOUND * (1.0 + np.abs(lb)))
    at_upper = np.isfinite(ub) & (ub - x <= _AT_BOUND * (1.0 + np.abs(ub)))
    return np.where(at_upper, ub, np.where(at_lower, lb, x))


def _tight_set(sf: StandardForm, Y: np.ndarray) -> list[bytes]:
    """For each point of Y, as :func:`_snap` leaves it, the bytes of which
    columns equal their lower bound and which their upper one."""
    return [row.tobytes() for row in np.hstack([Y == sf.lower, Y == sf.upper])]


class _Walk:
    """State shared by one enumeration and every cone walk it starts."""

    def __init__(self, order: np.random.Generator | None, max_bases: int):
        self.order = order
        self.max_bases = max_bases
        self.bases = 0  # bases whose edges were computed, cone walks included
        self.rejected = 0  # bases dropped: singular, or their point infeasible
        self.on_level = 0  # distinct vertices landed on the level, never expanded
        self.cold_points = 0  # far ends whose basic point was solved for
        self.progress = None  # the outermost walk's (found, queue), for the log

    def point(self, sf: StandardForm, basis: list[int], st: np.ndarray) -> np.ndarray | None:
        """The basic point of (basis, st), solved for, with basic variables
        resting on a bound moved onto it; None, counted, if the point is
        unusable. The walk's start, a cone cross-section's start and a far
        end that :meth:`far_points` cannot trust come from here."""
        try:
            x = basic_point(sf.A, sf.b, sf.lower, sf.upper, basis, st)
        except np.linalg.LinAlgError:
            self.rejected += 1
            return None
        if sf.max_violation(x) > TOL_FEAS:
            self.rejected += 1
            return None
        return _snap(sf, x)

    def far_points(self, sf: StandardForm, ends: list, Y: np.ndarray) -> list[np.ndarray | None]:
        """The points of the far ends ``ends``, given as :func:`_far_ends`
        steps them, one row of Y each, judged in one pass; None, counted, for
        an unusable one.

        A far end whose residual |A y - b| exceeds, on some row, ``_RESIDUAL``
        of the row's scale or a tenth of TOL_FEAS, whichever is less, is
        re-solved by :meth:`point` and counted in ``cold_points``; so is one
        whose residual is not a number. The others are judged as
        :meth:`point` judges a basic point: unusable, and counted, when they
        violate feasibility by more than TOL_FEAS, which their residual
        cannot; else moved onto the bounds they rest on.
        """
        v = sf.violations(Y)
        scale = np.abs(Y).max(axis=1)[:, None] * np.abs(sf.A).sum(axis=1) + np.abs(sf.b)
        exact = (v[:, : sf.m] <= np.minimum(_RESIDUAL * scale, 0.1 * TOL_FEAS)).all(axis=1)
        usable = v.max(axis=1) <= TOL_FEAS
        Y = _snap(sf, Y)
        out = []
        for k, (basis, st) in enumerate(ends):
            if not exact[k]:
                self.cold_points += 1
                out.append(self.point(sf, basis, st))
            elif usable[k]:
                out.append(Y[k].copy())  # a kept point must not hold the whole stack
            else:
                self.rejected += 1
                out.append(None)
        return out

    def vertices(self, sf: StandardForm, basis: list[int], st: np.ndarray, x: np.ndarray, limit: float, level: int | None = None):
        """Breadth-first walk over the vertices of sf's polytope.

        Starts at the vertex x of (basis, st), as :meth:`point` returns it.
        Vertices are told apart by their tight sets (:func:`_tight_set`): every
        basis of a vertex, degenerate ones included, gives one key, and two
        vertices never share one. Returns ([(point, basis, statuses)] with
        one basis per vertex, the truncation reason or None).

        ``level`` is the column of the level cut's slack, given only when x
        lies strictly below the level. A new vertex whose slack is exactly 0,
        as :func:`_snap` leaves it, lies on the level: it is kept, but never
        queued, so its edges are never computed. Any positive slack is
        strictly below, however small: an edge from there may cross the
        level far from the vertex.
        """
        found = [(x, basis, st)]
        tight = set(_tight_set(sf, x[None]))
        landed = {st.tobytes()}  # every basis reached, dropped ones included
        queue = deque([(basis, st, x)])
        if self.progress is None:
            self.progress = (found, queue)
        while queue:
            if self.bases >= self.max_bases:
                return found, "basis budget"
            self.bases += 1
            basis, st, x = queue.popleft()
            if self.bases % _LOG_EVERY == 0:
                top_found, top_queue = self.progress
                log.info(
                    "walk: %d bases expanded, %d vertices, %d queued, %d re-solved cold",
                    self.bases, len(top_found), len(top_queue), self.cold_points,
                )
            ends, Y, truncated = self._edges(sf, basis, st, x)
            if truncated:
                return found, truncated
            fresh = []
            for k, (_, new_st) in enumerate(ends):
                key = new_st.tobytes()
                if key not in landed:
                    landed.add(key)
                    fresh.append(k)
            points = self.far_points(sf, [ends[k] for k in fresh], Y[fresh]) if fresh else []
            usable = [(ends[k], y) for k, y in zip(fresh, points) if y is not None]
            if not usable:
                continue
            keys = _tight_set(sf, np.array([y for _, y in usable]))
            for ((new_basis, new_st), y), key in zip(usable, keys):
                if key in tight:
                    continue
                tight.add(key)
                found.append((y, new_basis, new_st))
                if len(found) > limit:
                    return found[:-1], "vertex limit"
                if level is not None and y[level] == 0.0:
                    self.on_level += 1
                else:
                    queue.append((new_basis, new_st, y))
        return found, None

    def _edges(self, sf: StandardForm, basis: list[int], st: np.ndarray, x: np.ndarray):
        """One (basis, statuses) at the far end of each edge of the vertex x,
        and the far ends' points as :func:`_far_ends` steps them, one row each.

        (basis, st) is a basis at x. The edges are the extreme rays of x's
        tangent cone. A nonbasic column that moves no basic variable resting
        on a bound is one; when no basic variable rests on a bound, those
        are all. The rest come from :meth:`_cone_moves`. A basic variable
        rests on a bound when it equals it, as :func:`_snap` leaves it.
        """
        basis_set = set(basis)
        nonbasic = [j for j in range(sf.n) if j not in basis_set and sf.lower[j] != sf.upper[j]]
        if not nonbasic:
            return [], np.zeros((0, sf.n)), None
        if self.order is not None:
            self.order.shuffle(nonbasic)
        W = np.linalg.solve(sf.A[:, basis], sf.A[:, nonbasic]) if basis else np.zeros((0, len(nonbasic)))
        sign = np.where(st[nonbasic] == "U", -1.0, 1.0)
        xb = x[basis]
        at_lower, at_upper = xb == sf.lower[basis], xb == sf.upper[basis]
        rows = np.nonzero(at_lower | at_upper)[0]
        # G[i, k] >= 0 (== 0 when fixed): column k's move keeps basic
        # variable rows[i] on the feasible side of the bound it rests on
        G = -W[rows] * sign * np.where(at_lower[rows], 1.0, -1.0)[:, None]
        G[np.abs(G) <= TOL_PIVOT] = 0.0  # rates the ratio test ignores
        moving = G.any(axis=0)
        direct = np.nonzero(~moving)[0]
        out, Y = _far_ends(sf, basis, st, x, [nonbasic[k] for k in direct], sign[direct], -W[:, direct] * sign[direct])
        if moving.any():
            involved = G[:, moving].any(axis=1)
            cone, cone_Y, truncated = self._cone_moves(
                sf, x, basis, st, [nonbasic[k] for k in np.nonzero(moving)[0]], sign[moving],
                G[involved][:, moving], rows[involved], at_lower, at_upper,
            )
            if truncated:
                return [], None, truncated
            out += cone
            Y = np.vstack([Y, *cone_Y])
        return out, Y, None

    def _cone_moves(self, sf, x, basis, st, cols, sign, G, rows, at_lower, at_upper):
        """The far end of each edge of x's tangent cone that moves a basic
        variable resting on a bound, and a list of their points, one row each.

        With u >= 0 a step along the nonbasic columns ``cols``, each oriented
        away from its bound, the basic variables of ``rows`` stay feasible
        iff G u >= 0. The cone's cross-section Q = {u >= 0, sum(u) = 1,
        G u >= 0} is walked as a polytope of its own, with slacks s = G u.
        At a vertex of Q, the columns with u > 0 or s > 0 are basic in Q.
        Swapping the rows whose s is nonbasic for all but one basic u (the
        largest) gives a basis at x where that one column's move runs along
        the edge. The cone keeps that move on the feasible side of the
        bounds that basic variables rest on, so a rate towards one is noise,
        and it is zeroed.
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
                return [], [], None  # no such edge
            if res.status != OPTIMAL:
                self.rejected += 1
                return [], [], None
            q_basis, q_st = sorted(res.basis), np.array(res.statuses, dtype="<U1")
        q_x = self.point(cone, q_basis, q_st)
        if q_x is None:
            return [], [], None
        rays, truncated = self.vertices(cone, q_basis, q_st, q_x, math.inf)
        out, points = [], []
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
            new_basis = sorted(new_basis)
            try:
                w = np.linalg.solve(sf.A[:, new_basis], sf.A[:, cols[e]])
            except np.linalg.LinAlgError:
                self.rejected += 1
                continue
            rate = -sign[e] * w
            xb = x[new_basis]
            rate[((xb == sf.lower[new_basis]) & (rate < 0)) | ((xb == sf.upper[new_basis]) & (rate > 0))] = 0.0
            end, y = _far_ends(sf, new_basis, new_st, x, [cols[e]], sign[e : e + 1], rate[:, None])
            out += end
            points.append(y)
        return out, points, truncated


def _sublevel_form(sub: LpModel, start: SimplexResult | None) -> StandardForm | None:
    """The standard form of ``sub`` when ``start`` can start its walk, else None.

    ``start`` can when it is the optimal result of ``solve_model`` on the
    model that ``sub`` cuts: its cleaned form must be the rows it kept of
    the sublevel form, without the level row and its slack column.
    """
    if start is None or start.status != OPTIMAL:
        return None
    full = to_standard_form(sub)
    rows = list(start.sf.row_origin)
    slack = full.n - 1  # the level row is the last row, so its slack is the last column
    same = full.col_names[:slack] == start.sf.col_names and all(
        np.array_equal(mine, theirs)
        for mine, theirs in (
            (full.A[rows, :slack], start.sf.A),
            (full.b[rows], start.sf.b),
            (full.lower[:slack], start.sf.lower),
            (full.upper[:slack], start.sf.upper),
        )
    )
    return full if same else None


def _start_basis(full: StandardForm, start: SimplexResult):
    """The walk's form: the rows of the sublevel form ``full`` that
    ``start``'s form kept, plus the level row; and a basis at ``start``'s
    optimum, where the level's slack joins the basis.
    """
    level, slack = full.m - 1, full.n - 1  # the level row and its slack come last
    rows = list(start.sf.row_origin) + [level]
    sf = dataclasses.replace(full, A=full.A[rows], b=full.b[rows], row_origin=tuple(rows))
    st = np.array(start.statuses + ("B",), dtype="<U1")
    return sf, list(start.basis) + [slack], st


def _vertex_set(model: LpModel, pts, meta: dict, complete: bool = True, dedup_tol: float = DEDUP_TOL) -> VertexSet:
    """Both enumerators' answer: ``pts``, points of ``model``, each valued by its objective."""
    pts = np.reshape(pts, (-1, model.n_variables))
    objectives = pts @ model.objective_vector() + model.objective.constant
    return VertexSet.from_points(
        pts, model.variable_names, objectives=objectives, complete=complete, dedup_tol=dedup_tol, meta=meta
    )


def enumerate_vertices(
    model: LpModel,
    z_star: float,
    spec: SublevelSpec,
    limit: int = 10_000,
    dedup_tol: float = DEDUP_TOL,
    order_rng: np.random.Generator | None = None,
    max_bases: int = 500_000,
    start: SimplexResult | None = None,
) -> VertexSet:
    """All vertices of the model's sublevel polytope at the level ``spec``.

    The sublevel model is built internally from ``z_star`` and ``spec``.
    Points are reported in the model's own variable space, deduplicated at
    ``dedup_tol``, and sorted; the walk tells vertices apart by their tight
    sets, so ``dedup_tol`` acts on the report alone. ``limit`` caps the
    number of vertices the walk finds, not of points merged at
    ``dedup_tol``; finding more, or exploring ``max_bases`` bases (cone
    walks included), yields complete=False. So does a basis dropped because
    its solve failed or its point was infeasible: ``meta["rejected"]``
    counts those, and ``meta["truncated"]`` reads "numerical".
    ``order_rng`` shuffles exploration order only: the same vertices are
    found, but a vertex with several bases is reported at the basis reached
    first, so its last digits may differ.

    The walk starts at the model's optimum, a vertex of the sublevel
    polytope, at its basis plus the level cut's slack. ``start``, the
    optimal result of ``solve_model(model)``, supplies that optimum. Without
    it, or when it cannot be used (not optimal, another model), the model is
    solved here; a complete vertex set is the same either way, up to the
    last digits noted above. A start basis whose point is unusable counts
    in ``meta["rejected"]``.

    A tau below the optimal value by more than 1e-9 * max(1, |z*|) gives
    the empty set, with ``meta["empty_reason"]`` "sublevel model infeasible
    (tau below the optimal value)", or "model infeasible (...)" when the
    model has no feasible point. Below by less, ``meta["tau"]`` reads the
    optimal value, the level walked (see :meth:`SublevelSpec.resolve`).

    When the optimum lies strictly below the level, the walk expands only
    the vertices strictly below it; vertices on the level are found from
    their neighbours below and never expanded (see the module docstring).
    ``meta["bases_visited"]`` counts the bases whose edges were computed,
    and ``meta["on_level"]`` the vertices landed on the level instead.
    ``meta["cold_points"]`` counts the far ends, cone walks included, whose
    point stepped along the edge left a residual too large to trust, so
    that their basic point was solved for (see :meth:`_Walk.far_points`).
    """
    sub = make_sublevel_model(model, z_star, spec)
    tau = sub.metadata["sublevel_tau"]
    meta = {"tau": tau, "model_fingerprint": model.fingerprint()}
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")

    def empty(reason: str) -> VertexSet:
        meta["empty_reason"] = reason
        return _vertex_set(model, [], meta)

    full = _sublevel_form(sub, start)
    if full is None:
        start = solve_model(model)
        if start.status == NUMERIC_FAILURE:
            raise NumericFailureError(start.message)
        if start.status == UNBOUNDED:
            raise UnboundedRegionError()
        if start.status == INFEASIBLE:
            return empty("model infeasible (no point satisfies all constraints and bounds)")
        full = to_standard_form(sub)
    if _provably_empty(start.value, tau, model.objective.sense):
        return empty("sublevel model infeasible (tau below the optimal value)")
    walk = _Walk(order_rng, max_bases)
    sf, basis, st = _start_basis(full, start)
    basis, st = _crash_free_columns(sf, basis, st)
    x = walk.point(sf, basis, st)
    if x is None:
        found, truncated = [], None
    else:
        # _start_basis appends the level row, so its slack is the last column
        level = sf.n - 1 if x[sf.n - 1] > 0 else None
        found, truncated = walk.vertices(sf, basis, st, x, limit, level)
    if truncated is None and walk.rejected:
        truncated = "numerical"

    meta["bases_visited"] = walk.bases
    meta["on_level"] = walk.on_level
    meta["rejected"] = walk.rejected
    meta["cold_points"] = walk.cold_points
    if truncated:
        meta["truncated"] = truncated
    return _vertex_set(model, [sf.recover(x) for x, _, _ in found], meta, truncated is None, dedup_tol)


def is_unique_minimizer(
    model: LpModel, z_star: float, spec: SublevelSpec, dedup_tol: float = DEDUP_TOL
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
    dedup_tol: float = DEDUP_TOL,
    max_combos: int = 10_000_000,
) -> VertexSet:
    """Oracle enumeration: intersect hyperplane subsets, keep the points that
    violate no constraint or bound of the sublevel model by more than ``feas_tol``.

    Every equality constraint is mandatory; the remaining degrees of freedom
    are filled by choosing among inequality boundaries, finite bound planes,
    and the level cut. Always returns complete=True. Refuses instances whose
    combination count exceeds ``max_combos``. A tau provably below the
    optimal value gives the empty set, as in :func:`enumerate_vertices`.
    """
    sub = make_sublevel_model(model, z_star, spec)
    tau = sub.metadata["sublevel_tau"]
    n = sub.n_variables
    meta = {"tau": tau, "model_fingerprint": model.fingerprint()}

    def empty(reason: str) -> VertexSet:
        meta["empty_reason"] = reason
        return _vertex_set(model, [], meta)

    if _provably_empty(z_star, tau, sub.objective.sense):
        return empty("sublevel model infeasible (tau below the optimal value)")
    # the violation kernel's own dense rows, so the matrix is built once
    checks = sub._checks
    rows, rhs, senses = checks["rows"], checks["rhs"], checks["senses"]
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
            found.extend(X[(sub.violations(X) <= feas_tol).all(axis=1)])
        band = np.nonzero((dets > 1e-14) & ~good)[0]
        for bi in band:
            x, *_ = np.linalg.lstsq(M[bi], R[bi], rcond=None)
            if np.abs(M[bi] @ x - R[bi]).max() <= 1e-9 and sub.is_feasible(x, feas_tol):
                found.append(x)
    return _vertex_set(model, found, meta, dedup_tol=dedup_tol)
