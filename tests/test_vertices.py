import contextlib
import io
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoskit import vertices
from aoskit import (
    Constraint,
    LpModel,
    Objective,
    OracleGuardError,
    SublevelSpec,
    UnboundedRegionError,
    Variable,
    apply_box_bounds,
    brute_force_vertices,
    build_dcopf,
    build_network_flow,
    canonical_3bus,
    enumerate_vertices,
    is_in_convex_hull,
    is_unique_minimizer,
    make_sublevel_model,
    solve_model,
)
from aoskit.cli import main
from aoskit.vertices import _PointIndex

from conftest import random_bounded_lp

GAP0 = SublevelSpec(gap=0.0)


def unit_square(sense="min"):
    return LpModel(
        variables=[Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
        objective=Objective(sense, {"x": 1.0, "y": 1.0}),
    )


# ---------------------------------------------------------------------------
# brute-force oracle on hand-computed geometry, before anything trusts it


class TestBruteForceOracle:
    def test_unit_square_large_tau_gives_four_corners(self):
        m = unit_square()
        vs = brute_force_vertices(m, 0.0, SublevelSpec(tau=10.0))
        assert vs.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert vs.complete

    def test_unit_square_mid_tau_cuts_a_triangle(self):
        m = unit_square()
        vs = brute_force_vertices(m, 0.0, SublevelSpec(tau=1.0))
        assert vs.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_optimal_face_is_one_corner(self):
        m = unit_square()
        vs = brute_force_vertices(m, 0.0, GAP0)
        assert vs.points.tolist() == [[0.0, 0.0]]

    def test_infeasible_tau_gives_empty_complete_set(self):
        m = unit_square()
        vs = brute_force_vertices(m, 0.0, SublevelSpec(tau=-1.0))
        assert len(vs) == 0
        assert vs.complete

    def test_combination_guard(self):
        rng = np.random.default_rng(5)
        m = random_bounded_lp(rng, n_max=5, m_max=10)
        z = solve_model(m).value
        with pytest.raises(OracleGuardError):
            brute_force_vertices(m, z, SublevelSpec(gap=0.1), max_combos=1)

    def test_objectives_reported_per_point(self):
        m = unit_square()
        vs = brute_force_vertices(m, 0.0, SublevelSpec(tau=1.0))
        assert vs.objectives.tolist() == [0.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# pivot-based enumerator against the oracle and hand geometry


class TestEnumerateVertices:
    def test_segment_gives_exactly_two_points(self):
        # optimal face of min x over the square is the segment x=0
        m = unit_square()
        sub = LpModel(
            variables=m.variables,
            objective=Objective("min", {"x": 1.0}),
        )
        vs = enumerate_vertices(sub, 0.0, GAP0)
        assert vs.points.tolist() == [[0.0, 0.0], [0.0, 1.0]]

    def test_matches_oracle_on_square(self):
        m = unit_square()
        for tau in (0.0, 0.7, 1.0, 1.5, 2.0, 9.0):
            vs = enumerate_vertices(m, 0.0, SublevelSpec(tau=tau))
            bf = brute_force_vertices(m, 0.0, SublevelSpec(tau=tau))
            assert vs.same_points(bf), f"tau={tau}"

    def test_matches_oracle_on_random_lps(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 80:
            m = random_bounded_lp(rng)
            res = solve_model(m)
            if res.status != "optimal":
                continue
            spec = SublevelSpec(gap=[0.0, 0.02, 0.1][checked % 3])
            vs = enumerate_vertices(m, res.value, spec)
            bf = brute_force_vertices(m, res.value, spec)
            assert vs.same_points(bf)
            assert len(vs) == len(bf)
            checked += 1

    def test_every_vertex_feasible_and_below_tau(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = random_bounded_lp(rng)
            res = solve_model(m)
            if res.status != "optimal":
                continue
            spec = SublevelSpec(gap=0.05)
            sub = make_sublevel_model(m, res.value, spec)
            vs = enumerate_vertices(m, res.value, spec)
            for p in vs.points:
                assert sub.max_violation(p) <= 1e-7

    def test_vertices_have_full_active_rank(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = random_bounded_lp(rng)
            res = solve_model(m)
            if res.status != "optimal":
                continue
            sub = make_sublevel_model(m, res.value, SublevelSpec(gap=0.05))
            rows, rhs, senses = sub.constraint_matrix()
            lower, upper = sub.bounds_arrays()
            n = sub.n_variables
            vs = enumerate_vertices(m, res.value, SublevelSpec(gap=0.05))
            for p in vs.points:
                active = [rows[i] for i in range(len(senses)) if abs(rows[i] @ p - rhs[i]) <= 1e-7]
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = 1.0
                    if abs(p[i] - lower[i]) <= 1e-7 or abs(p[i] - upper[i]) <= 1e-7:
                        active.append(e)
                assert np.linalg.matrix_rank(np.array(active), tol=1e-7) == n

    def test_order_independence(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            m = random_bounded_lp(rng)
            res = solve_model(m)
            if res.status != "optimal":
                continue
            spec = SublevelSpec(gap=0.05)
            base = enumerate_vertices(m, res.value, spec)
            for seed in (1, 2, 3):
                shuffled = enumerate_vertices(
                    m, res.value, spec, order_rng=np.random.default_rng(seed)
                )
                assert base.same_points(shuffled)
                assert len(base) == len(shuffled)

    def test_hull_contains_optima_of_random_objectives(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            m = random_bounded_lp(rng, n_max=4, m_max=6)
            res = solve_model(m)
            if res.status != "optimal":
                continue
            spec = SublevelSpec(gap=0.1)
            sub = make_sublevel_model(m, res.value, spec)
            vs = enumerate_vertices(m, res.value, spec)
            for _ in range(5):
                c = rng.normal(size=m.n_variables)
                probe = LpModel(
                    variables=sub.variables,
                    constraints=sub.constraints,
                    objective=Objective("min", dict(zip(sub.variable_names, c))),
                )
                pr = solve_model(probe)
                assert pr.status == "optimal"
                assert is_in_convex_hull(pr.x, vs.points)

    def test_hull_contains_convex_combinations(self):
        m = unit_square()
        vs = enumerate_vertices(m, 0.0, SublevelSpec(tau=1.0))
        rng = np.random.default_rng(46)
        for _ in range(10):
            w = rng.random(len(vs))
            w /= w.sum()
            assert is_in_convex_hull(vs.points.T @ w, vs.points)

    def test_degenerate_pyramid_apex_merged(self):
        m = LpModel(
            variables=[Variable("x", -1.0, 1.0), Variable("y", -1.0, 1.0), Variable("z", -1.0, 1.0)],
            constraints=[
                Constraint({"z": 1.0, "x": -1.0}, ">=", 0.0),
                Constraint({"z": 1.0, "x": 1.0}, ">=", 0.0),
                Constraint({"z": 1.0, "y": -1.0}, ">=", 0.0),
                Constraint({"z": 1.0, "y": 1.0}, ">=", 0.0),
            ],
            objective=Objective("min", {"z": 1.0}),
        )
        vs = enumerate_vertices(m, 0.0, GAP0)
        assert vs.points.tolist() == [[0.0, 0.0, 0.0]]
        assert brute_force_vertices(m, 0.0, GAP0).same_points(vs)


class TestUnboundedHandling:
    def test_dcopf_without_box_raises_with_hint(self):
        dc = build_dcopf(canonical_3bus())
        with pytest.raises(UnboundedRegionError, match="apply_box_bounds"):
            enumerate_vertices(dc, 5000.0, GAP0)

    def test_free_variable_with_bounded_sublevel(self):
        m = LpModel(
            variables=[Variable("x")],
            constraints=[Constraint({"x": 1.0}, ">=", -5.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        vs = enumerate_vertices(m, -5.0, GAP0)
        assert vs.points.tolist() == [[-5.0]]

    def test_unbounded_face_raises(self):
        # min x over a quadrant: tau slice {x = 0, y >= 0} is an unbounded ray
        m = LpModel(
            variables=[Variable("x", lower=0.0), Variable("y", lower=0.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        with pytest.raises(UnboundedRegionError):
            enumerate_vertices(m, 0.0, GAP0)
        vs = enumerate_vertices(apply_box_bounds(m, 100.0), 0.0, GAP0)
        assert vs.points.tolist() == [[0.0, 0.0], [0.0, 100.0]]


class TestTruncation:
    def many_vertex_model(self):
        # regular 12-gon of tangent half-planes; a far-away level cut keeps
        # every polygon vertex inside the sublevel set
        angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        cons = [
            Constraint({"x": float(np.cos(a)), "y": float(np.sin(a))}, "<=", 1.0)
            for a in angles
        ]
        return LpModel(
            variables=[Variable("x", -2.0, 2.0), Variable("y", -2.0, 2.0)],
            constraints=cons,
            objective=Objective("min", {"x": 1.0}),
        )

    Z_STAR = -1.0  # min x over the polygon: tangent plane at angle pi
    WIDE = SublevelSpec(tau=10.0)

    def test_complete_run_finds_all_12(self):
        m = self.many_vertex_model()
        vs = enumerate_vertices(m, self.Z_STAR, self.WIDE)
        assert len(vs) == 12
        assert vs.complete

    def test_limit_truncates_with_flag(self):
        m = self.many_vertex_model()
        vs = enumerate_vertices(m, self.Z_STAR, self.WIDE, limit=5)
        assert len(vs) == 5
        assert not vs.complete
        assert "limit" in vs.meta["truncated"]

    def test_basis_budget_truncates_with_flag(self):
        m = self.many_vertex_model()
        vs = enumerate_vertices(m, self.Z_STAR, self.WIDE, max_bases=3)
        assert not vs.complete
        assert "budget" in vs.meta["truncated"]

    def test_bases_visited_counts_explored_bases(self):
        # a simple polygon has one basis per vertex, each explored once
        vs = enumerate_vertices(self.many_vertex_model(), self.Z_STAR, self.WIDE)
        assert vs.meta["bases_visited"] == 12
        assert vs.meta["rejected"] == 0


def flaky_basic_point(monkeypatch, fail_on: int):
    """Make the walk's basic-point solve raise on its ``fail_on``-th call."""
    calls = []
    real = vertices.basic_point

    def flaky(*args):
        calls.append(None)
        if len(calls) == fail_on:
            raise np.linalg.LinAlgError("singular basis")
        return real(*args)

    monkeypatch.setattr(vertices, "basic_point", flaky)


class TestNumericalDrops:
    def test_dropped_basis_is_counted_and_truncates(self, monkeypatch):
        flaky_basic_point(monkeypatch, fail_on=2)
        m = TestTruncation().many_vertex_model()
        vs = enumerate_vertices(m, TestTruncation.Z_STAR, TestTruncation.WIDE)
        assert vs.meta["rejected"] == 1
        assert vs.meta["truncated"] == "numerical"
        assert not vs.complete
        # the vertex has one basis, so it is lost, and the flag says so
        assert len(vs) == 11

    def test_cli_exits_4_on_a_dropped_basis(self, monkeypatch):
        flaky_basic_point(monkeypatch, fail_on=2)
        out = io.StringIO()
        path = str(resources.files("aoskit") / "fixtures" / "canonical_3bus.json")
        with contextlib.redirect_stdout(out):
            code = main(["enumerate", path, "--gap", "0.05"])
        assert code == 4
        result = json.loads(out.getvalue())["result"]
        assert result["complete"] is False
        assert result["meta"]["truncated"] == "numerical"


def apex_family(n: int, k: int, seed: int) -> LpModel:
    """k random facets through an apex p of [0,1]^n, maximizing a strictly
    positive combination of their normals: p is the unique optimum, and at
    gap 0 every basis sits on it."""
    rng = np.random.default_rng([n, k, seed])
    names = [f"x{j}" for j in range(n)]
    apex = rng.uniform(0.2, 0.8, size=n)
    normals = rng.normal(size=(k, n))
    c = rng.uniform(0.5, 1.5, size=k) @ normals
    return LpModel(
        variables=[Variable(nm, 0.0, 1.0) for nm in names],
        constraints=[Constraint(dict(zip(names, map(float, a))), "<=", float(a @ apex)) for a in normals],
        objective=Objective("max", dict(zip(names, map(float, c)))),
    )


APEX_FAMILIES = [(3, 6), (4, 8), (5, 9)]


class TestDegenerateVertices:
    @pytest.mark.parametrize("n,k", APEX_FAMILIES)
    def test_apex_is_one_vertex_from_a_few_bases(self, n, k):
        for seed in range(3):
            m = apex_family(n, k, seed)
            z = solve_model(m).value
            vs = enumerate_vertices(m, z, GAP0)
            assert len(vs) == 1
            assert vs.complete
            assert vs.meta["bases_visited"] <= 4
            cert = is_unique_minimizer(m, z, GAP0)
            assert cert.unique and cert.complete

    @pytest.mark.parametrize("n,k", APEX_FAMILIES)
    def test_apex_sublevel_matches_oracle_in_any_order(self, n, k):
        for seed in range(3):
            m = apex_family(n, k, seed)
            z = solve_model(m).value
            spec = SublevelSpec(gap=0.3)
            vs = enumerate_vertices(m, z, spec)
            bf = brute_force_vertices(m, z, spec)
            assert vs.complete
            assert vs.same_points(bf) and len(vs) == len(bf)
            for order in (1, 2, 3):
                shuffled = enumerate_vertices(m, z, spec, order_rng=np.random.default_rng(order))
                assert shuffled.same_points(vs) and len(shuffled) == len(vs)

    def test_vertices_closer_than_dedup_tol_do_not_stop_the_walk(self):
        # the 12-gon with every corner cut 1e-8 deep: 24 vertices in pairs
        # far closer than dedup_tol; each pair reports as one point, and the
        # walk must go on past both of its members
        m = TestTruncation().many_vertex_model()
        radius = 1.0 / np.cos(np.pi / 12)
        cuts = [
            Constraint({"x": float(np.cos(a)), "y": float(np.sin(a))}, "<=", radius - 1e-8)
            for a in np.linspace(0, 2 * np.pi, 12, endpoint=False) + np.pi / 12
        ]
        m = LpModel(variables=m.variables, constraints=list(m.constraints) + cuts, objective=m.objective)
        vs = enumerate_vertices(m, TestTruncation.Z_STAR, TestTruncation.WIDE)
        assert len(vs) == 12 and vs.complete
        assert vs.same_points(brute_force_vertices(m, TestTruncation.Z_STAR, TestTruncation.WIDE))

    @pytest.mark.parametrize("gap", [0.0, 0.05])
    def test_canonical_verify_models_match_oracle(self, gap):
        net = canonical_3bus()
        dc = apply_box_bounds(build_dcopf(net), 1e4)
        z = solve_model(dc).value
        spec = SublevelSpec(tau=SublevelSpec(gap=gap).resolve(z, "min"))
        nf = build_network_flow(net)
        for m, z_m in ((dc, z), (nf, solve_model(nf).value)):
            vs = enumerate_vertices(m, z_m, spec)
            bf = brute_force_vertices(m, z_m, spec)
            assert vs.complete
            assert vs.same_points(bf) and len(vs) == len(bf)


class TestInfeasibleSublevel:
    def test_empty_result_with_reason(self):
        m = unit_square()
        vs = enumerate_vertices(m, 0.0, SublevelSpec(tau=-5.0))
        assert len(vs) == 0
        assert vs.complete
        assert vs.meta["empty_reason"]


class TestUniqueness:
    def test_unique_interval_minimum(self):
        m = LpModel(
            variables=[Variable("x", 0.0, 1.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        cert = is_unique_minimizer(m, 0.0, GAP0)
        assert cert.unique
        assert cert.complete
        assert len(cert.witnesses) == 1
        assert cert.witnesses[0].tolist() == [0.0]

    def test_non_unique_square_face(self):
        sub = LpModel(
            variables=[Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        cert = is_unique_minimizer(sub, 0.0, GAP0)
        assert not cert.unique
        assert len(cert.witnesses) == 2

    def test_triangle_fixtures(self, triangle_exact, triangle_perturbed):
        z1 = solve_model(triangle_exact).value
        cert1 = is_unique_minimizer(triangle_exact, z1, GAP0)
        assert not cert1.unique

        z2 = solve_model(triangle_perturbed).value
        cert2 = is_unique_minimizer(triangle_perturbed, z2, GAP0)
        assert cert2.unique
        assert np.allclose(cert2.witnesses[0], [100.0, 1.0], atol=1e-7)

    def test_never_unique_when_truncated(self):
        # a two-point face explored with limit=1 must not claim uniqueness
        sub = LpModel(
            variables=[Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        vs = enumerate_vertices(sub, 0.0, GAP0, limit=1)
        assert not vs.complete
        cert = is_unique_minimizer(sub, 0.0, GAP0)
        assert not cert.unique


class TestVertexSetMeta:
    def test_tau_and_fingerprint_recorded(self):
        m = unit_square()
        vs = enumerate_vertices(m, 0.0, SublevelSpec(tau=1.0))
        assert vs.tau == pytest.approx(1.0)
        assert vs.meta["model_fingerprint"] == m.fingerprint()

    def test_json_round_trip(self):
        m = unit_square()
        vs = enumerate_vertices(m, 0.0, SublevelSpec(tau=1.0))
        doc = vs.to_json_dict()
        from aoskit import VertexSet

        again = VertexSet.from_json_dict(doc)
        assert again.same_points(vs)
        assert again.names == vs.names
        assert again.complete == vs.complete
        assert again.tau == pytest.approx(vs.tau)


# ---------------------------------------------------------------------------
# the walk's point index against a scan of every stored point

INDEX_TOL = 1e-6
EDGE = 1024.0 * INDEX_TOL  # the index's cell width; cell edges lie at (k + 0.5) * EDGE
NEAR_EDGES = st.builds(
    lambda k, off: (k + 0.5) * EDGE + off,
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.5, -2.5, 0.3 * 1024]).map(lambda f: f * INDEX_TOL),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(NEAR_EDGES, min_size=d, max_size=d), min_size=1, max_size=30)
))
def test_point_index_finds_exactly_the_points_within_tol(rows):
    index = _PointIndex(INDEX_TOL)
    stored: list[np.ndarray] = []
    for row in rows:
        y = np.array(row)
        close = [i for i, q in enumerate(stored) if np.abs(q - y).max() <= INDEX_TOL]
        hit = index.find(y)
        if close:
            assert hit in close
        else:
            assert hit is None
            assert index.add(y) == len(stored)
            stored.append(y)
