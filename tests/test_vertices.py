import contextlib
import importlib
import inspect
import io
import json
import logging
import pkgutil
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aoskit
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
from aoskit.standard_form import StandardForm

from conftest import dependent_cube, feasible_random_network, random_bounded_lp

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

    def test_an_unsatisfiable_zero_row_gives_the_empty_set(self):
        m = LpModel([Variable("x", 0.0, 1.0)], [Constraint({"x": 0.0}, "<=", -1.0)], Objective("min", {"x": 1.0}))
        vs = brute_force_vertices(m, 0.0, SublevelSpec(tau=1.0))
        assert len(vs) == 0 and vs.complete
        assert vs.meta["empty_reason"] == "constraint c[0] is unsatisfiable"

    def test_conflicting_dependent_equalities_give_the_empty_set(self):
        m = LpModel(
            [Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
            [Constraint({"x": 1.0, "y": 1.0}, "=", 1.0), Constraint({"x": 2.0, "y": 2.0}, "=", 3.0)],
            Objective("min", {"x": 1.0}),
        )
        vs = brute_force_vertices(m, 0.0, SublevelSpec(tau=1.0))
        assert len(vs) == 0 and vs.complete
        assert vs.meta["empty_reason"] == "conflicting dependent equality rows"

    def test_fewer_hyperplanes_than_dimensions_raises_with_hint(self):
        m = LpModel([Variable("x"), Variable("y")], [], Objective("min", {"x": 1.0, "y": 1.0}))
        with pytest.raises(UnboundedRegionError, match="fewer active hyperplanes than dimensions.*apply_box_bounds"):
            brute_force_vertices(m, 0.0, SublevelSpec(tau=1.0))

    def test_a_near_singular_subset_is_solved_by_least_squares(self, monkeypatch):
        # the level cut x >= 1 and the nearly parallel row x + 1e-11 y <= 1 + 1e-11
        # meet in a subset whose determinant, 1e-11, is too small for the
        # batched solve but not for lstsq
        m = LpModel(
            [Variable("x", 0.0, 1.0), Variable("y", 0.0, 2.0)],
            [Constraint({"x": 1.0, "y": 1e-11}, "<=", 1.0 + 1e-11)],
            Objective("min", {"x": -1.0}),
        )
        z = solve_model(m).value
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
        bf = brute_force_vertices(m, z, GAP0)
        monkeypatch.undo()
        assert len(calls) == 1
        walk = enumerate_vertices(m, z, GAP0)
        assert bf.complete and walk.complete
        assert bf.same_points(walk, 1e-6) and len(bf) == len(walk) == 2

    def test_the_dense_rows_are_built_once_per_call(self, monkeypatch):
        calls = []
        real = LpModel.constraint_matrix
        monkeypatch.setattr(LpModel, "constraint_matrix", lambda m: calls.append(None) or real(m))
        rng = np.random.default_rng(606)
        for gap in (0.0, 0.02, 0.1):
            m = random_bounded_lp(rng, n_max=5, m_max=10)
            z = solve_model(m).value
            calls.clear()
            vs = brute_force_vertices(m, z, SublevelSpec(gap=gap))
            assert len(vs) and len(calls) == 1


# the pivoting code the oracle is there to check, so must never call
PIVOTING = {
    "basic_point", "ratio_test", "leaving_row", "solve_standard", "solve_from", "to_standard_form",
    "drop_redundant_equalities", "_Walk", "_far_ends", "far_points", "_snap", "_RESIDUAL",
}


def package_functions() -> dict[str, list]:
    """Every function of the package by name, methods and properties included."""
    found = {}
    for info in pkgutil.iter_modules(aoskit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"aoskit.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if inspect.isclass(obj) and obj.__module__ == module.__name__ else ()
            for attr, member in [(name, obj), *members]:
                for fn in (member, getattr(member, "__func__", None), getattr(member, "fget", None),
                           getattr(member, "func", None)):
                    if inspect.isfunction(fn) and fn.__module__.startswith("aoskit"):
                        found.setdefault(attr, []).append(fn)
    return found


def names_reached(fn) -> set[str]:
    """The global and attribute names that ``fn``, its nested functions and,
    transitively, every package function of one of those names refer to.
    A name shared by several functions follows all of them."""
    functions = package_functions()
    names, seen, codes = set(), set(), [fn.__code__]
    while codes:
        code = codes.pop()
        if code in seen:
            continue
        seen.add(code)
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        for name in code.co_names:
            names.add(name)
            codes += [f.__code__ for f in functions.get(name, ())]
    return names


class TestOracleIndependence:
    def test_the_oracle_reaches_no_pivoting_code(self):
        reached = names_reached(brute_force_vertices)
        assert "violations" in reached  # the model's own violation kernel
        assert not reached & PIVOTING

    def test_the_walk_reaches_the_pivoting_code(self):
        # the check above would pass vacuously if the walker missed calls
        assert names_reached(enumerate_vertices) >= PIVOTING - {"solve_from"}


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


def free_box_lp(rng: np.random.Generator) -> LpModel:
    """Free variables bounded only by rows +-x_j <= u_j, now and then with a
    coupling row that the origin satisfies, and a cost of +-1 on one of
    them: the simplex sometimes ends with a free column nonbasic at 0, which
    the walk must pivot in before it starts."""
    n = int(rng.integers(1, 5))
    names = [f"x{j}" for j in range(n)]
    cons = []
    for nm in names:
        cons.append(Constraint({nm: 1.0}, "<=", float(np.round(rng.uniform(0.5, 5), 2))))
        cons.append(Constraint({nm: -1.0}, "<=", float(np.round(rng.uniform(0.5, 5), 2))))
    for _ in range(int(rng.integers(0, 2))):
        coeffs = {nm: float(np.round(rng.uniform(-2, 2), 1)) for nm in names if rng.random() < 0.6}
        if coeffs:
            cons.append(Constraint(coeffs, "<=", float(np.round(rng.uniform(0.5, 3), 1))))
    j = int(rng.integers(n))
    return LpModel(
        [Variable(nm) for nm in names],
        cons,
        Objective(str(rng.choice(["min", "max"])), {names[j]: float(rng.choice([-1.0, 1.0]))}),
    )


class TestFreeColumns:
    @pytest.mark.parametrize("gap", [0.0, 0.2])
    def test_crashed_free_columns_match_oracle(self, monkeypatch, gap):
        crashed = []
        real = vertices._crash_free_columns

        def counted(sf, basis, st):
            crashed.append(int((st == "F").sum()))
            return real(sf, basis, st)

        monkeypatch.setattr(vertices, "_crash_free_columns", counted)
        spec = SublevelSpec(gap=gap)
        for seed in range(100):
            m = free_box_lp(np.random.default_rng([17, seed]))
            best = solve_model(m)
            assert best.status == "optimal"
            bf = brute_force_vertices(m, best.value, spec)
            for start in (best, None):
                vs = enumerate_vertices(m, best.value, spec, start=start)
                assert vs.complete
                assert vs.same_points(bf) and len(vs) == len(bf)
        assert sum(crashed) > 0

    def test_a_free_column_in_no_row_raises_with_hint(self):
        m = LpModel(
            variables=[Variable("x"), Variable("y")],
            constraints=[Constraint({"x": 1.0}, "<=", 1.0), Constraint({"x": -1.0}, "<=", 1.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        best = solve_model(m)
        assert best.statuses[1] == "F"
        for start in (best, None):
            with pytest.raises(UnboundedRegionError, match="apply_box_bounds"):
                enumerate_vertices(m, best.value, GAP0, start=start)


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


def spoil_far_end(monkeypatch, fail_on: int, part: str):
    """Make the walk's judgement of its ``fail_on``-th far end read a
    violation of 1 on every bound (``part="bounds"``), which makes the far
    end unusable, or on every row (``part="rows"``), which sends it to the
    cold re-check. Far ends are judged in stacks; single points are not
    far ends."""
    judged = []
    real = StandardForm.violations

    def spoiled(sf, x):
        v = real(sf, x)
        if np.ndim(x) == 2:
            k = fail_on - 1 - len(judged)
            judged.extend(x)
            if 0 <= k < len(x):
                v[k, slice(sf.m, None) if part == "bounds" else slice(sf.m)] += 1.0
        return v

    monkeypatch.setattr(StandardForm, "violations", spoiled)


class TestNumericalDrops:
    def twelve_gon(self):
        return enumerate_vertices(TestTruncation().many_vertex_model(), TestTruncation.Z_STAR, TestTruncation.WIDE)

    def test_dropped_basis_is_counted_and_truncates(self, monkeypatch):
        spoil_far_end(monkeypatch, fail_on=2, part="bounds")
        vs = self.twelve_gon()
        assert vs.meta["rejected"] == 1
        assert vs.meta["truncated"] == "numerical"
        assert not vs.complete
        # the vertex has one basis, so it is lost, and the flag says so
        assert len(vs) == 11
        assert vs.meta["cold_points"] == 0

    def test_a_far_end_off_its_rows_is_solved_for_not_dropped(self, monkeypatch):
        spoil_far_end(monkeypatch, fail_on=2, part="rows")
        vs = self.twelve_gon()
        assert vs.meta["cold_points"] == 1
        assert vs.meta["rejected"] == 0
        assert len(vs) == 12 and vs.complete

    def test_a_failed_cold_solve_is_counted_and_truncates(self, monkeypatch):
        # the first solve is the start vertex's, the second the re-check's
        spoil_far_end(monkeypatch, fail_on=2, part="rows")
        flaky_basic_point(monkeypatch, fail_on=2)
        vs = self.twelve_gon()
        assert vs.meta["cold_points"] == 1
        assert vs.meta["rejected"] == 1
        assert vs.meta["truncated"] == "numerical"
        assert not vs.complete
        assert len(vs) == 11

    def test_cli_exits_4_on_a_dropped_basis(self, monkeypatch):
        spoil_far_end(monkeypatch, fail_on=2, part="bounds")
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

    def test_an_infeasible_model_has_its_own_reason(self):
        m = LpModel([Variable("x", 0.0, 1.0)], [Constraint({"x": 1.0}, ">=", 2.0)], Objective("min", {"x": 1.0}))
        below = enumerate_vertices(unit_square(), 0.0, SublevelSpec(tau=-5.0)).meta["empty_reason"]
        for start in (None, solve_model(m)):
            vs = enumerate_vertices(m, 0.0, GAP0, start=start)
            assert len(vs) == 0 and vs.complete
            assert vs.meta["empty_reason"] == "model infeasible (no point satisfies all constraints and bounds)"
            assert vs.meta["empty_reason"] != below


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
# the walk from the caller's optimum against a cold solve of the sublevel model


def assert_same_vertex_sets(warm, cold, tol=1e-9):
    assert len(warm) == len(cold)
    assert warm.complete == cold.complete
    assert warm.meta.get("empty_reason") == cold.meta.get("empty_reason")
    for p in warm.points:
        assert np.abs(cold.points - p).max(axis=1).min() <= tol


def count_sublevel_solves(monkeypatch):
    """Count the calls of the cold sublevel solve inside enumerate_vertices."""
    calls = []
    real = vertices.solve_model

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(vertices, "solve_model", counted)
    return calls


def with_sense(m: LpModel, sense: str) -> LpModel:
    return LpModel(m.variables, m.constraints, Objective(sense, m.objective.coeffs), metadata=m.metadata)


GAPS = st.sampled_from([0.0, 0.01, 0.05])


class TestWalkFromTheOptimum:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["min", "max"]), GAPS)
    def test_same_vertices_as_a_cold_start_on_random_lps(self, seed, sense, gap):
        m = with_sense(random_bounded_lp(np.random.default_rng(seed)), sense)
        best = solve_model(m)
        assert best.status == "optimal"
        spec = SublevelSpec(gap=gap)
        assert_same_vertex_sets(
            enumerate_vertices(m, best.value, spec, start=best), enumerate_vertices(m, best.value, spec)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 6), GAPS)
    def test_same_vertices_as_a_cold_start_on_networks(self, seed, buses, gap):
        # the two models verify walks: the boxed DC-OPF and the flow
        # relaxation, both at the DC-OPF's level
        net, dc, best = feasible_random_network(np.random.default_rng(seed), buses)
        spec = SublevelSpec(tau=SublevelSpec(gap=gap).resolve(best.value, "min"))
        nf = build_network_flow(net)
        for m, start in ((dc, best), (nf, solve_model(nf))):
            assert_same_vertex_sets(
                enumerate_vertices(m, start.value, spec, start=start), enumerate_vertices(m, start.value, spec)
            )

    def test_the_optimum_saves_the_sublevel_solve(self, monkeypatch):
        calls = count_sublevel_solves(monkeypatch)
        m = TestTruncation().many_vertex_model()
        best = solve_model(m)
        vs = enumerate_vertices(m, best.value, TestTruncation.WIDE, start=best)
        assert calls == []
        assert len(vs) == 12 and vs.complete and vs.meta["rejected"] == 0
        # a dependent equality row, dropped by the caller's solve, stays out
        m = dependent_cube()
        best = solve_model(m)
        assert best.sf.row_origin == (0, 2)
        vs = enumerate_vertices(m, best.value, SublevelSpec(gap=2.0), start=best)
        assert calls == []
        assert vs.points.tolist() == [
            [0.0, 0.5, 1.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0], [0.5, 1.0, 0.0], [1.0, 0.5, 0.0]
        ]

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_a_tau_below_the_optimum_falls_back_to_the_empty_answer(self, monkeypatch, sense):
        calls = count_sublevel_solves(monkeypatch)
        points = []
        real = vertices.basic_point
        monkeypatch.setattr(vertices, "basic_point", lambda *args: points.append(None) or real(*args))
        m = unit_square(sense)
        best = solve_model(m)
        better_than_optimal = -0.5 if sense == "min" else 2.5
        vs = enumerate_vertices(m, best.value, SublevelSpec(tau=better_than_optimal), start=best)
        # tau lies provably below the caller's optimum, so neither a solve
        # nor a basis at it is tried
        assert calls == [] and points == []
        assert len(vs) == 0 and vs.complete
        assert vs.meta["empty_reason"]

    def test_an_unusable_start_falls_back_to_a_cold_solve(self, monkeypatch):
        calls = count_sublevel_solves(monkeypatch)
        m = TestTruncation().many_vertex_model()
        best = solve_model(m)
        other = solve_model(unit_square())
        infeasible = solve_model(LpModel([Variable("x", 0.0, 1.0)], [Constraint({"x": 1.0}, ">=", 2.0)],
                                         Objective("min", {"x": 1.0})))
        cold = enumerate_vertices(m, best.value, TestTruncation.WIDE)
        for start in (other, infeasible):
            assert_same_vertex_sets(enumerate_vertices(m, best.value, TestTruncation.WIDE, start=start), cold)
        assert len(calls) == 3

    def test_cli_enumerate_rank_and_verify_make_no_sublevel_solve(self, monkeypatch, tmp_path):
        calls = count_sublevel_solves(monkeypatch)
        path = str(resources.files("aoskit") / "fixtures" / "canonical_3bus.json")
        secondary = tmp_path / "secondary.json"
        secondary.write_text(json.dumps({"sense": "max", "coeffs": {"P[1]": 1.0}}))
        for argv in (
            ["enumerate", path, "--gap", "0.05"],
            ["rank", path, "--gap", "0.05", "--secondary", str(secondary)],
            ["verify", path, "--gap", "0.05"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        assert calls == []


# ---------------------------------------------------------------------------
# above the optimum the walk expands only the vertices strictly below the level


class TestExpandOnlyBelowTheLevel:
    @pytest.mark.parametrize("gap", [0.01, 0.1, 0.5])
    def test_matches_oracle_on_random_lps(self, gap):
        rng = np.random.default_rng([16, round(gap * 100)])
        on_level = 0
        for i in range(300):
            m = random_bounded_lp(rng)
            best = solve_model(m)
            spec = SublevelSpec(gap=gap)
            vs = enumerate_vertices(m, best.value, spec, start=best if i % 2 else None)
            bf = brute_force_vertices(m, best.value, spec)
            assert vs.complete
            assert vs.same_points(bf) and len(vs) == len(bf)
            on_level += vs.meta["on_level"]
        assert on_level > 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["min", "max"]), st.integers(0, 2**16), st.booleans())
    def test_matches_oracle_with_the_level_through_a_vertex(self, seed, sense, pick, warm):
        # tau is the value of a vertex of P that is not optimal: that vertex
        # lies exactly on the level, with edges of P leading below and above
        m = with_sense(random_bounded_lp(np.random.default_rng(seed)), sense)
        best = solve_model(m)
        everything = SublevelSpec(tau=1e6 if sense == "min" else -1e6)
        values = brute_force_vertices(m, best.value, everything).objectives
        above = values[np.abs(values - best.value) > 1e-6 * max(1.0, abs(best.value))]
        assume(above.size)
        spec = SublevelSpec(tau=float(above[pick % above.size]))
        vs = enumerate_vertices(m, best.value, spec, start=best if warm else None)
        bf = brute_force_vertices(m, best.value, spec)
        assert vs.complete
        assert vs.same_points(bf) and len(vs) == len(bf)

    def test_a_vertex_just_below_a_large_level_is_expanded(self):
        # (1, 1, 0) lies 5e-6 below tau, within 1e-9 * |tau|; the edge up
        # along z crosses the level at (1, 1, 0.005), which no other vertex
        # below the level reaches. The oracle runs at feas_tol 1e-9: at
        # 1e-7 it also keeps (1 - 1e-7, 1, 1), where the level meets x's
        # lower bound just outside the box.
        m = LpModel(
            variables=[Variable("x", 1.0, 2.0), Variable("y", 0.0, 1.0), Variable("z", 0.0, 1.0)],
            objective=Objective("min", {"x": 1e4, "y": 1.0, "z": 1e-3}),
        )
        best = solve_model(m)
        spec = SublevelSpec(tau=10001.000005)
        bf = brute_force_vertices(m, best.value, spec, feas_tol=1e-9)
        assert [1.0, 1.0, 0.005] in np.round(bf.points, 9).tolist()
        for start in (None, best):
            vs = enumerate_vertices(m, best.value, spec, start=start)
            assert vs.complete
            assert vs.same_points(bf) and len(vs) == len(bf)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["min", "max"]), st.integers(0, 2**16), st.booleans())
    def test_matches_oracle_with_a_large_level_just_past_a_vertex(self, seed, sense, pick, warm):
        # a column t in [1, 2] costing 1e5 puts |tau| near 1e5; tau sits
        # 5e-5 past the value of a vertex with t = 1, so that vertex lies
        # strictly below the level by less than 1e-9 * |tau|, and edges
        # with rates up to 50 cross the level more than dedup_tol away.
        # The oracle runs at feas_tol 1e-9: at 1e-7 it would also keep
        # points where the level meets t's lower bound up to 1e-7 outside.
        base = with_sense(random_bounded_lp(np.random.default_rng(seed)), sense)
        big = 1e5 if sense == "min" else -1e5
        m = LpModel(
            variables=list(base.variables) + [Variable("t", 1.0, 2.0)],
            constraints=base.constraints,
            objective=Objective(sense, {**base.objective.coeffs, "t": big}),
        )
        best = solve_model(m)
        everything = SublevelSpec(tau=1e6 if sense == "min" else -1e6)
        values = brute_force_vertices(m, best.value, everything).objectives
        near = np.abs(values - best.value) < 1e3
        above = values[near & (np.abs(values - best.value) > 1e-6 * abs(best.value))]
        assume(above.size)
        v = float(above[pick % above.size])
        spec = SublevelSpec(tau=v + 5e-5 if sense == "min" else v - 5e-5)
        vs = enumerate_vertices(m, best.value, spec, start=best if warm else None)
        bf = brute_force_vertices(m, best.value, spec, feas_tol=1e-9)
        assert vs.complete
        assert vs.same_points(bf) and len(vs) == len(bf)

    def test_matches_oracle_on_small_networks(self):
        on_level = 0
        for seed in range(8):
            for buses in (3, 4):
                _, dc, best = feasible_random_network(np.random.default_rng(seed), buses)
                for gap in (0.01, 0.05):
                    spec = SublevelSpec(gap=gap)
                    vs = enumerate_vertices(dc, best.value, spec, start=best)
                    bf = brute_force_vertices(dc, best.value, spec)
                    assert vs.complete
                    assert vs.same_points(bf) and len(vs) == len(bf)
                    on_level += vs.meta["on_level"]
        assert on_level > 0

    def test_bases_visited_counts_only_expanded_vertices(self):
        # min x over the unit square: at tau 0.5 the corners (0, 0) and
        # (0, 1) lie below the level and (0.5, 0) and (0.5, 1) on it; at
        # gap 0 the optimal edge x = 0 is all there is, on the level, and
        # both of its corners are expanded
        m = LpModel(variables=unit_square().variables, objective=Objective("min", {"x": 1.0}))
        vs = enumerate_vertices(m, 0.0, SublevelSpec(tau=0.5))
        assert vs.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 1.0]]
        assert vs.meta["bases_visited"] == 2 < len(vs)
        assert vs.meta["on_level"] == 2
        vs = enumerate_vertices(m, 0.0, GAP0)
        assert vs.points.tolist() == [[0.0, 0.0], [0.0, 1.0]]
        assert vs.meta["bases_visited"] == len(vs) == 2
        assert vs.meta["on_level"] == 0

    def test_progress_is_logged_per_expanded_basis(self, monkeypatch, caplog):
        monkeypatch.setattr(vertices, "_LOG_EVERY", 1)
        with caplog.at_level(logging.INFO, logger="aoskit.vertices"):
            vs = enumerate_vertices(unit_square(), 0.0, SublevelSpec(tau=1.5))
        assert vs.meta["bases_visited"] == 3 and vs.meta["on_level"] == 2
        assert [r.getMessage() for r in caplog.records if r.name == "aoskit.vertices"] == [
            "walk: 1 bases expanded, 1 vertices, 0 queued, 0 re-solved cold",
            "walk: 2 bases expanded, 3 vertices, 1 queued, 0 re-solved cold",
            "walk: 3 bases expanded, 4 vertices, 0 queued, 0 re-solved cold",
        ]

    def test_progress_log_leaves_the_report_alone(self, monkeypatch, caplog):
        path = str(resources.files("aoskit") / "fixtures" / "canonical_3bus.json")
        reports = []
        for every in (1000, 1):
            monkeypatch.setattr(vertices, "_LOG_EVERY", every)
            out = io.StringIO()
            with caplog.at_level(logging.INFO, logger="aoskit.vertices"), contextlib.redirect_stdout(out):
                assert main(["enumerate", path, "--gap", "0.05"]) == 0
            reports.append(out.getvalue())
        assert reports[0] == reports[1]
        assert any(r.name == "aoskit.vertices" for r in caplog.records)


# ---------------------------------------------------------------------------
# far ends stepped along their edges, not solved for


def record_far_points(monkeypatch):
    """Record (form, (basis, statuses), point) for every far end the walk
    accepts, cone walks included."""
    accepted = []
    real = vertices._Walk.far_points

    def recorded(walk, sf, ends, Y):
        points = real(walk, sf, ends, Y)
        accepted.extend((sf, end, y) for end, y in zip(ends, points) if y is not None)
        return points

    monkeypatch.setattr(vertices._Walk, "far_points", recorded)
    return accepted


def oracle_lp(seed: int, sense: str) -> LpModel:
    """A random bounded LP of the kind acceptance criterion 6 draws."""
    return with_sense(random_bounded_lp(np.random.default_rng(seed), n_max=5, m_max=10), sense)


class TestSteppedFarEnds:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["min", "max", "apex"]), st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    def test_every_far_end_is_its_basic_point(self, seed, kind, gap):
        # the apex families put a degenerate vertex first, so cone walks run
        if kind == "apex":
            n, k = APEX_FAMILIES[seed % len(APEX_FAMILIES)]
            m = apex_family(n, k, seed % 5)
        else:
            m = oracle_lp(seed, kind)
        best = solve_model(m)
        with pytest.MonkeyPatch.context() as patch:
            accepted = record_far_points(patch)
            vs = enumerate_vertices(m, best.value, SublevelSpec(gap=gap), start=best)
        assert vs.complete and vs.meta["cold_points"] == 0
        assert accepted or len(vs) == 1
        for sf, (basis, statuses), y in accepted:
            p = vertices._snap(sf, vertices.basic_point(sf.A, sf.b, sf.lower, sf.upper, basis, statuses))
            assert np.abs(y - p).max() <= 1e-9 * max(1.0, np.abs(p).max())

    @pytest.mark.parametrize("gap", [0.0, 0.02, 0.1])
    def test_cold_far_ends_give_the_same_vertices(self, monkeypatch, gap):
        # at a residual bound of 0 every far end whose residual is not
        # exactly 0 is solved for, as the walk did before it stepped them
        models = [oracle_lp(seed, sense) for seed in range(40) for sense in ("min", "max")]
        models += [apex_family(n, k, 0) for n, k in APEX_FAMILIES]
        models += [feasible_random_network(np.random.default_rng(seed), 12)[1] for seed in range(4)]
        spec = SublevelSpec(gap=gap)
        stepped = [enumerate_vertices(m, solve_model(m).value, spec) for m in models]
        monkeypatch.setattr(vertices, "_RESIDUAL", 0.0)
        cold = 0
        for m, warm in zip(models, stepped):
            solved = enumerate_vertices(m, solve_model(m).value, spec)
            assert_same_vertex_sets(warm, solved)
            assert warm.meta["bases_visited"] == solved.meta["bases_visited"]
            assert warm.meta["cold_points"] == 0 == solved.meta["rejected"]
            cold += solved.meta["cold_points"]
        assert cold > 0

    def test_a_deep_walk_solves_for_no_far_end(self):
        # conftest seed 31, 30 buses: 239 vertices expanded, each far end a
        # step from one before it, down to 2 358 vertices
        _, dc, best = feasible_random_network(np.random.default_rng(31), 30)
        vs = enumerate_vertices(dc, best.value, SublevelSpec(gap=0.01), start=best)
        assert len(vs) == 2358 and vs.complete
        assert vs.meta["rejected"] == 0
        assert vs.meta["cold_points"] == 0
