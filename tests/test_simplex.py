import contextlib
import io
import itertools
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aoskit import (
    Constraint,
    LpModel,
    Objective,
    Variable,
    build_dcopf,
    network_from_dict,
    solve_model,
)
from aoskit.cli import main
from aoskit.simplex import TOL_PIVOT, basic_point, ratio_test

from conftest import random_bounded_lp


def scan_optimum(model, feas_tol=1e-7):
    """Independent oracle: intersect every n-subset of boundary planes.

    Slower and dumber than the solver on purpose. No basis bookkeeping, no
    pivoting, no plane canonicalization: just raw linear algebra over all
    candidate vertex systems.
    """
    rows, rhs, _ = model.constraint_matrix()
    lower, upper = model.bounds_arrays()
    n = model.n_variables
    planes, offsets = list(rows), list(rhs)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        if np.isfinite(lower[i]):
            planes.append(e.copy())
            offsets.append(lower[i])
        if np.isfinite(upper[i]):
            planes.append(e.copy())
            offsets.append(upper[i])
    P, q = np.array(planes), np.array(offsets)
    combos = np.array(list(itertools.combinations(range(len(P)), n)))
    if not len(combos):
        return None
    M = P[combos]
    r = q[combos]
    keep = np.abs(np.linalg.det(M)) > 1e-9
    if not keep.any():
        return None
    X = np.linalg.solve(M[keep], r[keep][:, :, None])[:, :, 0]
    best = None
    sign = 1.0 if model.objective.sense == "min" else -1.0
    for x in X:
        if model.max_violation(x) <= feas_tol:
            v = model.evaluate_objective(x)
            if best is None or sign * v < sign * best:
                best = v
    return best


def beale_model():
    """Beale's classic cycling instance for textbook pivoting rules."""
    return LpModel(
        variables=[Variable(f"x{i}", lower=0.0) for i in range(1, 5)],
        constraints=[
            Constraint({"x1": 0.25, "x2": -60.0, "x3": -1.0 / 25.0, "x4": 9.0}, "<=", 0.0),
            Constraint({"x1": 0.5, "x2": -90.0, "x3": -1.0 / 50.0, "x4": 3.0}, "<=", 0.0),
            Constraint({"x3": 1.0}, "<=", 1.0),
        ],
        objective=Objective("min", {"x1": -0.75, "x2": 150.0, "x3": -0.02, "x4": 6.0}),
    )


def klee_minty_model(n=8):
    """The Klee-Minty cube, on which Dantzig pricing visits all 2^n vertices."""
    names = [f"x{j}" for j in range(1, n + 1)]
    cons = []
    for i in range(1, n + 1):
        coeffs = {names[j - 1]: 2.0 ** (i - j + 1) for j in range(1, i)}
        coeffs[names[i - 1]] = 1.0
        cons.append(Constraint(coeffs, "<=", 5.0 ** i))
    return LpModel(
        variables=[Variable(nm, lower=0.0) for nm in names],
        constraints=cons,
        objective=Objective("max", {names[j - 1]: 2.0 ** (n - j) for j in range(1, n + 1)}),
    )


# name: (model, a feasible start, the recession direction the solver reports)
UNBOUNDED_CASES = {
    # free y enters rising; the basic x follows it
    "free_column_rises": (
        LpModel(
            variables=[Variable("x"), Variable("y")],
            constraints=[Constraint({"x": 1.0, "y": -1.0}, "<=", 5.0)],
            objective=Objective("max", {"x": 1.0}),
        ),
        [0.0, 0.0],
        [1.0, 1.0],
    ),
    # free y enters moving down (direction -1); the basic x falls with it
    "free_column_falls": (
        LpModel(
            variables=[Variable("x"), Variable("y")],
            constraints=[Constraint({"x": 1.0, "y": -1.0}, "<=", 5.0)],
            objective=Objective("min", {"y": 1.0}),
        ),
        [0.0, 0.0],
        [-1.0, -1.0],
    ),
    # y enters from its lower bound; the basic x moves at rate 2
    "basic_components": (
        LpModel(
            variables=[Variable("x", 0.0), Variable("y", 0.0)],
            constraints=[Constraint({"x": 1.0, "y": -2.0}, "=", 1.0)],
            objective=Objective("max", {"x": 1.0}),
        ),
        [1.0, 0.0],
        [2.0, 1.0],
    ),
    "minimisation": (
        LpModel(
            variables=[Variable("x", 0.0), Variable("y", 0.0)],
            constraints=[
                Constraint({"x": 1.0, "y": -1.0}, ">=", -2.0),
                Constraint({"x": 1.0, "y": -1.0}, "<=", 3.0),
            ],
            objective=Objective("min", {"x": -1.0, "y": -1.0}),
        ),
        [0.0, 0.0],
        [1.0, 1.0],
    ),
}


class TestAgainstScanOracle:
    def test_random_lps_match_vertex_scan(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            m = random_bounded_lp(rng, n_max=6, m_max=8)
            res = solve_model(m)
            assert res.status == "optimal", res.message
            expected = scan_optimum(m)
            assert expected is not None
            assert res.value == pytest.approx(expected, abs=1e-6)
            assert m.max_violation(res.x) <= 1e-7
            assert m.evaluate_objective(res.x) == pytest.approx(res.value, abs=1e-8)
            checked += 1


class TestStatuses:
    def test_infeasible(self):
        m = LpModel(
            variables=[Variable("x", 0.0, 1.0)],
            constraints=[Constraint({"x": 1.0}, ">=", 2.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        res = solve_model(m)
        assert res.status == "infeasible"
        assert res.x is None
        assert not res.is_optimal

    @pytest.mark.parametrize("model, x0, expected_ray", UNBOUNDED_CASES.values(), ids=UNBOUNDED_CASES.keys())
    def test_unbounded_with_valid_ray(self, model, x0, expected_ray):
        res = solve_model(model)
        assert res.status == "unbounded"
        ray = res.ray
        assert ray is not None
        assert ray.tolist() == expected_ray
        # walking along the ray keeps feasibility and improves the objective
        x0 = np.array(x0)
        sign = 1.0 if model.objective.sense == "max" else -1.0
        assert model.max_violation(x0 + 1e6 * ray) <= 1e-6
        assert sign * (model.evaluate_objective(x0 + 1e6 * ray) - model.evaluate_objective(x0)) > 1e5

    def test_iteration_cap_reports_numeric_failure(self):
        m = LpModel(
            variables=[Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
            constraints=[Constraint({"x": 1.0, "y": 1.0}, "<=", 1.0)],
            objective=Objective("max", {"x": 1.0, "y": 2.0}),
        )
        res = solve_model(m, max_iter=1)
        assert res.status == "numeric_failure"

    def test_optimal_message_and_iterations(self):
        m = LpModel(
            variables=[Variable("x", 0.0, 3.0)],
            objective=Objective("max", {"x": 1.0}),
        )
        res = solve_model(m)
        assert res.is_optimal
        assert res.iterations >= 0
        assert res.value == pytest.approx(3.0)


class TestDegenerateAndAdversarial:
    def test_beale_cycling_example_terminates(self):
        res = solve_model(beale_model())
        assert res.status == "optimal"
        assert res.value == pytest.approx(-0.05, abs=1e-9)

    def test_klee_minty_cube(self):
        n = 8
        res = solve_model(klee_minty_model(n))
        assert res.status == "optimal"
        assert res.value == pytest.approx(5.0 ** n, rel=1e-9)

    def test_degenerate_pyramid_apex(self):
        m = LpModel(
            variables=[Variable("x"), Variable("y"), Variable("z")],
            constraints=[
                Constraint({"z": 1.0, "x": -1.0}, ">=", 0.0),
                Constraint({"z": 1.0, "x": 1.0}, ">=", 0.0),
                Constraint({"z": 1.0, "y": -1.0}, ">=", 0.0),
                Constraint({"z": 1.0, "y": 1.0}, ">=", 0.0),
                Constraint({"z": 1.0}, "<=", 1.0),
            ],
            objective=Objective("min", {"z": 1.0}),
        )
        res = solve_model(m)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.x, [0.0, 0.0, 0.0], atol=1e-8)


class TestEdgeShapes:
    def test_free_variables_on_a_line(self):
        m = LpModel(
            variables=[Variable("x"), Variable("y")],
            constraints=[Constraint({"x": 1.0, "y": 1.0}, ">=", 2.0)],
            objective=Objective("min", {"x": 1.0, "y": 1.0}),
        )
        res = solve_model(m)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0)

    def test_fixed_variable(self):
        m = LpModel(
            variables=[Variable("x", 3.0, 3.0), Variable("y", 0.0, 10.0)],
            constraints=[Constraint({"x": 1.0, "y": 1.0}, "<=", 7.0)],
            objective=Objective("max", {"y": 1.0}),
        )
        res = solve_model(m)
        assert res.value == pytest.approx(4.0)
        assert res.x[0] == pytest.approx(3.0)

    def test_upper_bound_optimum(self):
        m = LpModel(
            variables=[Variable("x", 0.0, 7.0)],
            objective=Objective("max", {"x": 1.0}),
        )
        assert solve_model(m).value == pytest.approx(7.0)

    def test_feasibility_only_objective(self):
        m = LpModel(
            variables=[Variable("x", 1.0, 2.0)],
            objective=Objective("min", {}, constant=4.0),
        )
        res = solve_model(m)
        assert res.status == "optimal"
        assert res.value == pytest.approx(4.0)
        assert 1.0 - 1e-9 <= res.x[0] <= 2.0 + 1e-9

    def test_negative_lower_bounds(self):
        m = LpModel(
            variables=[Variable("x", -5.0, -2.0)],
            objective=Objective("min", {"x": 1.0}),
        )
        assert solve_model(m).value == pytest.approx(-5.0)

    def test_equalities_only(self):
        m = LpModel(
            variables=[Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
            constraints=[
                Constraint({"x": 1.0, "y": 1.0}, "=", 6.0),
                Constraint({"x": 1.0, "y": -1.0}, "=", 2.0),
            ],
            objective=Objective("min", {"x": 1.0}),
        )
        res = solve_model(m)
        assert res.status == "optimal"
        assert np.allclose(res.x, [4.0, 2.0], atol=1e-9)


# -- the shared pivot kernels ------------------------------------------------


def reference_ratios(lower, upper, xb, rate):
    """The ratio test one basic row at a time, as a textbook writes it."""
    out = []
    for lo, up, x, r in zip(lower, upper, xb, rate):
        if r > TOL_PIVOT and math.isfinite(up):
            out.append(max((up - x) / r, 0.0))
        elif r < -TOL_PIVOT and math.isfinite(lo):
            out.append(max((x - lo) / -r, 0.0))
        else:
            out.append(math.inf)
    return out


RATES = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, TOL_PIVOT, -TOL_PIVOT, TOL_PIVOT / 2, -TOL_PIVOT / 2, 2 * TOL_PIVOT, -2 * TOL_PIVOT]),
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_pivot_kernels_match_their_definitions(data):
    n = data.draw(st.integers(1, 6), label="n")
    m = data.draw(st.integers(0, n), label="m")  # m = 0 is the empty basis
    lower, upper, status = np.empty(n), np.empty(n), np.empty(n, dtype="<U1")
    for j in range(n):
        kind = data.draw(st.sampled_from(["box", "lower", "upper", "free"]))
        lo = data.draw(st.floats(-50, 50))
        width = data.draw(st.floats(0, 50))
        lower[j] = lo if kind in ("box", "lower") else -np.inf
        upper[j] = lo + width if kind in ("box", "upper") else np.inf
        rest = {"box": st.sampled_from("LU"), "lower": st.just("L"), "upper": st.just("U"), "free": st.just("F")}
        status[j] = data.draw(rest[kind])
    basis = data.draw(st.permutations(range(n)))[:m]
    status[basis] = "B"
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m) * 10
    assume(m == 0 or np.linalg.cond(A[:, basis]) < 1e6)

    x = basic_point(A, b, lower, upper, basis, status)
    rest_value = {"L": lower, "U": upper, "F": np.zeros(n)}
    for j in range(n):
        if status[j] != "B":
            assert x[j] == rest_value[status[j]][j]
    assert np.abs(A @ x - b).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(A).max(initial=0.0) * np.abs(x).max())

    rate = np.array(data.draw(st.lists(RATES, min_size=m, max_size=m), label="rate"))
    lo_b, up_b, xb = lower[basis], upper[basis], x[basis]
    ratios, t = ratio_test(lo_b, up_b, xb, rate)
    expected = reference_ratios(lo_b, up_b, xb, rate)
    assert ratios.tolist() == expected
    assert t == min(expected, default=math.inf)


# -- golden pivot paths --------------------------------------------------------
# Recorded before the simplex and the vertex walk shared one pivot kernel; a
# change here means the pivot choices moved, not just the floating-point noise.


def fixture_path(name):
    return str(resources.files("aoskit") / "fixtures" / name)


def fixture_model(name):
    """The model the CLI ``solve`` command builds from a bundled fixture."""
    with open(fixture_path(name)) as fh:
        doc = json.load(fh)
    return build_dcopf(network_from_dict(doc)) if doc["schema"] == "aos-net/1" else LpModel.from_json_dict(doc)


GOLDEN_SOLVES = {
    "canonical_3bus": (
        lambda: fixture_model("canonical_3bus.json"),
        8,
        [100.0, 0.0, 0.0, 33.33333333333333, 66.66666666666667, 33.33333333333333,
         66.66666666666666, 33.333333333333336, 0.0],
    ),
    "triangle_exact": (lambda: fixture_model("triangle_exact.json"), 5, [100.0, 100.0]),
    "triangle_perturbed": (lambda: fixture_model("triangle_perturbed.json"), 6, [100.0, 1.0]),
    "beale": (beale_model, 7, [0.04, 0.0, 1.0, 0.0]),
    "klee_minty_8": (klee_minty_model, 257, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 390625.0]),
}


@pytest.mark.parametrize("build, iterations, x", GOLDEN_SOLVES.values(), ids=GOLDEN_SOLVES.keys())
def test_golden_solve_path(build, iterations, x):
    res = solve_model(build())
    assert res.status == "optimal"
    assert res.iterations == iterations
    assert res.x.tolist() == x


# the ``result`` block of ``enumerate --gap 0.05``, minus ``meta``
GOLDEN_ENUMERATE = {
    "canonical_3bus.json": {
        "names": ["P[1]", "P[2]", "P[3]", "f[1,2]", "f[1,3]", "f[2,3]", "theta[1]", "theta[2]", "theta[3]"],
        "count": 5,
        "complete": True,
        "tau": 5250.0,
        "model_fingerprint": "460702bf595ea835",
        "points": [
            [0.0, 100.0, 0.0, -33.3333333333, 33.3333333333, 66.6666666667, -9966.66666667, -9933.33333333, -10000.0],
            [0.0, 100.0, 0.0, -33.3333333333, 33.3333333333, 66.6666666667, 9966.66666667, 10000.0, 9933.33333333],
            [50.0, 50.0, 0.0, 0.0, 50.0, 50.0, 10000.0, 10000.0, 9950.0],
            [100.0, 0.0, 0.0, 33.3333333333, 66.6666666667, 33.3333333333, 10000.0, 9966.66666667, 9933.33333333],
            [100.0, 0.0, 0.0, 33.3333333333, 66.6666666667, 33.3333333333, -9933.33333333, -9966.66666667, -10000.0],
        ],
        "objectives": [5000.0, 5000.0, 5000.0, 5000.0, 5000.0],
    },
    "triangle_exact.json": {
        "names": ["x1", "x2"],
        "count": 4,
        "complete": True,
        "tau": 95.0,
        "model_fingerprint": "1eb112aff295fd9e",
        "points": [[95.0, 6.0], [95.0, 100.0], [100.0, 1.0], [100.0, 100.0]],
        "objectives": [95.0, 95.0, 100.0, 100.0],
    },
    "triangle_perturbed.json": {
        "names": ["x1", "x2"],
        "count": 4,
        "complete": True,
        "tau": 95.0,
        "model_fingerprint": "8bd113d616baee6b",
        "points": [[95.0, 6.0], [95.0, 100.0], [99.0, 100.0], [100.0, 1.0]],
        "objectives": [95.0, 95.0, 99.0, 100.0],
    },
}


@pytest.mark.parametrize("name", GOLDEN_ENUMERATE)
def test_golden_enumerate_result(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["enumerate", fixture_path(name), "--gap", "0.05"])
    assert code == 0
    result = json.loads(out.getvalue())["result"]
    result.pop("meta")
    assert result == GOLDEN_ENUMERATE[name]
