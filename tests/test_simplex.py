import contextlib
import dataclasses
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
from aoskit.simplex import (
    TOL_FEAS,
    TOL_PIVOT,
    basic_point,
    leaving_row,
    ratio_test,
    solve_from,
    solve_standard,
)

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


def scan_leaving_row(ratios, t, w):
    """The leaving-row rule for one entering column, as a scan of the ties."""
    tied = [i for i in range(len(ratios)) if ratios[i] <= t * (1 + 1e-9) + 1e-12]
    return max(tied, key=lambda i: (abs(w[i]), -i))


BOUNDS = st.one_of(st.floats(-50, 50), st.sampled_from([-math.inf, math.inf, 0.0]))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_column_wise_kernels_match_one_column_at_a_time(data):
    m = data.draw(st.integers(1, 6), label="m")
    k = data.draw(st.integers(1, 5), label="k")
    ends = [sorted(data.draw(st.tuples(BOUNDS, BOUNDS))) for _ in range(m)]
    lower = np.array([lo if lo < math.inf else -math.inf for lo, _ in ends])
    upper = np.array([up if up > -math.inf else math.inf for _, up in ends])
    xb = np.array(data.draw(st.lists(st.floats(-60, 60), min_size=m, max_size=m), label="xb"))
    w = np.array(data.draw(st.lists(RATES, min_size=m * k, max_size=m * k), label="w")).reshape(m, k)
    rate = -w

    ratios, t = ratio_test(lower, upper, xb, rate)
    rows = leaving_row(ratios, t, w)
    for c in range(k):
        ratios_c, t_c = ratio_test(lower, upper, xb, rate[:, c].copy())
        assert ratios[:, c].tolist() == ratios_c.tolist()
        assert t[c] == t_c
        assert rows[c] == leaving_row(ratios_c, t_c, w[:, c]) == scan_leaving_row(ratios_c, t_c, w[:, c])


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


# the ``result`` block of ``enumerate --gap 0.05``, minus ``meta``; the two
# canonical_3bus points at P[1] = 100 tie on every coordinate up to the
# thetas, which order them
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
            [100.0, 0.0, 0.0, 33.3333333333, 66.6666666667, 33.3333333333, -9933.33333333, -9966.66666667, -10000.0],
            [100.0, 0.0, 0.0, 33.3333333333, 66.6666666667, 33.3333333333, 10000.0, 9966.66666667, 9933.33333333],
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


# ---------------------------------------------------------------------------
# warm start: a bounded dual simplex from the parent's basis


def warm_start_lp(rng: np.random.Generator) -> LpModel:
    """Bounded LP with free columns, equality rows and a dependent row.

    Every free column but an unused one (in no row and not in the
    objective) is pinned by an equality row to bounded columns, so the LP is
    bounded; inequalities are anchored at an interior point, some of them
    tight there, so it is feasible.
    """
    n = int(rng.integers(2, 7))
    names = [f"x{j}" for j in range(n)]
    free = rng.random(n) < 0.3
    free[0] = False
    used = np.ones(n, dtype=bool)
    if rng.random() < 0.2:
        unused = int(rng.integers(1, n))
        free[unused], used[unused] = True, False
    lo = rng.uniform(-5, 0, n)
    hi = lo + rng.uniform(0.5, 6, n)
    x0 = np.where(free, rng.uniform(-5, 5, n), lo + rng.uniform(0.2, 0.8, n) * (hi - lo))
    variables = [Variable(nm) if f else Variable(nm, float(a), float(b)) for nm, f, a, b in zip(names, free, lo, hi)]

    def draw(p):
        return {names[k]: float(np.round(rng.uniform(-3, 3), 2)) for k in range(n) if used[k] and rng.random() < p}

    equalities = []
    for j in np.nonzero(free & used)[0]:
        coeffs = {names[k]: float(np.round(rng.uniform(-2, 2), 2)) for k in np.nonzero(~free)[0] if rng.random() < 0.6}
        equalities.append({names[j]: 1.0, **coeffs})
    equalities.append(draw(0.7) or {names[0]: 1.0})
    if len(equalities) >= 2:  # a dependent row: 2 * first - last
        first, last = equalities[0], equalities[-1]
        equalities.append({nm: 2 * first.get(nm, 0.0) - last.get(nm, 0.0) for nm in set(first) | set(last)})
    index = {nm: j for j, nm in enumerate(names)}
    lhs = lambda coeffs: float(sum(c * x0[index[nm]] for nm, c in coeffs.items()))
    constraints = [Constraint(c, "=", lhs(c)) for c in equalities]
    for _ in range(int(rng.integers(1, 6))):
        coeffs = draw(0.7)
        if not coeffs:
            continue
        slack = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        if rng.random() < 0.5:
            constraints.append(Constraint(coeffs, "<=", lhs(coeffs) + slack))
        else:
            constraints.append(Constraint(coeffs, ">=", lhs(coeffs) - slack))
    objective = {nm: float(np.round(rng.uniform(-4, 4), 1)) for nm, u in zip(names, used) if u and rng.random() < 0.8}
    return LpModel(variables, constraints, Objective(str(rng.choice(["min", "max"])), objective))


def with_fixed_column(sf, j, value):
    lower, upper = sf.lower.copy(), sf.upper.copy()
    lower[j] = upper[j] = value
    return dataclasses.replace(sf, lower=lower, upper=upper)


def column_range(sf, j):
    """(min, max) of column j over the form's feasible set, by two cold solves."""
    ends = []
    for sign in (1.0, -1.0):
        c = np.zeros(sf.n)
        c[j] = sign
        res = solve_standard(dataclasses.replace(sf, c=c))
        assert res.status in ("optimal", "unbounded")
        ends.append(res.x_std[j] if res.is_optimal else -sign * np.inf)
    return ends[0], ends[1]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_warm_start_matches_a_cold_solve(data):
    model = warm_start_lp(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")))
    parent = solve_model(model)
    assert parent.is_optimal
    sf = parent.sf
    j = data.draw(st.integers(0, model.n_variables - 1), label="column")
    lo, hi = column_range(sf, j)
    mode = data.draw(st.sampled_from(["inside", "edge", "bound", "parent", "outside"]), label="mode")
    if mode == "inside":
        # at least 1e-6 inside the range: a cold phase 1 may stop up to
        # TOL_FEAS short of a thinner sliver, and then reads another value
        a, b = max(lo, parent.x_std[j] - 10.0), min(hi, parent.x_std[j] + 10.0)
        assume(b - a > 2e-6)
        value = a + 1e-6 + data.draw(st.floats(0, 1), label="fraction") * (b - a - 2e-6)
    elif mode == "edge":  # an end of the range, or beyond it by rounding noise
        end, away = data.draw(st.sampled_from([(lo, -1.0), (hi, 1.0)]), label="end")
        assume(np.isfinite(end))
        offset = data.draw(st.sampled_from([0.0, 1e-13, 1e-12]), label="offset")
        value = end + away * offset * max(1.0, abs(end))
        value = min(max(value, sf.lower[j]), sf.upper[j])
    elif mode == "bound":
        bounds = [v for v in (sf.lower[j], sf.upper[j]) if np.isfinite(v)]
        assume(bounds)
        value = data.draw(st.sampled_from(bounds), label="bound")
    elif mode == "parent":
        value = float(parent.x_std[j])
    else:  # beyond the column's range over the feasible set, within its bounds
        sides = [(max(sf.lower[j], lo - 10.0), lo - 1e-3)] if np.isfinite(lo) else []
        sides += [(hi + 1e-3, min(sf.upper[j], hi + 10.0))] if np.isfinite(hi) else []
        room = [(a, b) for a, b in sides if b - a > 1e-6]
        assume(room)
        a, b = data.draw(st.sampled_from(room), label="side")
        value = a + data.draw(st.floats(0, 1), label="fraction") * (b - a)
    child = with_fixed_column(sf, j, value)

    cold = solve_standard(child)
    warm = solve_from(child, parent)
    assert warm.status == cold.status
    if mode == "outside":
        assert warm.status == "infeasible"
    if warm.is_optimal:
        assert warm.value == pytest.approx(cold.value, abs=1e-9 * max(1.0, abs(cold.value)))
        assert child.max_violation(warm.x_std) <= TOL_FEAS


def test_warm_start_honours_a_small_bound_change():
    # x0 + x1 = 1, x0 in [0, 2], x1 in [0, 1], min x1: x0 = 1 is basic.
    # Fixing x0 at 1 - 1e-9 leaves it 1e-9 above its bound, within TOL_FEAS
    # but a real change: the dual simplex must move it onto the bound.
    model = LpModel(
        variables=[Variable("x0", 0.0, 2.0), Variable("x1", 0.0, 1.0)],
        constraints=[Constraint({"x0": 1.0, "x1": 1.0}, "=", 1.0)],
        objective=Objective("min", {"x1": 1.0}),
    )
    parent = solve_model(model)
    assert parent.basis == (0,)
    warm = solve_from(with_fixed_column(parent.sf, 0, 1.0 - 1e-9), parent)
    assert warm.is_optimal
    assert warm.x_std[0] == 1.0 - 1e-9
    assert warm.value == pytest.approx(1e-9, rel=1e-6)
