import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoskit import simplex
from aoskit import (
    Constraint,
    LpModel,
    Objective,
    StandardForm,
    Variable,
    drop_redundant_equalities,
    solve_model,
    solve_standard,
    to_standard_form,
)

from conftest import dependent_cube, random_bounded_lp
from test_simplex import warm_start_lp


def make(vars_, cons, obj):
    return LpModel(variables=vars_, constraints=cons, objective=obj)


class TestConversion:
    def test_identity_when_already_standard(self):
        # single bounded variable, min objective, no constraints: no slacks
        m = make([Variable("x", 0.0, 10.0)], [], Objective("min", {"x": 1.0}))
        sf = to_standard_form(m)
        assert sf.n == 1 and sf.m == 0
        assert sf.sense_sign == 1.0
        assert sf.col_names == ("x",)

    def test_slack_signs(self):
        m = make(
            [Variable("x", 0.0, 5.0), Variable("y", 0.0, 5.0)],
            [
                Constraint({"x": 1.0}, "<=", 3.0),
                Constraint({"y": 1.0}, ">=", 1.0),
                Constraint({"x": 1.0, "y": 1.0}, "=", 4.0),
            ],
            Objective("min", {"x": 1.0}),
        )
        sf = to_standard_form(m)
        assert sf.n == 4  # two slacks added, none for the equality
        assert sf.A[0, 2] == 1.0 and sf.A[1, 2] == 0.0
        assert sf.A[1, 3] == -1.0
        assert sf.lower[2:].tolist() == [0.0, 0.0]
        assert all(math.isinf(u) for u in sf.upper[2:])

    def test_max_negated_and_value_restored(self):
        m = make(
            [Variable("x", 0.0, 100.0)],
            [],
            Objective("max", {"x": 1.0}, constant=7.0),
        )
        sf = to_standard_form(m)
        assert sf.sense_sign == -1.0
        assert sf.c[0] == -1.0
        res = solve_standard(sf)
        assert res.status == "optimal"
        assert res.value == pytest.approx(107.0)
        assert res.value_std == pytest.approx(-100.0)

    def test_free_variables_kept_not_split(self):
        m = make(
            [Variable("x"), Variable("y", 0.0)],
            [Constraint({"x": 1.0, "y": 1.0}, "=", 2.0)],
            Objective("min", {"y": 1.0}),
        )
        sf = to_standard_form(m)
        assert sf.n == 2
        assert math.isinf(sf.lower[0]) and sf.lower[0] < 0
        assert math.isinf(sf.upper[0])

    def test_recover_strips_slacks(self):
        m = make(
            [Variable("x", 0.0, 5.0)],
            [Constraint({"x": 1.0}, "<=", 3.0)],
            Objective("min", {"x": -1.0}),
        )
        sf = to_standard_form(m)
        x_std = np.array([3.0, 0.0])
        assert sf.recover(x_std).tolist() == [3.0]

    def test_slack_name_collision_avoided(self):
        m = make(
            [Variable("_s[0]", 0.0, 1.0)],
            [Constraint({"_s[0]": 1.0}, "<=", 1.0)],
            Objective("min", {"_s[0]": 1.0}),
        )
        sf = to_standard_form(m)
        assert len(set(sf.col_names)) == sf.n

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            to_standard_form(LpModel(variables=[]))

    def test_row_origin_tracks_constraints(self):
        m = make(
            [Variable("x", 0.0, 5.0)],
            [Constraint({"x": 1.0}, "<=", 3.0), Constraint({"x": 1.0}, ">=", 1.0)],
            Objective("min", {"x": 1.0}),
        )
        sf = to_standard_form(m)
        assert list(sf.row_origin) == [0, 1]


class TestRoundTrip:
    # standard-form solutions must map back to feasible original points with
    # the same objective value, within 1e-8
    def test_random_lps_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = random_bounded_lp(rng)
            sf = to_standard_form(m)
            res = solve_standard(sf)
            if res.status != "optimal":
                continue
            x = sf.recover(res.x_std)
            assert m.max_violation(x) <= 1e-8
            assert m.evaluate_objective(x) == pytest.approx(res.value, abs=1e-8, rel=1e-8)
            assert sf.original_value(res.value_std) == pytest.approx(res.value, abs=1e-10)

    def test_solve_model_equals_solve_standard(self):
        # solve_standard cleans its own form, so a raw form with dependent
        # rows (the warm draws append one after two equality rows, the cube
        # doubles its first row) solves as solve_model does, and the result
        # carries the cleaned form
        rng = np.random.default_rng(12)
        models = [random_bounded_lp(rng) for _ in range(30)]
        rng = np.random.default_rng(18)
        models += [warm_start_lp(rng) for _ in range(80)] + [dependent_cube()]
        cleaned = 0
        for m in models:
            direct = solve_model(m)
            sf = to_standard_form(m)
            via_sf = solve_standard(sf)
            assert direct.status == via_sf.status
            if direct.status == "optimal":
                assert direct.value == pytest.approx(via_sf.value, abs=1e-7)
            reduced, dropped, inconsistent = drop_redundant_equalities(sf)
            assert via_sf.sf.row_origin == reduced.row_origin
            if dropped and not inconsistent:
                assert via_sf.message.endswith(f"(dropped {len(dropped)} dependent rows)")
                cleaned += 1
        assert cleaned > 20
        cube = solve_standard(to_standard_form(dependent_cube()))
        assert cube.status == "optimal" and cube.value == 0.0 and cube.sf.row_origin == (0, 2)

    def test_a_conflicting_dependent_row_is_infeasible(self):
        res = solve_standard(to_standard_form(dependent_cube(third_rhs=3.2)))
        assert res.status == "infeasible" and res.iterations == 0
        assert res.message == "dependent equality rows have conflicting right-hand sides"
        assert res.sf.row_origin == (0, 2)

    def test_a_null_row_that_reaches_phase_1_is_a_numeric_failure(self, monkeypatch):
        # without cleaning, phase 1 keeps an artificial at the dependent row
        monkeypatch.setattr(simplex, "drop_redundant_equalities", lambda sf: (sf, [], False))
        res = solve_standard(to_standard_form(dependent_cube()))
        assert res.status == "numeric_failure"
        assert res.basis == () and res.x is None and res.sf.m == 3


def max_violation_reference(sf, x):
    """The standard form's violation of one point, written out part by part."""
    parts = [np.abs(sf.A @ x - sf.b), sf.lower - x, x - sf.upper]
    return float(max(p.max() for p in parts if p.size))


class TestViolations:
    def test_one_point_and_a_stack_match_the_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            sf = to_standard_form(random_bounded_lp(rng))
            lo, hi = np.where(np.isfinite(sf.lower), sf.lower, -5.0), np.where(np.isfinite(sf.upper), sf.upper, 5.0)
            X = rng.uniform(lo - 1.0, hi + 1.0, size=(3, sf.n))
            stacked = sf.max_violation(X)
            for x, v in zip(X, stacked):
                assert sf.max_violation(x) == max_violation_reference(sf, x)  # the same bits
                assert v == pytest.approx(max_violation_reference(sf, x), rel=1e-12, abs=1e-12)
            assert sf.violations(X).shape == (3, sf.m + sf.n)


class TestRedundantRows:
    def duplicated(self):
        return make(
            [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
            [
                Constraint({"x": 1.0, "y": 1.0}, "=", 4.0),
                Constraint({"x": 2.0, "y": 2.0}, "=", 8.0),
                Constraint({"x": 1.0, "y": -1.0}, "=", 0.0),
            ],
            Objective("min", {"x": 1.0}),
        )

    def test_dependent_row_dropped(self):
        sf = to_standard_form(self.duplicated())
        reduced, dropped, inconsistent = drop_redundant_equalities(sf)
        assert dropped == [1]
        assert not inconsistent
        assert reduced.m == 2

    def test_inconsistent_dependent_row_flagged(self):
        m = make(
            [Variable("x", 0.0, 10.0)],
            [
                Constraint({"x": 1.0}, "=", 4.0),
                Constraint({"x": 2.0}, "=", 9.0),  # scaled copy, different rhs
            ],
            Objective("min", {"x": 1.0}),
        )
        _, dropped, inconsistent = drop_redundant_equalities(to_standard_form(m))
        assert inconsistent
        assert dropped == [1]

    def test_solve_model_handles_duplicates(self):
        res = solve_model(self.duplicated())
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0)
        assert "dropped" in res.message

    def test_solve_model_flags_inconsistency_as_infeasible(self):
        m = make(
            [Variable("x", 0.0, 10.0)],
            [Constraint({"x": 1.0}, "=", 4.0), Constraint({"x": 3.0}, "=", 5.0)],
            Objective("min", {"x": 1.0}),
        )
        assert solve_model(m).status == "infeasible"

    def test_independent_rows_untouched(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_bounded_lp(rng)
            sf = to_standard_form(m)
            rank = np.linalg.matrix_rank(sf.A) if sf.m else 0
            reduced, dropped, inconsistent = drop_redundant_equalities(sf)
            if rank == sf.m:
                assert dropped == [] and not inconsistent
            assert reduced.m >= rank


def lstsq_rule(sf, tol=1e-9):
    """Reference: each pure equality row against every kept one by least squares."""
    dropped, inconsistent, eq_kept = [], False, []
    has_slack = np.any(sf.A[:, sf.n_original :] != 0.0, axis=1)
    for i in range(sf.m):
        if has_slack[i]:
            continue
        row = sf.A[i, : sf.n_original]
        scale = max(1.0, float(np.abs(row).max()), abs(float(sf.b[i])))
        if not eq_kept:
            dependent = not np.any(np.abs(row) > tol * scale)
            resid_b = sf.b[i]
        else:
            basis = sf.A[eq_kept, : sf.n_original]
            lam, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
            dependent = np.abs(row - basis.T @ lam).max() <= 1e-7 * scale
            resid_b = sf.b[i] - float(sf.b[eq_kept] @ lam)
        if dependent:
            dropped.append(i)
            inconsistent |= bool(abs(resid_b) > 1e-7 * scale)
        else:
            eq_kept.append(i)
    return dropped, inconsistent


# how a row is made: fresh, a combination of earlier rows (dependent, or off by
# a perturbation of the row or of its right-hand side), zero, or with a slack
ROW_KINDS = st.sampled_from(["fresh", "combination", "near", "apart", "inconsistent", "zero", "slack"])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_incremental_pass_drops_the_rows_least_squares_drops(data):
    n = data.draw(st.integers(1, 6), label="n")
    kinds = data.draw(st.lists(ROW_KINDS, min_size=1, max_size=9), label="kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows, rhs, slack_rows = [], [], []
    for kind in kinds:
        if kind in ("fresh", "slack") or not rows:
            row, b = np.round(rng.uniform(-5, 5, n), 2) * (rng.random(n) < 0.8), float(np.round(rng.uniform(-9, 9), 2))
        elif kind == "zero":
            row, b = np.zeros(n), float(rng.choice([0.0, 1e-12, 2.0]))
        else:
            weights = np.round(rng.uniform(-3, 3, len(rows)), 1) * (rng.random(len(rows)) < 0.6)
            row, b = weights @ np.array(rows), float(weights @ np.array(rhs))
            if kind == "near":
                row = row + rng.choice([1e-13, 1e-11]) * rng.standard_normal(n)
            elif kind == "apart":
                row = row + rng.choice([1e-4, 1e-2]) * rng.standard_normal(n)
            elif kind == "inconsistent":
                b += float(rng.choice([-1.0, 1.0]) * rng.choice([1e-3, 0.5]))
        rows.append(row)
        rhs.append(b)
        if kind == "slack":
            slack_rows.append(len(rows) - 1)
    m = len(rows)
    A = np.zeros((m, n + len(slack_rows)))
    A[:, :n] = rows
    for k, i in enumerate(slack_rows):
        A[i, n + k] = 1.0
    sf = StandardForm(
        A=A, b=np.array(rhs), c=np.zeros(A.shape[1]), lower=np.zeros(A.shape[1]),
        upper=np.full(A.shape[1], np.inf), col_names=tuple(f"c{j}" for j in range(A.shape[1])),
        n_original=n, sense_sign=1, obj_constant=0.0, row_origin=tuple(range(m)),
    )
    reduced, dropped, inconsistent = drop_redundant_equalities(sf)
    assert (dropped, inconsistent) == lstsq_rule(sf)
    kept = [i for i in range(m) if i not in dropped]
    assert reduced.row_origin == tuple(kept)
    np.testing.assert_array_equal(reduced.b, sf.b[kept])
