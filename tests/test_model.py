import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoskit import Constraint, LpModel, Objective, Variable

from conftest import random_bounded_lp


def small_model():
    return LpModel(
        variables=[
            Variable("x", lower=0.0, upper=10.0),
            Variable("y", role="generation", lower=0.0),
            Variable("z"),
        ],
        constraints=[
            Constraint({"x": 1.0, "y": 2.0}, "<=", 8.0),
            Constraint({"y": 1.0, "z": -1.0}, "=", 0.0),
            Constraint({"x": 1.0}, ">=", 1.0),
        ],
        objective=Objective("min", {"x": 1.0, "y": 3.0}, constant=2.0),
    )


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LpModel(variables=[Variable("x"), Variable("x")])

    def test_unknown_constraint_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            LpModel(variables=[Variable("x")], constraints=[Constraint({"q": 1.0}, "<=", 1.0)])

    def test_unknown_objective_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            LpModel(variables=[Variable("x")], objective=Objective("min", {"q": 1.0}))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", lower=2.0, upper=1.0)

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", lower=float("nan"))

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", role="voltage")

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            Constraint({"x": 1.0}, "<>", 1.0)
        with pytest.raises(ValueError):
            Objective("maximize", {"x": 1.0})

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Constraint({}, "<=", 1.0)


class TestAccessors:
    def test_matrix_shapes_and_senses(self):
        m = small_model()
        rows, rhs, senses = m.constraint_matrix()
        assert rows.shape == (3, 3)
        assert rhs.shape == (3,)
        assert senses == ("<=", "=", ">=")
        assert rows[0].tolist() == [1.0, 2.0, 0.0]

    def test_bounds_arrays(self):
        m = small_model()
        lower, upper = m.bounds_arrays()
        assert lower.tolist() == [0.0, 0.0, -math.inf]
        assert upper[0] == 10.0 and math.isinf(upper[1]) and math.isinf(upper[2])

    def test_objective_vector_and_eval(self):
        m = small_model()
        c = m.objective_vector()
        assert c.tolist() == [1.0, 3.0, 0.0]
        assert m.evaluate_objective(np.array([1.0, 2.0, 5.0])) == pytest.approx(1 + 6 + 2.0)

    def test_roles(self):
        m = small_model()
        assert m.names_with_role("generation") == ("y",)
        assert m.names_with_role("generic") == ("x", "z")

    def test_variable_index(self):
        m = small_model()
        assert m.variable_index("z") == 2
        with pytest.raises(KeyError):
            m.variable_index("nope")


class TestFeasibility:
    def test_labels_align_with_violations(self):
        m = small_model()
        labels = m.constraint_labels()
        x = np.array([0.0, 5.0, 5.0])
        v = m.violations(x)
        assert len(labels) == len(v)
        by_label = dict(zip(labels, v))
        assert by_label["c[0]"] == pytest.approx(2.0)
        assert by_label["c[2]"] == pytest.approx(1.0)
        assert by_label["c[1]"] == pytest.approx(0.0)

    def test_bound_violations_labelled(self):
        m = small_model()
        labels = m.constraint_labels()
        assert "lb[x]" in labels and "ub[x]" in labels and "lb[y]" in labels
        assert "ub[y]" not in labels
        v = dict(zip(labels, m.violations(np.array([-1.0, 0.0, 0.0]))))
        assert v["lb[x]"] == pytest.approx(1.0)

    def test_is_feasible_tolerance(self):
        m = small_model()
        x = np.array([1.0, 1.0, 1.0])
        assert m.is_feasible(x)
        assert not m.is_feasible(x + np.array([0.0, 1e-3, 0.0]))
        assert m.is_feasible(x + np.array([0.0, 1e-9, 0.0]))

    @pytest.mark.parametrize("shape", [(2,), (4, 2), (1, 3, 3)])
    def test_points_must_fit_the_model(self, shape):
        with pytest.raises(ValueError, match="model has 3"):
            small_model().violations(np.zeros(shape))

    def test_equality_violation_is_absolute(self):
        m = small_model()
        assert m.max_violation(np.array([1.0, 1.0, 2.0])) == pytest.approx(1.0)
        assert m.max_violation(np.array([1.0, 2.0, 1.0])) == pytest.approx(1.0)


def loop_violations(m: LpModel, x: np.ndarray) -> list[float]:
    """The violations written out one constraint and one bound at a time."""
    out = []
    for con in m.constraints:
        lhs = sum(coef * x[m.variable_index(name)] for name, coef in con.coeffs.items())
        out.append({"<=": lhs - con.rhs, ">=": con.rhs - lhs, "=": abs(lhs - con.rhs)}[con.sense])
    for j, v in enumerate(m.variables):
        if math.isfinite(v.lower):
            out.append(v.lower - x[j])
        if math.isfinite(v.upper):
            out.append(x[j] - v.upper)
    return [max(v, 0.0) for v in out]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_violations_match_the_loop_reference(seed):
    rng = np.random.default_rng(seed)
    m = random_bounded_lp(rng)
    if rng.random() < 0.5:  # free and one-sided variables leave out bound rows
        m = LpModel([Variable(v.name, lower=-math.inf if k % 3 == 0 else v.lower,
                              upper=math.inf if k % 2 == 0 else v.upper)
                     for k, v in enumerate(m.variables)], m.constraints, m.objective)
    lower, upper = m.bounds_arrays()
    X = rng.uniform(np.where(np.isfinite(lower), lower, -20) - 2, np.where(np.isfinite(upper), upper, 20) + 2,
                    size=(3, m.n_variables))
    stacked = m.violations(X)
    assert stacked.shape == (3, len(m.constraint_labels()))
    for x, row in zip(X, stacked):
        # the products sum in another order than the loop: with at most 5
        # terms of |coefficient| <= 3 that moves a row by a few ulps
        atol = 1e-12 * max(1.0, np.abs(x).max())
        np.testing.assert_allclose(m.violations(x), loop_violations(m, x), rtol=0, atol=atol)
        np.testing.assert_allclose(row, loop_violations(m, x), rtol=0, atol=atol)
        assert m.evaluate_objective(x) == pytest.approx(
            sum(c * x[m.variable_index(n)] for n, c in m.objective.coeffs.items()) + m.objective.constant,
            rel=1e-12, abs=1e-12,
        )


class TestSerialization:
    def test_round_trip_small(self):
        m = small_model()
        again = LpModel.from_json(m.to_json())
        assert again.variable_names == m.variable_names
        assert again.fingerprint() == m.fingerprint()
        assert again.to_json() == m.to_json()

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_bounded_lp(rng)
            again = LpModel.from_json(m.to_json())
            assert again.to_json() == m.to_json()
            assert again.fingerprint() == m.fingerprint()

    def test_free_bounds_serialize_as_null(self):
        m = small_model()
        doc = m.to_json_dict()
        zvar = [v for v in doc["variables"] if v["name"] == "z"][0]
        assert zvar["lower"] is None and zvar["upper"] is None
        again = LpModel.from_json_dict(doc)
        lower, upper = again.bounds_arrays()
        assert math.isinf(lower[2]) and math.isinf(upper[2])

    def test_schema_tag(self):
        doc = small_model().to_json_dict()
        assert doc["schema"] == "aos-lp/1"
        doc["schema"] = "other/1"
        with pytest.raises(ValueError):
            LpModel.from_json_dict(doc)

    def test_metadata_not_in_fingerprint(self):
        base = small_model()
        tagged = LpModel(
            variables=base.variables,
            constraints=base.constraints,
            objective=base.objective,
            metadata={"note": "anything"},
        )
        assert tagged.fingerprint() == base.fingerprint()
        assert tagged.to_json() != base.to_json()

    def test_json_is_parseable(self):
        parsed = json.loads(small_model().to_json())
        assert parsed["objective"]["sense"] == "min"


class TestWithConstraint:
    def test_appends_without_mutation(self):
        m = small_model()
        extra = Constraint({"z": 1.0}, "<=", 4.0)
        m2 = m.with_constraint(extra)
        assert len(m2.constraints) == len(m.constraints) + 1
        assert len(m.constraints) == 3
        assert m2.constraints[-1] is extra
        assert m2.variable_names == m.variable_names


@given(
    lower=st.floats(min_value=-100, max_value=99, allow_nan=False),
    width=st.floats(min_value=0, max_value=50, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_variable_bound_order_always_holds(lower, width):
    v = Variable("x", lower=lower, upper=lower + width)
    assert v.lower <= v.upper
    assert v.is_fixed == (v.lower == v.upper)
