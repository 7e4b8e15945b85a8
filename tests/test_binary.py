import itertools

import numpy as np
import pytest

from aoskit import (
    Constraint,
    LpModel,
    Objective,
    SimplexResult,
    SublevelSpec,
    Variable,
    binary,
    enumerate_binary,
    solve_binary,
)

from conftest import random_binary_program, scan_binary_assignments

GAP0 = SublevelSpec(gap=0.0)


def on_flow():
    """min 10*on - 3*flow  s.t.  flow <= 4*on,  flow in [0, 4],  on binary.

    on=1 lets flow reach 4: 10 - 12 = -2; on=0 forces flow=0: value 0.
    """
    return LpModel(
        variables=[Variable("on", 0.0, 1.0), Variable("flow", 0.0, 4.0)],
        constraints=[Constraint({"flow": 1.0, "on": -4.0}, "<=", 0.0)],
        objective=Objective("min", {"on": 10.0, "flow": -3.0}),
    )


def knapsack():
    """max 5a + 4b + 3c  s.t.  2a + 3b + 4c <= 5,  all three binary.

    All eight assignments by hand: feasible ones are 000=0, 100=5, 010=4,
    001=3, 110=9; the rest exceed the weight budget. Optimum 9 at (1,1,0).
    """
    return LpModel(
        variables=[Variable(n, 0.0, 1.0) for n in ("a", "b", "c")],
        constraints=[Constraint({"a": 2.0, "b": 3.0, "c": 4.0}, "<=", 5.0)],
        objective=Objective("max", {"a": 5.0, "b": 4.0, "c": 3.0}),
    )


BINARIES = ("a", "b", "c")


# ---------------------------------------------------------------------------
# solve_binary on the hand-enumerated knapsack


class TestSolveBinary:
    def test_knapsack_optimum(self):
        res = solve_binary(knapsack(), BINARIES)
        assert res.status == "optimal"
        assert res.value == pytest.approx(9.0, abs=1e-9)
        np.testing.assert_allclose(res.x, [1.0, 1.0, 0.0], atol=1e-9)

    def test_returned_point_is_integral(self):
        res = solve_binary(knapsack(), BINARIES)
        assert np.all(np.abs(res.x - np.round(res.x)) <= 1e-9)

    def test_infeasible_binary_program(self):
        model = LpModel(
            variables=[Variable("a", 0.0, 1.0), Variable("b", 0.0, 1.0)],
            constraints=[Constraint({"a": 1.0, "b": 1.0}, ">=", 3.0)],
            objective=Objective("min", {"a": 1.0, "b": 1.0}),
        )
        assert solve_binary(model, ("a", "b")).status == "infeasible"

    def test_non_unit_bounds_rejected(self):
        model = LpModel(
            variables=[Variable("a", 0.0, 2.0)],
            objective=Objective("min", {"a": 1.0}),
        )
        with pytest.raises(ValueError, match="bounds within"):
            solve_binary(model, ("a",))

    def test_unknown_binary_name_rejected(self):
        with pytest.raises(ValueError, match="not in the model"):
            solve_binary(knapsack(), ("a", "zz"))

    def test_mixed_continuous_and_binary(self):
        res = solve_binary(on_flow(), ("on",))
        assert res.status == "optimal"
        assert res.value == pytest.approx(-2.0, abs=1e-9)
        np.testing.assert_allclose(res.x, [1.0, 4.0], atol=1e-9)

    def test_binary_with_raised_lower_bound_stays_in_bounds(self):
        # a in [0.3, 1] admits only a=1, which caps b at 0.2, so b=0: value 1.
        # The relaxation (a=0.3, b=1) branches on a; a=0 lies outside a's bounds.
        model = LpModel(
            variables=[Variable("a", 0.3, 1.0), Variable("b", 0.0, 1.0)],
            constraints=[Constraint({"a": 1.0, "b": 1.0}, "<=", 1.2)],
            objective=Objective("min", {"a": 1.0, "b": -0.1}),
        )
        res = solve_binary(model, ("a", "b"))
        assert res.status == "optimal"
        assert model.is_feasible(res.x)
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert enumerate_binary(model, ("a", "b"), GAP0).assignments == [(1, 0)]


# ---------------------------------------------------------------------------
# enumerate_binary pools


class TestEnumerateBinary:
    def test_knapsack_gap0_is_the_unique_optimum(self):
        pool = enumerate_binary(knapsack(), BINARIES, GAP0)
        assert pool.assignments == [(1, 1, 0)]
        assert pool.values == [pytest.approx(9.0)]
        assert pool.exhausted is True
        assert (1, 1, 0) in pool

    def test_knapsack_wide_gap_matches_hand_enumeration(self):
        # gap 1.0 on optimum 9 (max sense) keeps values >= 9 - 1*9 = 0:
        # every feasible assignment qualifies.
        pool = enumerate_binary(knapsack(), BINARIES, SublevelSpec(gap=1.0))
        assert pool.exhausted is True
        expected = [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
        assert pool.assignments == expected
        assert pool.values == pytest.approx([9.0, 5.0, 4.0, 3.0, 0.0])

    def test_infeasible_program_gives_empty_exhausted_pool(self):
        model = LpModel(
            variables=[Variable("a", 0.0, 1.0)],
            constraints=[Constraint({"a": 1.0}, ">=", 2.0)],
            objective=Objective("min", {"a": 1.0}),
        )
        pool = enumerate_binary(model, ("a",), GAP0)
        assert len(pool) == 0
        assert pool.exhausted is True
        assert pool.tau is None

    def test_limit_truncates_and_clears_exhausted(self):
        pool = enumerate_binary(knapsack(), BINARIES, SublevelSpec(gap=1.0), limit=2)
        assert pool.assignments == [(1, 1, 0), (1, 0, 0)]
        assert pool.values == pytest.approx([9.0, 5.0])
        assert pool.exhausted is False

    @pytest.mark.parametrize("limit, exhausted", [(5, False), (6, True)])
    def test_limit_at_and_above_pool_size(self, limit, exhausted):
        # the full gap-1.0 pool has 5 entries; holding exactly `limit` of them
        # cannot claim that no sixth exists, so only limit=6 is exhausted
        pool = enumerate_binary(knapsack(), BINARIES, SublevelSpec(gap=1.0), limit=limit)
        assert pool.assignments == [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
        assert pool.exhausted is exhausted

    def test_binary_fixed_by_its_bounds_is_never_flipped(self):
        # a in [0, 0]: gap 5 on z*=0 admits every assignment of b, none with a=1
        model = LpModel(
            variables=[Variable("a", 0.0, 0.0), Variable("b", 0.0, 1.0)],
            objective=Objective("min", {"a": 1.0, "b": 1.0}),
        )
        pool = enumerate_binary(model, ("a", "b"), SublevelSpec(gap=5.0))
        assert pool.assignments == [(0, 0), (0, 1)]
        assert pool.values == pytest.approx([0.0, 1.0])
        assert pool.exhausted is True

    def test_mixed_continuous_and_binary_pool(self):
        # gap 1.5 on z*=-2 gives tau = -2 + 1.5*2 = 1: both on=1 (-2) and on=0 (0)
        pool = enumerate_binary(on_flow(), ("on",), SublevelSpec(gap=1.5))
        assert pool.names == ("on",)
        assert pool.assignments == [(1,), (0,)]
        assert pool.values == pytest.approx([-2.0, 0.0], abs=1e-9)
        assert pool.tau == pytest.approx(1.0)
        assert pool.exhausted is True
        # an absolute level between the two values keeps only on=1
        assert enumerate_binary(on_flow(), ("on",), SublevelSpec(tau=-0.5)).assignments == [(1,)]
        # a level below the optimum keeps no entry, but still reports its tau
        empty = enumerate_binary(on_flow(), ("on",), SublevelSpec(tau=-3.0))
        assert empty.assignments == []
        assert empty.tau == -3.0
        assert empty.exhausted is True

    def test_ties_at_the_limit_keep_the_first_found(self):
        # min sum(x) s.t. sum(x) >= 1 on 10 binaries: 10 assignments tie at value 1
        names = tuple(f"x{j}" for j in range(10))
        model = LpModel(
            variables=[Variable(n, 0.0, 1.0) for n in names],
            constraints=[Constraint({n: 1.0 for n in names}, ">=", 1.0)],
            objective=Objective("min", {n: 1.0 for n in names}),
        )
        pool = enumerate_binary(model, names, GAP0, limit=3)
        assert pool.stats["lp_solves"] <= 25
        ones = [tuple(int(k == j) for k in range(10)) for j in range(10)]
        assert len(pool) == 3
        assert set(pool.assignments) <= set(ones)
        assert pool.values == pytest.approx([1.0] * 3)
        assert pool.exhausted is False
        full = enumerate_binary(model, names, GAP0)
        assert full.assignments == sorted(ones)
        assert full.exhausted is True
        assert solve_binary(model, names).x[0] == 1.0

    def test_numeric_failure_is_returned_or_raised(self, monkeypatch):
        failed = SimplexResult(status="numeric_failure", message="synthetic")
        monkeypatch.setattr(binary, "solve_model", lambda m: failed)
        assert solve_binary(knapsack(), BINARIES) is failed
        with pytest.raises(ArithmeticError, match="synthetic"):
            enumerate_binary(knapsack(), BINARIES, GAP0)
        monkeypatch.undo()

        # a failed warm child solve is retried cold, and only a failed cold
        # retry is returned or raised; with budget 4 the relaxation
        # (a=1, b=2/3) is fractional, so children are solved
        model = knapsack()
        model = LpModel(model.variables, [Constraint({"a": 2.0, "b": 3.0, "c": 4.0}, "<=", 4.0)], model.objective)
        reference = enumerate_binary(model, BINARIES, SublevelSpec(gap=1.0))
        assert reference.assignments == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
        failed = SimplexResult(status="numeric_failure", message="synthetic", iterations=2)
        monkeypatch.setattr(binary, "solve_from", lambda sf, start: failed)
        pool = enumerate_binary(model, BINARIES, SublevelSpec(gap=1.0))
        assert pool.assignments == reference.assignments
        assert pool.values == pytest.approx(reference.values, abs=1e-9)
        assert pool.exhausted is True
        # every child solved pays the failed warm solve and then a cold one
        children = reference.stats["lp_solves"] - 1
        assert children > 0
        assert pool.stats["lp_solves"] == 1 + 2 * children
        assert solve_binary(model, BINARIES).x.tolist() == [1.0, 0.0, 0.0]

        cold_failed = SimplexResult(status="numeric_failure", message="cold too")
        monkeypatch.setattr(binary, "solve_standard", lambda sf: cold_failed)
        assert solve_binary(model, BINARIES) is cold_failed
        with pytest.raises(ArithmeticError, match="cold too"):
            enumerate_binary(model, BINARIES, GAP0)

    def test_stats_count_every_node_solve(self):
        pools = [enumerate_binary(knapsack(), BINARIES, SublevelSpec(gap=1.0)) for _ in range(2)]
        assert pools[0].stats == pools[1].stats
        assert set(pools[0].stats) == {"lp_solves", "pivots"}
        assert pools[0].stats["lp_solves"] >= len(pools[0])
        assert pools[0].stats["pivots"] >= pools[0].stats["lp_solves"]
        res = solve_binary(knapsack(), BINARIES)
        lp_solves = enumerate_binary(knapsack(), BINARIES, GAP0, limit=1).stats["lp_solves"]
        assert res.message == f"branch-and-bound over {lp_solves} LP relaxations"

    def test_limit_below_one_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            enumerate_binary(knapsack(), BINARIES, GAP0, limit=0)

    def test_pool_entries_are_duplicate_free(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model, names = random_binary_program(rng)
            pool = enumerate_binary(model, names, SublevelSpec(gap=0.05))
            assert len(set(pool.assignments)) == len(pool.assignments)

    def test_pool_values_never_degrade(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model, names = random_binary_program(rng)
            pool = enumerate_binary(model, names, SublevelSpec(gap=0.05))
            sign = 1.0 if model.objective.sense == "min" else -1.0
            adjusted = [sign * v for v in pool.values]
            assert all(a <= b + 1e-9 for a, b in zip(adjusted, adjusted[1:]))

    def test_pool_assignments_pairwise_distinct_in_hamming(self):
        pool = enumerate_binary(knapsack(), BINARIES, SublevelSpec(gap=1.0))
        for a, b in itertools.combinations(pool.assignments, 2):
            assert sum(x != y for x, y in zip(a, b)) >= 1

    def test_json_dict_shape(self):
        pool = enumerate_binary(knapsack(), BINARIES, GAP0)
        doc = pool.to_json_dict()
        assert doc["binary_names"] == ["a", "b", "c"]
        assert doc["count"] == 1
        assert doc["exhausted"] is True
        assert doc["stats"] == pool.stats
        assert doc["entries"] == [{"assignment": [1, 1, 0], "value": pytest.approx(9.0)}]


# ---------------------------------------------------------------------------
# pool == exhaustive 2^n scan on random programs


class TestAgainstExhaustiveScan:
    # gaps above 1 make the level fall as a negative optimum falls
    @pytest.mark.parametrize("gap", [0.0, 0.05, 1.5, 3.0])
    def test_random_programs_match_scan(self, gap):
        rng = np.random.default_rng(100 + int(gap * 100))
        spec = SublevelSpec(gap=gap)
        for trial in range(40):
            model, names = random_binary_program(
                rng, always_feasible=bool(trial % 2)
            )
            tau, expected = scan_binary_assignments(model, names, spec)
            pool = enumerate_binary(model, names, spec)
            assert pool.exhausted is True
            if tau is None:
                assert len(pool) == 0
                continue
            assert pool.tau == pytest.approx(tau, abs=1e-9)
            assert pool.assignments == [a for a, _ in expected]
            assert pool.values == pytest.approx([v for _, v in expected], abs=1e-7)


# ---------------------------------------------------------------------------
# a tau past the optimum by rounding only stands for the optimum's own level


def test_an_in_band_tau_gives_the_gap_zero_pool():
    # tau better than z* by up to 9e-10 * max(1, |z*|): SublevelSpec.resolve
    # folds it into z*, so the tree must not prune the optimal leaf at it
    for seed in range(200):
        model, names = random_binary_program(np.random.default_rng(seed))
        exact = enumerate_binary(model, names, SublevelSpec(gap=0.0))
        sign = 1.0 if model.objective.sense == "min" else -1.0
        for d in (1e-10, 5e-10, 9e-10):
            tau = exact.tau - sign * d * max(1.0, abs(exact.tau))
            pool = enumerate_binary(model, names, SublevelSpec(tau=tau))
            assert pool.exhausted and pool.tau == exact.tau, (seed, d)
            assert pool.assignments == exact.assignments and pool.values == exact.values, (seed, d)
