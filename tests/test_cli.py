import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from aoskit import (
    Constraint,
    LpModel,
    Objective,
    SublevelSpec,
    Variable,
    VertexSet,
    apply_box_bounds,
    build_dcopf,
    cli,
    enumerate_vertices,
    network_from_dict,
    solve_model,
)
from aoskit.cli import main
from aoskit.simplex import NUMERIC_FAILURE, SimplexResult
from aoskit.sublevel import _provably_empty
from aoskit.vertices import NumericFailureError

from conftest import feasible_random_network

CANONICAL = str(resources.files("aoskit") / "fixtures" / "canonical_3bus.json")
TRIANGLE_EXACT = str(resources.files("aoskit") / "fixtures" / "triangle_exact.json")
TRIANGLE_PERTURBED = str(resources.files("aoskit") / "fixtures" / "triangle_perturbed.json")


@pytest.fixture
def run(capsys):
    def _run(*args):
        code = main([str(a) for a in args])
        out, err = capsys.readouterr()
        return code, out, err

    return _run


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(model.to_json())
    return str(path)


def infeasible_lp():
    return LpModel(
        variables=[Variable("x", 0.0, 1.0)],
        constraints=[Constraint({"x": 1.0}, ">=", 2.0)],
        objective=Objective("min", {"x": 1.0}),
    )


def unbounded_lp():
    return LpModel(
        variables=[Variable("x", 0.0)],
        objective=Objective("max", {"x": 1.0}),
    )


# ---------------------------------------------------------------------------
# solve


class TestSolve:
    def test_canonical_network_reports_the_optimum(self, run):
        code, out, _ = run("solve", CANONICAL)
        doc = json.loads(out)
        assert code == 0
        assert doc["schema_version"] == "aos-report/1"
        assert doc["kind"] == "solve"
        assert doc["status"] == "optimal"
        assert doc["value"] == pytest.approx(5000.0, abs=1e-6)
        assert len(doc["point"]) == len(doc["variable_names"]) == 9
        assert doc["config"]["input"] == CANONICAL

    def test_single_bus_copper_plate_with_no_load_costs_nothing(self, run, tmp_path):
        net = write_json(
            tmp_path, "single.json",
            {"schema": "aos-net/1", "buses": ["b"], "lines": [], "generators": {}, "loads": {}},
        )
        code, out, _ = run("solve", net, "--model", "cp")
        doc = json.loads(out)
        assert code == 0
        assert doc["value"] == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_model_exits_2(self, run, tmp_path):
        path = write_model(tmp_path, infeasible_lp())
        code, out, _ = run("solve", path)
        assert code == 2
        assert json.loads(out)["status"] == "infeasible"

    def test_unbounded_model_exits_3_and_reports_a_ray(self, run, tmp_path):
        path = write_model(tmp_path, unbounded_lp())
        code, out, _ = run("solve", path)
        doc = json.loads(out)
        assert code == 3
        assert doc["status"] == "unbounded"
        assert doc["ray"] == [pytest.approx(1.0)]

    def test_output_flag_writes_the_file_and_keeps_stdout_quiet(self, run, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run("solve", CANONICAL, "--output", report)
        assert code == 0
        assert out == ""
        assert json.loads(report.read_text())["status"] == "optimal"


# ---------------------------------------------------------------------------
# enumerate


class TestEnumerate:
    def test_canonical_gap0_lists_five_vertices(self, run):
        code, out, _ = run("enumerate", CANONICAL, "--gap", 0)
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["z_star"] == pytest.approx(5000.0, abs=1e-6)
        assert doc["provably_empty"] is False
        assert doc["result"]["count"] == 5
        assert doc["result"]["complete"] is True
        assert len(doc["result"]["names"]) == 9

    def test_tau_below_the_optimum_is_provably_empty_not_an_error(self, run):
        code, out, _ = run("enumerate", CANONICAL, "--tau", 4999)
        doc = json.loads(out)
        assert code == 0
        assert doc["provably_empty"] is True
        assert doc["result"]["count"] == 0
        assert doc["result"]["points"] == []

    def test_limit_truncation_exits_4_but_still_reports(self, run):
        code, out, _ = run("enumerate", CANONICAL, "--gap", 0, "--limit", 1)
        doc = json.loads(out)
        assert code == 4
        assert doc["result"]["complete"] is False
        assert doc["result"]["count"] == 1

    def test_generation_projection_collapses_to_three_points(self, run):
        code, out, _ = run("enumerate", CANONICAL, "--gap", 0, "--project", "generation")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["names"] == ["P[1]", "P[2]", "P[3]"]
        assert doc["result"]["points"] == [
            [0.0, 100.0, 0.0],
            [50.0, 50.0, 0.0],
            [100.0, 0.0, 0.0],
        ]

    def test_named_projection_keeps_the_requested_coordinates(self, run):
        code, out, _ = run("enumerate", CANONICAL, "--gap", 0, "--project", "P[1],P[2]")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["names"] == ["P[1]", "P[2]"]
        assert doc["result"]["points"] == [[0.0, 100.0], [50.0, 50.0], [100.0, 0.0]]

    def test_seed_shuffles_exploration_but_not_the_result(self, run):
        _, out_a, _ = run("enumerate", CANONICAL, "--gap", 0, "--seed", 7)
        _, out_b, _ = run("enumerate", CANONICAL, "--gap", 0, "--seed", 991)
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["result"]["points"] == b["result"]["points"]

    def test_repeated_runs_are_byte_identical(self, run, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run("enumerate", CANONICAL, "--gap", 0.01, "--output", p)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# a tau within rounding of the optimum stands for the optimum's own level


def band_model(name):
    """The model the CLI builds from a fixture, or an LP whose optimal value
    is about 1e6 in either sense, with a four-vertex optimal face."""
    if name == "large":
        return LpModel(
            [Variable(n, 0.0, 1.0) for n in "xyz"] + [Variable("t", 1.0, 2.0)],
            [Constraint({"x": 1.0, "y": 1.0}, ">=", 1.0), Constraint({"x": 1.0, "y": 1.0}, "<=", 1.5)],
            Objective("min", {"t": 1e6, "x": 1.0, "y": 1.0}),
        )
    path = str(resources.files("aoskit") / "fixtures" / f"{name}.json")
    with open(path) as fh:
        doc = json.load(fh)
    return build_dcopf(network_from_dict(doc)) if doc["schema"] == "aos-net/1" else LpModel.from_json_dict(doc)


def band_taus(z_star, sense):
    """z* moved towards better values by d * max(1, |z*|), d from 0 to 1e-6."""
    for d in [0.0] + [10.0**-k for k in range(12, 5, -1)]:
        step = d * max(1.0, abs(z_star))
        yield z_star - step if sense == "min" else z_star + step


class TestTheBandAroundTheOptimum:
    # beyond 1e-9 relative the set is provably empty; within it, tau stands
    # for z* itself, and the set is the optimal face
    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("name", ["canonical_3bus", "triangle_exact", "triangle_perturbed", "large"])
    def test_empty_exactly_when_provably_empty(self, run, tmp_path, name, sense):
        plain = band_model(name)
        model = LpModel(plain.variables, plain.constraints,
                        Objective(sense, plain.objective.coeffs, plain.objective.constant), metadata=plain.metadata)
        path = write_model(tmp_path, model)
        boxed = apply_box_bounds(model, 1e4)
        best = solve_model(boxed)
        face = enumerate_vertices(boxed, best.value, SublevelSpec(gap=0.0), start=best)
        assert face.complete and len(face) >= 1
        outcomes = set()
        for tau in band_taus(best.value, sense):
            empty = _provably_empty(best.value, tau, sense)
            outcomes.add(empty)
            docs = [json.loads(run(cmd, path, "--tau", repr(tau))[1]) for cmd in ("enumerate", "oracle")]
            spec = SublevelSpec(tau=tau)
            assert all(doc["provably_empty"] is empty for doc in docs)
            runs = [(VertexSet.from_json_dict(doc["result"]), doc["z_star"]) for doc in docs] + [
                (enumerate_vertices(boxed, best.value, spec, start=best), best.value),
                (enumerate_vertices(boxed, best.value, spec), best.value),
            ]
            for vs, z_star in runs:
                assert vs.complete
                assert (len(vs) == 0) is empty
                # the walk, the oracle and the report all cut at z* itself
                assert empty or (vs.same_points(face) and vs.tau == z_star)
        assert outcomes == {False, True}

    def test_verify_cuts_every_model_at_one_level(self, run):
        _, out, _ = run("verify", CANONICAL, "--gap", "0")
        face = json.loads(out)
        outcomes = set()
        for tau in band_taus(face["z_star"], "min"):
            empty = _provably_empty(face["z_star"], tau, "min")
            outcomes.add(empty)
            code, out, _ = run("verify", CANONICAL, "--tau", repr(tau))
            doc = json.loads(out)
            assert code == 0 and doc["passed"] is True and doc["complete"] is True
            assert (doc["vertex_counts"]["dcopf"] == 0) is empty
            if not empty:
                assert doc["tau"] == face["z_star"] and doc["vertex_counts"] == face["vertex_counts"]
                assert [p["tau"] for p in doc["result"]["pairs"]] == [face["z_star"]] * 3
        assert outcomes == {False, True}

    def test_the_network_fixture_just_below_its_optimum(self, run):
        # z* = 5000: from 2e-11 to 1e-8 relative below it, the walk's start
        # was rejected as infeasible, and the run truncated
        for tau, count in ((5000 - 1e-6, 5), (5000 - 5e-5, 0)):
            code, out, _ = run("enumerate", CANONICAL, "--tau", repr(tau))
            doc = json.loads(out)
            assert code == 0
            assert doc["provably_empty"] is (count == 0)
            assert doc["result"]["count"] == count and "truncated" not in doc["result"]["meta"]


# ---------------------------------------------------------------------------
# oracle


class TestOracle:
    def test_oracle_agrees_with_the_pivot_enumerator(self, run):
        _, out_enum, _ = run("enumerate", CANONICAL, "--gap", 0)
        code, out_oracle, _ = run("oracle", CANONICAL, "--gap", 0)
        assert code == 0
        enum_pts = np.array(json.loads(out_enum)["result"]["points"])
        oracle_pts = np.array(json.loads(out_oracle)["result"]["points"])
        np.testing.assert_allclose(oracle_pts, enum_pts, atol=1e-6)

    def test_combinatorial_blowup_is_refused(self, run, tmp_path):
        n = 10
        model = LpModel(
            variables=[Variable(f"x{j}", 0.0, 1.0) for j in range(n)],
            constraints=[
                Constraint(
                    {f"x{j}": 1.0 + ((i + j) % 5) for j in range(n)}, "<=", 50.0 + i
                )
                for i in range(40)
            ],
            objective=Objective("min", {f"x{j}": 1.0 for j in range(n)}),
        )
        code, _, err = run("oracle", write_model(tmp_path, model))
        assert code == 64
        assert "aoskit: error" in err


# ---------------------------------------------------------------------------
# verify


def add_zero_point_to_dcopf_sets(monkeypatch):
    """Every DC-OPF vertex set that ``verify`` enumerates gains the all-zero
    point, which serves no load and so breaks containment."""
    real = cli.enumerate_vertices

    def with_zero_point(model, *args, **kwargs):
        vs = real(model, *args, **kwargs)
        if model.metadata.get("model_family") != "dcopf":
            return vs
        points = np.vstack([vs.points, np.zeros((1, model.n_variables))])
        objectives = np.array([model.evaluate_objective(p) for p in points])
        return VertexSet(points=points, names=vs.names, objectives=objectives, complete=vs.complete, meta=vs.meta)

    monkeypatch.setattr(cli, "enumerate_vertices", with_zero_point)


class TestVerify:
    def test_canonical_containment_passes(self, run):
        code, out, _ = run("verify", CANONICAL)
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["complete"] is True
        assert doc["vertex_counts"] == {"dcopf": 5, "nf": 4}
        assert [p["label"] for p in doc["result"]["pairs"]] == ["dcopf->nf", "dcopf->cp", "nf->cp"]

    def test_injected_bad_point_fails_verification(self, run, tmp_path, monkeypatch):
        add_zero_point_to_dcopf_sets(monkeypatch)
        report = tmp_path / "verify.json"
        code, _, _ = run("verify", CANONICAL, "--output", report)
        doc = json.loads(report.read_text())
        assert code == 1
        assert doc["passed"] is False
        failing = [p for p in doc["result"]["pairs"] if not p["passed"]]
        assert failing  # the injected point must break at least one pair

    def test_partial_vertex_sets_exit_truncated(self, run, tmp_path, monkeypatch):
        # --limit 1 truncates both enumerations: a pass on partial sets is not
        # a success, while a violated constraint stays a failure
        code, out, _ = run("verify", CANONICAL, "--limit", "1", "--gap", "0.05")
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["complete"] is False
        assert code == 4
        add_zero_point_to_dcopf_sets(monkeypatch)
        code, out, _ = run("verify", CANONICAL, "--limit", "1", "--gap", "0.05")
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["complete"] is False
        assert code == 1

    def test_verify_runs_are_byte_identical(self, run, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert run("verify", CANONICAL, "--output", p)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestVerifySeed:
    def test_seed_orders_both_walks(self, run, monkeypatch):
        real = cli.enumerate_vertices
        seen = []

        def spy(model, *args, order_rng=None, **kwargs):
            state = None if order_rng is None else order_rng.bit_generator.state
            seen.append((model.metadata["model_family"], state))
            return real(model, *args, order_rng=order_rng, **kwargs)

        monkeypatch.setattr(cli, "enumerate_vertices", spy)
        assert run("verify", CANONICAL, "--seed", 5)[0] == 0
        assert seen == [(family, np.random.default_rng(5).bit_generator.state) for family in ("dcopf", "nf")]
        seen.clear()
        assert run("verify", CANONICAL)[0] == 0
        assert seen == [("dcopf", None), ("nf", None)]

    def test_seed_keeps_the_verdict(self, run, tmp_path):
        inputs = [CANONICAL]
        for seed in range(6):
            for buses in (4, 5, 6):
                net = feasible_random_network(np.random.default_rng(seed), buses)[0]
                inputs.append(write_json(tmp_path, f"net{seed}_{buses}.json", net.to_json_dict()))
        for path in inputs:
            docs = [json.loads(run("verify", path, "--gap", "0.05", *flags)[1])
                    for flags in ([], ["--seed", "1"], ["--seed", "2"])]
            verdicts = [(doc["passed"], doc["complete"], doc["vertex_counts"]) for doc in docs]
            assert verdicts[1:] == verdicts[:1] * 2, path


# ---------------------------------------------------------------------------
# rank


def secondary_file(tmp_path, doc, name="secondary.json"):
    return write_json(tmp_path, name, doc)


class TestRank:
    def test_perturbed_triangle_secondary_extremes(self, run, tmp_path):
        sec = secondary_file(tmp_path, {"sense": "max", "coeffs": {"x2": 1.0}})
        code, out, _ = run("rank", TRIANGLE_PERTURBED, "--gap", 0.01, "--secondary", sec)
        doc = json.loads(out)
        assert code == 0
        entries = doc["result"]["entries"]
        assert entries[0]["best"] and entries[0]["value"] == pytest.approx(100.0, abs=1e-6)
        assert entries[-1]["worst"] and entries[-1]["value"] == pytest.approx(1.0, abs=1e-6)

    def test_ranking_a_report_matches_in_process_ranking(self, run, tmp_path):
        sec = secondary_file(tmp_path, {"sense": "max", "coeffs": {"P[1]": 1.0}})
        report = tmp_path / "enumerated.json"
        assert run("enumerate", CANONICAL, "--gap", 0, "--output", report)[0] == 0
        code_a, out_a, _ = run("rank", report, "--secondary", sec)
        code_b, out_b, _ = run("rank", CANONICAL, "--gap", 0, "--secondary", sec)
        assert code_a == code_b == 0
        assert json.loads(out_a)["result"] == json.loads(out_b)["result"]

    def test_empty_vertex_report_ranks_to_empty_and_exits_0(self, run, tmp_path):
        sec = secondary_file(tmp_path, {"sense": "max", "coeffs": {"P[1]": 1.0}})
        report = tmp_path / "empty.json"
        assert run("enumerate", CANONICAL, "--tau", 4999, "--output", report)[0] == 0
        code, out, _ = run("rank", report, "--secondary", sec)
        doc = json.loads(out)
        assert code == 0
        assert doc["source_count"] == 0
        assert doc["result"]["entries"] == []

    def test_score_based_ranking(self, run, tmp_path):
        sec = secondary_file(tmp_path, {"sense": "min", "scores": [5.0, 4.0, 3.0, 2.0, 1.0]})
        code, out, _ = run("rank", CANONICAL, "--gap", 0, "--secondary", sec)
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["method"] == "scores"
        assert [e["value"] for e in doc["result"]["entries"]] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_wrong_score_count_is_a_usage_error(self, run, tmp_path):
        sec = secondary_file(tmp_path, {"sense": "min", "scores": [1.0]})
        code, _, err = run("rank", CANONICAL, "--gap", 0, "--secondary", sec)
        assert code == 64
        assert "cannot rank" in err

    def test_unknown_secondary_variable_is_a_usage_error(self, run, tmp_path):
        sec = secondary_file(tmp_path, {"sense": "max", "coeffs": {"nope": 1.0}})
        code, _, err = run("rank", CANONICAL, "--gap", 0, "--secondary", sec)
        assert code == 64
        assert "cannot rank" in err

    def test_truncated_source_propagates_exit_4(self, run, tmp_path):
        sec = secondary_file(tmp_path, {"sense": "max", "coeffs": {"P[1]": 1.0}})
        report = tmp_path / "truncated.json"
        assert run("enumerate", CANONICAL, "--gap", 0, "--limit", 1, "--output", report)[0] == 4
        code, out, _ = run("rank", report, "--secondary", sec)
        assert code == 4
        assert json.loads(out)["complete"] is False


# ---------------------------------------------------------------------------
# usage errors, one per failure class


class TestUsageErrors:
    def assert_usage(self, run_result):
        code, _, err = run_result
        assert code == 64
        assert "aoskit: error" in err

    def test_gap_and_tau_together(self, run):
        self.assert_usage(run("enumerate", CANONICAL, "--gap", 0, "--tau", 5000))

    def test_missing_input_file(self, run):
        self.assert_usage(run("solve", "/nonexistent/net.json"))

    def test_invalid_json_input(self, run, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self.assert_usage(run("solve", path))

    def test_unrecognized_schema(self, run, tmp_path):
        self.assert_usage(run("solve", write_json(tmp_path, "odd.json", {"schema": "wat/9"})))

    def test_unknown_command(self, run):
        self.assert_usage(run("transmogrify", CANONICAL))

    def test_no_arguments(self, run):
        self.assert_usage(run())

    def test_model_flag_rejected_for_lp_input(self, run):
        self.assert_usage(run("solve", TRIANGLE_EXACT, "--model", "cp"))

    def test_raw_lp_flag_rejected_for_network_input(self, run):
        self.assert_usage(run("solve", CANONICAL, "--model", "raw-lp"))

    def test_verify_needs_a_network(self, run):
        self.assert_usage(run("verify", TRIANGLE_EXACT))

    def test_negative_gap(self, run):
        self.assert_usage(run("enumerate", CANONICAL, "--gap", -0.5))

    def test_zero_limit(self, run):
        self.assert_usage(run("enumerate", CANONICAL, "--limit", 0))

    def test_network_errors_carry_their_code(self, run, tmp_path):
        net = write_json(
            tmp_path, "bad.json",
            {
                "schema": "aos-net/1",
                "buses": ["a", "b"],
                "lines": [{"from": "a", "to": "b", "reactance": 0.0, "flow_limit": 10.0}],
                "generators": {},
                "loads": {},
            },
        )
        code, _, err = run("solve", net)
        assert code == 64
        assert "error[reactance]" in err

    def test_role_projection_needs_role_carrying_variables(self, run):
        self.assert_usage(run("enumerate", TRIANGLE_EXACT, "--project", "generation"))

    def test_secondary_without_coeffs_or_scores(self, run, tmp_path):
        sec = write_json(tmp_path, "sec.json", {"sense": "max"})
        self.assert_usage(run("rank", CANONICAL, "--gap", 0, "--secondary", sec))

    @pytest.mark.parametrize("flag,value,message", [
        ("--dedup-tol", -1, "--dedup-tol must be nonnegative"),
        ("--box-bound", 0, "--box-bound must be positive"),
        ("--box-bound", -1, "--box-bound must be positive"),
    ])
    def test_out_of_range_tolerance_and_box(self, run, flag, value, message):
        code, _, err = run("enumerate", CANONICAL, flag, value)
        assert code == 64
        assert err == f"aoskit: error: {message}\n"

    @pytest.mark.parametrize("edit", [
        lambda d: d["constraints"][0].update(coeffs=[1.0, 1.0]),
        lambda d: d["objective"].update(coeffs=[1.0]),
        lambda d: d.update(metadata=[1]),
    ], ids=["constraint-coeffs-list", "objective-coeffs-list", "metadata-list"])
    def test_malformed_lp_document(self, run, tmp_path, edit):
        with open(TRIANGLE_EXACT) as fh:
            doc = json.load(fh)
        edit(doc)
        self.assert_usage(run("solve", write_json(tmp_path, "lp.json", doc)))

    @pytest.mark.parametrize("key", ["generators", "loads"])
    def test_network_map_given_as_a_list(self, run, tmp_path, key):
        with open(CANONICAL) as fh:
            doc = json.load(fh)
        doc[key] = [doc[key]]
        code, _, err = run("solve", write_json(tmp_path, "net.json", doc))
        assert code == 64
        assert err == f"aoskit: error[schema]: '{key}' must be a JSON object keyed by bus id\n"

    def test_rank_on_a_report_without_names(self, run, tmp_path):
        report = write_json(tmp_path, "report.json",
                            {"schema_version": "aos-report/1", "result": {"points": [[1.0, 2.0]]}})
        sec = write_json(tmp_path, "sec.json", {"sense": "min", "scores": [1.0]})
        self.assert_usage(run("rank", report, "--secondary", sec))

    @pytest.mark.parametrize("objectives", [[5000.0], [None, 1.0]], ids=["one-for-two-points", "null-entry"])
    def test_rank_on_a_report_whose_objectives_do_not_fit_its_points(self, run, tmp_path, objectives):
        result = {"names": ["a", "b"], "points": [[1.0, 2.0], [3.0, 4.0]], "objectives": objectives}
        report = write_json(tmp_path, "report.json", {"schema_version": "aos-report/1", "result": result})
        sec = write_json(tmp_path, "sec.json", {"sense": "min", "scores": [1.0, 2.0]})
        self.assert_usage(run("rank", report, "--secondary", sec))

    def test_output_into_a_missing_directory(self, run, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run("solve", CANONICAL, "--output", out_path)
        assert (code, out) == (64, "")
        assert err == f"aoskit: error: cannot write {out_path}: No such file or directory\n"

    @pytest.mark.parametrize("doc", [
        {"sense": "min", "scores": [True, False, 2.0, 1.0, 0.5]},
        {"sense": "max", "coeffs": {"P[1]": True}},
    ], ids=["scores", "coeffs"])
    def test_secondary_booleans_are_no_numbers(self, run, tmp_path, doc):
        sec = write_json(tmp_path, "sec.json", doc)
        self.assert_usage(run("rank", CANONICAL, "--gap", 0, "--secondary", sec))

    def test_usage_failure_leaves_no_partial_report(self, run, tmp_path):
        out_path = tmp_path / "never.json"
        bad = write_json(tmp_path, "odd.json", {"schema": "wat/9"})
        code, _, _ = run("enumerate", bad, "--output", out_path)
        assert code == 64
        assert not out_path.exists()


# ---------------------------------------------------------------------------
# the config block


# every flag at a value other than its default
FLAG_VALUES = {"model": "dcopf", "gap": 0.05, "box_bound": 2e4, "limit": 50, "seed": 3, "dedup_tol": 1e-7,
               "project": "generation"}
COMMAND_FLAGS = {
    "solve": ("model",),
    "enumerate": ("model", "gap", "box_bound", "limit", "seed", "dedup_tol", "project"),
    "oracle": ("model", "gap", "box_bound", "dedup_tol", "project"),
    "verify": ("gap", "box_bound", "limit", "seed", "dedup_tol"),
    "rank": ("model", "gap", "box_bound", "limit", "seed", "dedup_tol", "project", "secondary"),
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_config_holds_every_key_in_order(run, tmp_path, command):
    values = {**FLAG_VALUES, "secondary": secondary_file(tmp_path, {"sense": "max", "coeffs": {"P[1]": 1.0}})}
    argv = [command, CANONICAL, "--output", tmp_path / "report.json"]
    for key in COMMAND_FLAGS[command]:
        argv += ["--" + key.replace("_", "-"), values[key]]
    assert run(*argv)[0] == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    defaults = {"model": None, "gap": None, "tau": None, "box_bound": 1e4, "limit": 10_000, "dedup_tol": 1e-6,
                "seed": None, "project": None, "secondary": None}
    given = {key: values[key] for key in COMMAND_FLAGS[command]}
    # the output path is left out
    assert list(config.items()) == [("command", command), ("input", CANONICAL)] + list({**defaults, **given}.items())


# ---------------------------------------------------------------------------
# numerical failure dispatch


class TestNumericFailure:
    def test_solver_numeric_failure_exits_70(self, run, monkeypatch):
        monkeypatch.setattr(
            "aoskit.cli.solve_model",
            lambda model, **kw: SimplexResult(status=NUMERIC_FAILURE, message="synthetic"),
        )
        code, out, _ = run("solve", CANONICAL)
        assert code == 70
        assert json.loads(out)["status"] == "numeric_failure"

    def test_enumeration_numeric_failure_exits_70_without_a_report(self, run, monkeypatch, tmp_path):
        def boom(*args, **kw):
            raise NumericFailureError("synthetic")

        monkeypatch.setattr("aoskit.cli.enumerate_vertices", boom)
        out_path = tmp_path / "never.json"
        code, _, err = run("enumerate", CANONICAL, "--gap", 0, "--output", out_path)
        assert code == 70
        assert "synthetic" in err
        assert not out_path.exists()


# ---------------------------------------------------------------------------
# module entry point and logging, end to end


class TestSubprocessEntry:
    def test_python_dash_m_with_logging(self):
        env = {"AOS_LOG": "info", "PATH": "/usr/bin:/bin"}
        # an uninstalled checkout is importable only through the caller's PYTHONPATH
        if "PYTHONPATH" in os.environ:
            env["PYTHONPATH"] = os.environ["PYTHONPATH"]
        proc = subprocess.run(
            [sys.executable, "-m", "aoskit", "solve", CANONICAL],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "optimal"
        assert "INFO aoskit.cli" in proc.stderr
