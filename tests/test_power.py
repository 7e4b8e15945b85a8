import json
import math

import numpy as np
import pytest

from aoskit import (
    Generator,
    Line,
    Network,
    NetworkError,
    SublevelSpec,
    apply_box_bounds,
    build_copper_plate,
    build_dcopf,
    build_network_flow,
    canonical_3bus,
    enumerate_vertices,
    load_network,
    parse_network,
    role_projection,
    solve_model,
)

from conftest import feasible_random_network, random_connected_network


def net_doc(**overrides):
    doc = {
        "schema": "aos-net/1",
        "buses": ["a", "b"],
        "lines": [{"from": "a", "to": "b", "reactance": 1.0, "flow_limit": 10.0}],
        "generators": {"a": {"cost": 5.0, "capacity": 20.0}},
        "loads": {"b": 8.0},
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_round_trip(self):
        net = parse_network(json.dumps(net_doc()))
        assert parse_network(net.to_json()).to_json() == net.to_json()

    def test_accepts_bytes(self):
        net = parse_network(json.dumps(net_doc()).encode())
        assert net.buses == ("a", "b")

    def test_schema_errors(self):
        for bad in (
            "not json at all {",
            json.dumps([1, 2]),
            json.dumps(net_doc(schema="wrong/0")),
            json.dumps(net_doc(buses=[])),
            json.dumps({"schema": "aos-net/1"}),
        ):
            with pytest.raises(NetworkError) as err:
                parse_network(bad)
            assert err.value.code == "schema"

    def test_dangling_bus_code(self):
        doc = net_doc(lines=[{"from": "a", "to": "zz", "reactance": 1.0, "flow_limit": 10.0}])
        with pytest.raises(NetworkError) as err:
            parse_network(json.dumps(doc))
        assert err.value.code == "dangling-bus"

    def test_dangling_generator_and_load(self):
        with pytest.raises(NetworkError) as err:
            parse_network(json.dumps(net_doc(generators={"zz": {"cost": 1.0, "capacity": 1.0}})))
        assert err.value.code == "dangling-bus"
        with pytest.raises(NetworkError) as err:
            parse_network(json.dumps(net_doc(loads={"zz": 5.0})))
        assert err.value.code == "dangling-bus"

    def test_bad_reactance_code(self):
        doc = net_doc(lines=[{"from": "a", "to": "b", "reactance": 0.0, "flow_limit": 10.0}])
        with pytest.raises(NetworkError) as err:
            parse_network(json.dumps(doc))
        assert err.value.code == "reactance"

    def test_disconnected_code(self):
        doc = net_doc(buses=["a", "b", "c"])
        with pytest.raises(NetworkError) as err:
            parse_network(json.dumps(doc))
        assert err.value.code == "disconnected"

    def test_self_loop_rejected(self):
        doc = net_doc(lines=[{"from": "a", "to": "a", "reactance": 1.0, "flow_limit": 10.0}])
        with pytest.raises(NetworkError):
            parse_network(json.dumps(doc))

    def test_duplicate_ordered_pair_rejected(self):
        doc = net_doc(
            lines=[
                {"from": "a", "to": "b", "reactance": 1.0, "flow_limit": 10.0},
                {"from": "a", "to": "b", "reactance": 2.0, "flow_limit": 5.0},
            ]
        )
        with pytest.raises(NetworkError):
            parse_network(json.dumps(doc))

    def test_single_bus_no_lines_is_connected(self):
        doc = {
            "schema": "aos-net/1",
            "buses": ["solo"],
            "lines": [],
            "generators": {"solo": {"cost": 5.0, "capacity": 10.0}},
            "loads": {},
        }
        net = parse_network(json.dumps(doc))
        assert net.total_load == 0.0

    def test_load_network_reads_bundled_fixture(self):
        from importlib import resources

        path = resources.files("aoskit") / "fixtures" / "canonical_3bus.json"
        net = load_network(str(path))
        assert net.to_json() == canonical_3bus().to_json()


class TestBuilders:
    def test_variable_blocks_and_roles(self, canonical_net):
        dc = build_dcopf(canonical_net)
        assert dc.variable_names == (
            "P[1]", "P[2]", "P[3]",
            "f[1,2]", "f[1,3]", "f[2,3]",
            "theta[1]", "theta[2]", "theta[3]",
        )
        assert dc.names_with_role("generation") == ("P[1]", "P[2]", "P[3]")
        assert dc.names_with_role("flow") == ("f[1,2]", "f[1,3]", "f[2,3]")
        assert dc.names_with_role("angle") == ("theta[1]", "theta[2]", "theta[3]")

        nf = build_network_flow(canonical_net)
        assert nf.variable_names == dc.variable_names[:6]
        cp = build_copper_plate(canonical_net)
        assert cp.variable_names == dc.variable_names[:3]

    def test_undeclared_generator_bus_pinned_to_zero(self, canonical_net):
        dc = build_dcopf(canonical_net)
        lower, upper = dc.bounds_arrays()
        i = dc.variable_index("P[3]")
        assert lower[i] == 0.0 and upper[i] == 0.0

    def test_constraint_counts(self, canonical_net):
        dc = build_dcopf(canonical_net)
        nf = build_network_flow(canonical_net)
        cp = build_copper_plate(canonical_net)
        assert len(dc.constraints) == 3 + 3  # balance per bus + coupling per line
        assert len(nf.constraints) == 3
        assert len(cp.constraints) == 1

    def test_objective_shared_across_builders(self, canonical_net):
        dc = build_dcopf(canonical_net)
        nf = build_network_flow(canonical_net)
        cp = build_copper_plate(canonical_net)
        assert dc.objective.sense == "min"
        assert dc.objective.coeffs == nf.objective.coeffs == cp.objective.coeffs
        assert dc.objective.coeffs == {"P[1]": 50.0, "P[2]": 50.0}

    def test_flow_bounds_symmetric(self, canonical_net):
        nf = build_network_flow(canonical_net)
        lower, upper = nf.bounds_arrays()
        i = nf.variable_index("f[1,2]")
        assert lower[i] == -100.0 and upper[i] == 100.0

    def test_angles_free(self, canonical_net):
        dc = build_dcopf(canonical_net)
        lower, upper = dc.bounds_arrays()
        i = dc.variable_index("theta[1]")
        assert math.isinf(lower[i]) and math.isinf(upper[i])

    def test_builder_determinism(self, canonical_net):
        a = build_dcopf(canonical_net)
        b = build_dcopf(canonical_net)
        assert a.to_json() == b.to_json()
        assert a.fingerprint() == b.fingerprint()

    def test_copper_plate_builds_even_when_undeliverable(self):
        net = Network(
            buses=["a"],
            lines=[],
            generators={"a": Generator(cost=10.0, capacity=5.0)},
            loads={"a": 100.0},
        )
        cp = build_copper_plate(net)
        assert solve_model(cp).status == "infeasible"

    def test_single_bus_zero_load_costs_nothing(self):
        net = Network(
            buses=["a"],
            lines=[],
            generators={"a": Generator(cost=10.0, capacity=5.0)},
            loads={},
        )
        assert solve_model(build_copper_plate(net)).value == pytest.approx(0.0)


class TestRelaxationChain:
    def test_cp_below_nf_below_dc(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n_buses = int(rng.integers(3, 9))
            net, dc_boxed, dc_res = feasible_random_network(rng, n_buses)
            nf_res = solve_model(build_network_flow(net))
            cp_res = solve_model(build_copper_plate(net))
            assert nf_res.status == "optimal" and cp_res.status == "optimal"
            assert cp_res.value <= nf_res.value + 1e-6
            assert nf_res.value <= dc_res.value + 1e-6

    def test_projection_feasibility_pointwise(self):
        # dropping theta from a DC point satisfies NF; dropping f satisfies CP
        rng = np.random.default_rng(52)
        for _ in range(10):
            net, dc_boxed, dc_res = feasible_random_network(rng, int(rng.integers(3, 7)))
            nf = build_network_flow(net)
            cp = build_copper_plate(net)
            vs = enumerate_vertices(dc_boxed, dc_res.value, SublevelSpec(gap=0.05))
            n_p = len(cp.variable_names)
            n_pf = len(nf.variable_names)
            for p in vs.points:
                assert nf.max_violation(p[:n_pf]) <= 1e-7
                assert cp.max_violation(p[:n_p]) <= 1e-7


class TestCanonicalInstance:
    def test_parameters(self, canonical_net):
        assert canonical_net.buses == ("1", "2", "3")
        assert len(canonical_net.lines) == 3
        for line in canonical_net.lines:
            assert line.reactance == 1.0 and line.flow_limit == 100.0
        assert canonical_net.generator_at("1").cost == 50.0
        assert canonical_net.generator_at("1").capacity == 100.0
        assert canonical_net.generator_at("3").capacity == 0.0  # implicit
        assert canonical_net.load_at("3") == 100.0
        assert canonical_net.total_load == 100.0

    def test_dc_optimum(self, canonical_net):
        boxed = apply_box_bounds(build_dcopf(canonical_net), 1e4)
        res = solve_model(boxed)
        assert res.status == "optimal"
        assert res.value == pytest.approx(5000.0, abs=1e-6)

    def test_box_1000_and_1e6_agree_on_vertex_count(self, canonical_net):
        counts = []
        for box in (1000.0, 1e6):
            boxed = apply_box_bounds(build_dcopf(canonical_net), box)
            res = solve_model(boxed)
            vs = enumerate_vertices(boxed, res.value, SublevelSpec(gap=0.0))
            counts.append(len(vs))
        assert counts[0] == counts[1] == 5

    def test_generation_projection_spec(self, canonical_net):
        dc = build_dcopf(canonical_net)
        assert role_projection(dc, "generation").names == ("P[1]", "P[2]", "P[3]")


class TestNetworkValidation:
    def test_randoms_always_connected(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            net = random_connected_network(rng, int(rng.integers(2, 9)))
            # construction re-runs validation, including the connectivity scan
            Network(buses=net.buses, lines=net.lines,
                    generators=net.generators, loads=net.loads)

    def test_a_thin_load_budget_still_draws_a_network(self):
        # seed 5 at 20 buses spreads 0.6 of its capacity below 5 per load
        net, _, best = feasible_random_network(np.random.default_rng(5), 20)
        assert best.status == "optimal"
        assert all(load >= 5.0 for load in net.loads.values())

    def test_negative_load_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                buses=["a"],
                lines=[],
                generators={"a": Generator(cost=1.0, capacity=1.0)},
                loads={"a": -5.0},
            )

    def test_bad_generator_rejected(self):
        with pytest.raises((NetworkError, ValueError)):
            Generator(cost=1.0, capacity=-2.0)

    def test_bad_flow_limit_rejected(self):
        with pytest.raises((NetworkError, ValueError)):
            Line("a", "b", reactance=1.0, flow_limit=-1.0)
