"""Shared fixtures and random-instance generators."""

import os

import numpy as np
import pytest
from hypothesis import settings

from aoskit import (
    Constraint,
    Generator,
    Line,
    LpModel,
    Network,
    Objective,
    Variable,
    build_dcopf,
    canonical_3bus,
    solve_model,
)

# HYPOTHESIS_PROFILE=ci prints a reproduction blob with every failure, so a
# CI-only falsifying example can be replayed locally. It replaces Hypothesis's
# built-in "ci" profile, which would drop deadlines and derandomize the runs;
# example counts and deadlines stay those of the default profile.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def canonical_net():
    return canonical_3bus()


@pytest.fixture
def triangle_exact():
    return LpModel(
        variables=[Variable("x1"), Variable("x2")],
        constraints=[
            Constraint({"x1": 1.0, "x2": 1.0}, ">=", 101.0),
            Constraint({"x1": 1.0}, "<=", 100.0),
            Constraint({"x2": 1.0}, "<=", 100.0),
        ],
        objective=Objective("max", {"x1": 1.0}),
    )


@pytest.fixture
def triangle_perturbed():
    return LpModel(
        variables=[Variable("x1"), Variable("x2")],
        constraints=[
            Constraint({"x1": 1.0, "x2": 1.0}, ">=", 101.0),
            Constraint({"x1": 99.0, "x2": 1.0}, "<=", 9901.0),
            Constraint({"x2": 1.0}, "<=", 100.0),
        ],
        objective=Objective("max", {"x1": 1.0}),
    )


def random_bounded_lp(rng: np.random.Generator, n_max: int = 5, m_max: int = 10) -> LpModel:
    """Random LP with finite bounds, feasible by construction.

    Every constraint is anchored to a random interior point, so the model
    always has at least one feasible solution and can never be unbounded.
    """
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    lo = rng.uniform(-10, 0, size=n)
    hi = lo + rng.uniform(0.5, 10, size=n)
    names = [f"x{i}" for i in range(n)]
    variables = [Variable(names[i], lower=float(lo[i]), upper=float(hi[i])) for i in range(n)]

    frac = rng.uniform(0.2, 0.8, size=n)
    x0 = lo + frac * (hi - lo)

    constraints = []
    for _ in range(m):
        coeffs = np.round(rng.uniform(-3, 3, size=n), 3)
        nz = rng.random(n) < 0.7
        if not nz.any():
            nz[rng.integers(n)] = True
        coeffs[~nz] = 0.0
        if not np.abs(coeffs).max() > 0:
            coeffs[rng.integers(n)] = 1.0
        lhs = float(coeffs @ x0)
        kind = rng.random()
        if kind < 0.15:
            constraints.append(Constraint(dict(zip(names, coeffs)), "=", lhs))
        elif kind < 0.6:
            constraints.append(Constraint(dict(zip(names, coeffs)), "<=", lhs + float(rng.uniform(0.1, 5))))
        else:
            constraints.append(Constraint(dict(zip(names, coeffs)), ">=", lhs - float(rng.uniform(0.1, 5))))

    obj_coeffs = np.round(rng.uniform(-5, 5, size=n), 3)
    sense = "min" if rng.random() < 0.5 else "max"
    return LpModel(
        variables=variables,
        constraints=constraints,
        objective=Objective(sense, dict(zip(names, obj_coeffs))),
    )


def dependent_cube(third_rhs: float = 3.0) -> LpModel:
    """x + y + z = 1.5 over the unit cube, then twice that row, whose
    right-hand side conflicts unless it is 3, then x - y <= 0.5."""
    return LpModel(
        [Variable(n, 0.0, 1.0) for n in "xyz"],
        [
            Constraint({"x": 1.0, "y": 1.0, "z": 1.0}, "=", 1.5),
            Constraint({"x": 2.0, "y": 2.0, "z": 2.0}, "=", third_rhs),
            Constraint({"x": 1.0, "y": -1.0}, "<=", 0.5),
        ],
        Objective("min", {"x": 1.0}),
    )


def random_connected_network(rng: np.random.Generator, n_buses: int) -> Network:
    """Random connected network: a spanning tree plus a few extra lines."""
    buses = [f"b{i}" for i in range(n_buses)]
    pairs = set()
    order = rng.permutation(n_buses)
    for i in range(1, n_buses):
        a = int(order[rng.integers(0, i)])
        b = int(order[i])
        pairs.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, n_buses))
    for _ in range(extra):
        a, b = rng.choice(n_buses, size=2, replace=False)
        pairs.add((min(int(a), int(b)), max(int(a), int(b))))

    lines = [
        Line(buses[a], buses[b],
             reactance=float(np.round(rng.uniform(0.5, 2.0), 3)),
             flow_limit=float(np.round(rng.uniform(40, 150), 1)))
        for a, b in sorted(pairs)
    ]

    n_gens = int(rng.integers(1, n_buses + 1))
    gen_buses = rng.choice(n_buses, size=n_gens, replace=False)
    generators = {
        buses[int(g)]: Generator(cost=float(np.round(rng.uniform(10, 100), 2)),
                                 capacity=float(np.round(rng.uniform(50, 200), 1)))
        for g in gen_buses
    }

    n_loads = int(rng.integers(1, n_buses + 1))
    load_buses = rng.choice(n_buses, size=n_loads, replace=False)
    total_cap = sum(g.capacity for g in generators.values())
    loads = {}
    budget = 0.6 * total_cap
    for b in load_buses:
        amount = float(np.round(rng.uniform(5, budget / n_loads), 1))
        if amount > 0:
            loads[buses[int(b)]] = amount
    if not loads:
        loads[buses[int(load_buses[0])]] = 10.0

    return Network(buses=buses, lines=lines, generators=generators, loads=loads)


def feasible_random_network(rng: np.random.Generator, n_buses: int, box: float = 1e4):
    """Keeps drawing networks until the boxed DC-OPF is solvable."""
    from aoskit import apply_box_bounds

    while True:
        net = random_connected_network(rng, n_buses)
        boxed = apply_box_bounds(build_dcopf(net), box)
        result = solve_model(boxed)
        if result.status == "optimal":
            return net, boxed, result


def random_binary_program(rng: np.random.Generator, n_max: int = 8, always_feasible: bool = True):
    """Random all-binary program; anchored constraints keep it feasible."""
    n = int(rng.integers(2, n_max + 1))
    names = [f"y{j}" for j in range(n)]
    variables = [Variable(nm, 0.0, 1.0) for nm in names]
    anchor = rng.integers(0, 2, size=n).astype(float)
    constraints = []
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {nm: float(c) for nm, c in zip(names, rng.integers(-4, 5, size=n)) if c}
        if not coeffs:
            continue
        lhs = sum(c * anchor[names.index(nm)] for nm, c in coeffs.items())
        if always_feasible:
            constraints.append(Constraint(coeffs, "<=", lhs + float(rng.uniform(0.0, 3.0))))
        else:
            constraints.append(Constraint(coeffs, "<=", float(rng.integers(-6, 7))))
    objective = Objective(
        "min" if rng.random() < 0.5 else "max",
        {nm: float(c) for nm, c in zip(names, rng.uniform(-5, 5, size=n))},
    )
    return LpModel(variables, constraints, objective), tuple(names)


def scan_binary_assignments(model: LpModel, names, spec):
    """Exhaustive 2^n reference: replay every assignment against the model.

    Returns (tau, [(assignment, value), ...]) within the resolved level
    value, sorted the way the solution pool sorts. Only valid when every
    model variable is binary, so feasibility is a direct point check.
    """
    import itertools

    idx = [model.variable_index(n) for n in names]
    feasible = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        x = np.zeros(model.n_variables)
        for j, bit in zip(idx, bits):
            x[j] = float(bit)
        if model.is_feasible(x, tol=1e-7):
            feasible.append((bits, model.evaluate_objective(x)))
    if not feasible:
        return None, []
    sense = model.objective.sense
    best = min(v for _, v in feasible) if sense == "min" else max(v for _, v in feasible)
    tau = spec.resolve(best, sense)
    if sense == "min":
        kept = [(a, v) for a, v in feasible if v <= tau + 1e-9]
    else:
        kept = [(a, v) for a, v in feasible if v >= tau - 1e-9]
    sign = 1.0 if sense == "min" else -1.0
    kept.sort(key=lambda av: (sign * av[1], av[0]))
    return tau, kept
