"""Seeded instance generators for the four benchmark families.

Each generator takes a ``numpy.random.Generator`` and returns plain aoskit
objects; nothing here calls the enumerators, so the instances do not depend
on the code under test.
"""
from __future__ import annotations

import itertools

import numpy as np

from aoskit import Constraint, Generator, Line, LpModel, Network, Objective, Variable


def random_network(rng: np.random.Generator, n_buses: int) -> Network:
    """Connected network: a random spanning tree plus a few extra lines.

    Total load stays below 60% of total capacity, so the copper-plate model
    is always feasible; flow limits can still make the DC-OPF infeasible.
    """
    buses = [f"b{i}" for i in range(n_buses)]
    pairs = set()
    order = rng.permutation(n_buses)
    for i in range(1, n_buses):
        a, b = int(order[rng.integers(0, i)]), int(order[i])
        pairs.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, n_buses))):
        a, b = (int(v) for v in rng.choice(n_buses, size=2, replace=False))
        pairs.add((min(a, b), max(a, b)))
    lines = [
        Line(buses[a], buses[b],
             reactance=float(np.round(rng.uniform(0.5, 2.0), 3)),
             flow_limit=float(np.round(rng.uniform(40, 150), 1)))
        for a, b in sorted(pairs)
    ]
    gen_buses = rng.choice(n_buses, size=int(rng.integers(1, n_buses + 1)), replace=False)
    generators = {
        buses[int(g)]: Generator(cost=float(np.round(rng.uniform(10, 100), 2)),
                                 capacity=float(np.round(rng.uniform(50, 200), 1)))
        for g in gen_buses
    }
    load_buses = rng.choice(n_buses, size=int(rng.integers(1, n_buses + 1)), replace=False)
    share = 0.6 * sum(g.capacity for g in generators.values()) / len(load_buses)
    # A share times a factor in (0.1, 1) never draws an empty interval, unlike
    # uniform(5, share), which fails whenever share < 5.
    loads = {buses[int(b)]: float(np.round(share * rng.uniform(0.1, 1.0), 1)) for b in load_buses}
    return Network(buses=buses, lines=lines, generators=generators, loads=loads)


def degenerate_apex(rng: np.random.Generator, n: int, k: int):
    """k random facets through an apex p of [0,1]^n, maximizing a strictly
    positive combination of their normals, so p is the unique optimum and
    every one of the C(k+1, n) bases at the level cut sits on p.

    Returns (model, apex).
    """
    names = [f"x{j}" for j in range(n)]
    apex = rng.uniform(0.2, 0.8, size=n)
    normals = rng.normal(size=(k, n))
    weights = rng.uniform(0.5, 1.5, size=k)
    c = weights @ normals
    constraints = [
        Constraint(dict(zip(names, map(float, a))), "<=", float(a @ apex)) for a in normals
    ]
    model = LpModel(
        [Variable(nm, 0.0, 1.0) for nm in names],
        constraints,
        Objective("max", dict(zip(names, map(float, c)))),
    )
    return model, apex


def knapsack(rng: np.random.Generator, n: int):
    """0/1 knapsack: maximize value under one weight budget.

    Values are continuous draws, so two assignments tie with probability 0
    and the pool order is unambiguous. Returns (model, binary names).
    """
    names = [f"y{j}" for j in range(n)]
    weight = rng.uniform(5, 30, size=n)
    value = rng.uniform(5, 30, size=n)
    budget = float(weight.sum() * rng.uniform(0.35, 0.6))
    model = LpModel(
        [Variable(nm, 0.0, 1.0) for nm in names],
        [Constraint(dict(zip(names, map(float, weight))), "<=", budget)],
        Objective("max", dict(zip(names, map(float, value)))),
    )
    return model, tuple(names)


def binary_replay(model: LpModel, names, spec):
    """Exhaustive 2^n reference for an all-binary model.

    Returns [(assignment, value), ...] within the resolved level value,
    ordered best first with ties broken by assignment, as the pool orders.
    """
    idx = [model.variable_index(nm) for nm in names]
    feasible = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        x = np.zeros(model.n_variables)
        x[idx] = bits
        if model.is_feasible(x):
            feasible.append((bits, model.evaluate_objective(x)))
    sign = 1.0 if model.objective.sense == "min" else -1.0
    best = min(sign * v for _, v in feasible) * sign
    tau = spec.resolve(best, model.objective.sense)
    kept = [(a, v) for a, v in feasible if sign * (v - tau) <= 1e-9]
    kept.sort(key=lambda av: (sign * av[1], av[0]))
    return kept
