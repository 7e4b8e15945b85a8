"""Power network description and its three LP formulations.

The same network yields three models sharing one generation-cost objective:
a full linearized power flow (generation, line flows, bus angles coupled
through reactances), a flow relaxation that keeps balance but drops the
angle coupling, and a single-balance relaxation over generation only.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .model import Constraint, LpModel, Objective, Variable

NET_SCHEMA = "aos-net/1"


class NetworkError(ValueError):
    """Invalid network input; ``code`` names the failure class.

    Codes: "schema" (malformed or out-of-domain fields), "dangling-bus"
    (reference to an undeclared bus), "reactance" (nonpositive reactance),
    "disconnected" (the line graph does not span the buses).
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    reactance: float
    flow_limit: float

    def __post_init__(self):
        pair = (self.from_bus, self.to_bus)
        if not (self.reactance > 0):
            raise NetworkError("reactance", f"line {pair} has nonpositive reactance {self.reactance}")
        if not (self.flow_limit > 0):
            raise NetworkError("schema", f"line {pair} has nonpositive flow limit {self.flow_limit}")


@dataclass(frozen=True)
class Generator:
    cost: float
    capacity: float

    def __post_init__(self):
        if not (self.capacity >= 0) or math.isnan(self.cost):
            raise NetworkError(
                "schema", f"generator has invalid data (cost={self.cost}, capacity={self.capacity})"
            )


_NO_GENERATOR = Generator(cost=0.0, capacity=0.0)


@dataclass(frozen=True)
class Network:
    """Buses, directed lines, per-bus generators and loads.

    Buses without a declared generator implicitly carry one of capacity 0,
    so every model indexes generation over all buses. Validation happens at
    construction; an instance that exists is well-formed.
    """

    buses: tuple[str, ...]
    lines: tuple[Line, ...] = ()
    generators: Mapping[str, Generator] = field(default_factory=dict)
    loads: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(str(b) for b in self.buses))
        object.__setattr__(self, "generators", dict(self.generators))
        object.__setattr__(self, "loads", {b: float(v) for b, v in self.loads.items()})
        if not self.buses:
            raise NetworkError("schema", "network has no buses")
        if any(not b for b in self.buses):
            raise NetworkError("schema", "bus ids must be non-empty strings")
        if len(set(self.buses)) != len(self.buses):
            raise NetworkError("schema", "duplicate bus ids")
        bus_set = set(self.buses)
        seen_pairs = set()
        for ln in self.lines:
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise NetworkError(
                    "dangling-bus", f"line ({ln.from_bus!r}, {ln.to_bus!r}) references an undeclared bus"
                )
            if ln.from_bus == ln.to_bus:
                raise NetworkError("schema", f"self-loop line at bus {ln.from_bus!r}")
            pair = (ln.from_bus, ln.to_bus)
            if pair in seen_pairs:
                raise NetworkError("schema", f"duplicate line {pair}")
            seen_pairs.add(pair)
        for bus in self.generators:
            if bus not in bus_set:
                raise NetworkError("dangling-bus", f"generator at undeclared bus {bus!r}")
        for bus, load in self.loads.items():
            if bus not in bus_set:
                raise NetworkError("dangling-bus", f"load at undeclared bus {bus!r}")
            if load < 0 or math.isnan(load):
                raise NetworkError("schema", f"load at {bus!r} must be nonnegative, got {load}")
        self._check_connected()

    def _check_connected(self):
        if len(self.buses) == 1:
            return
        adjacency: dict[str, set[str]] = {b: set() for b in self.buses}
        for ln in self.lines:
            adjacency[ln.from_bus].add(ln.to_bus)
            adjacency[ln.to_bus].add(ln.from_bus)
        seen = {self.buses[0]}
        stack = [self.buses[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(self.buses):
            missing = [b for b in self.buses if b not in seen]
            raise NetworkError("disconnected", f"buses {missing} are not connected to {self.buses[0]!r}")

    def generator_at(self, bus: str) -> Generator:
        return self.generators.get(bus, _NO_GENERATOR)

    def load_at(self, bus: str) -> float:
        return self.loads.get(bus, 0.0)

    @property
    def total_load(self) -> float:
        return float(sum(self.loads.values()))

    def to_json_dict(self) -> dict:
        return {
            "schema": NET_SCHEMA,
            "buses": list(self.buses),
            "lines": [
                {
                    "from": ln.from_bus,
                    "to": ln.to_bus,
                    "reactance": ln.reactance,
                    "flow_limit": ln.flow_limit,
                }
                for ln in self.lines
            ],
            "generators": {
                b: {"cost": g.cost, "capacity": g.capacity}
                for b in self.buses
                if (g := self.generators.get(b)) is not None
            },
            "loads": {b: self.loads[b] for b in self.buses if b in self.loads},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def parse_network(text: bytes | str) -> Network:
    """Validated Network from its JSON description (schema "aos-net/1")."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError("schema", f"not valid JSON: {exc}") from exc
    return network_from_dict(doc)


def network_from_dict(doc) -> Network:
    """Validated Network from an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise NetworkError("schema", "network document must be a JSON object")
    schema = doc.get("schema")
    if schema != NET_SCHEMA:
        raise NetworkError("schema", f"unsupported network schema {schema!r}; expected {NET_SCHEMA!r}")
    buses = doc.get("buses")
    if not isinstance(buses, list):
        raise NetworkError("schema", "'buses' must be a list of bus ids")
    for key in ("generators", "loads"):
        if not isinstance(doc.get(key) or {}, dict):
            raise NetworkError("schema", f"{key!r} must be a JSON object keyed by bus id")
    try:
        lines = tuple(
            Line(
                from_bus=str(ln["from"]),
                to_bus=str(ln["to"]),
                reactance=float(ln["reactance"]),
                flow_limit=float(ln["flow_limit"]),
            )
            for ln in doc.get("lines", [])
        )
        generators = {
            str(b): Generator(cost=float(g["cost"]), capacity=float(g["capacity"]))
            for b, g in (doc.get("generators") or {}).items()
        }
        loads = {str(b): float(v) for b, v in (doc.get("loads") or {}).items()}
    except NetworkError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkError("schema", f"malformed network field: {exc}") from exc
    return Network(
        buses=tuple(str(b) for b in buses), lines=lines, generators=generators, loads=loads
    )


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return parse_network(fh.read())


def canonical_3bus() -> Network:
    """The bundled three-bus instance: a symmetric triangle of unit reactances.

    Generators of equal cost at buses 1 and 2, all load at bus 3. Total cost
    is constant across the feasible set, which is what makes its optimal
    face maximally rich relative to its size.
    """
    return Network(
        buses=("1", "2", "3"),
        lines=(
            Line("1", "2", reactance=1.0, flow_limit=100.0),
            Line("1", "3", reactance=1.0, flow_limit=100.0),
            Line("2", "3", reactance=1.0, flow_limit=100.0),
        ),
        generators={"1": Generator(cost=50.0, capacity=100.0), "2": Generator(cost=50.0, capacity=100.0)},
        loads={"3": 100.0},
    )


def _generation_variables(net: Network) -> list[Variable]:
    return [
        Variable(f"P[{b}]", 0.0, net.generator_at(b).capacity, role="generation")
        for b in net.buses
    ]


def _flow_variables(net: Network) -> list[Variable]:
    return [
        Variable(_flow_name(ln), -ln.flow_limit, ln.flow_limit, role="flow") for ln in net.lines
    ]


def _flow_name(ln: Line) -> str:
    return f"f[{ln.from_bus},{ln.to_bus}]"


def _balance_constraints(net: Network) -> list[Constraint]:
    """One per bus: generation plus net inflow equals load."""
    out = []
    for b in net.buses:
        coeffs: dict[str, float] = {f"P[{b}]": 1.0}
        for ln in net.lines:
            if ln.to_bus == b:
                coeffs[_flow_name(ln)] = 1.0
            elif ln.from_bus == b:
                coeffs[_flow_name(ln)] = -1.0
        out.append(Constraint(coeffs=coeffs, sense="=", rhs=net.load_at(b)))
    return out


def _cost_objective(net: Network) -> Objective:
    return Objective(
        "min", {f"P[{b}]": net.generators[b].cost for b in net.buses if b in net.generators}
    )


def build_dcopf(net: Network) -> LpModel:
    """Full linearized power flow over variables ordered (P..., f..., theta...).

    Flows couple to angle differences through 1/reactance; angles stay free,
    so vertex enumeration requires box bounds on this model.
    """
    variables = (
        _generation_variables(net)
        + _flow_variables(net)
        + [Variable(f"theta[{b}]", role="angle") for b in net.buses]
    )
    constraints = _balance_constraints(net)
    for ln in net.lines:
        susceptance = 1.0 / ln.reactance
        constraints.append(
            Constraint(
                coeffs={
                    f"theta[{ln.from_bus}]": susceptance,
                    f"theta[{ln.to_bus}]": -susceptance,
                    _flow_name(ln): -1.0,
                },
                sense="=",
                rhs=0.0,
            )
        )
    return LpModel(
        variables, constraints, _cost_objective(net), metadata={"model_family": "dcopf"}
    )


def build_network_flow(net: Network) -> LpModel:
    """Balance-only relaxation: same P and f variables, no angles."""
    variables = _generation_variables(net) + _flow_variables(net)
    return LpModel(
        variables,
        _balance_constraints(net),
        _cost_objective(net),
        metadata={"model_family": "nf"},
    )


def build_copper_plate(net: Network) -> LpModel:
    """Generation-only relaxation: one aggregate supply-demand balance."""
    variables = _generation_variables(net)
    total = Constraint(
        coeffs={f"P[{b}]": 1.0 for b in net.buses}, sense="=", rhs=net.total_load
    )
    return LpModel(
        variables, [total], _cost_objective(net), metadata={"model_family": "cp"}
    )
