"""Named-variable linear program container and its JSON form.

The model keeps variables in declaration order; that order is observable
and downstream projection operators depend on it.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

ROLES = ("generation", "flow", "angle", "generic")
SENSES = ("<=", "=", ">=")
OBJ_SENSES = ("min", "max")

LP_SCHEMA = "aos-lp/1"


def _json_object(value, what: str) -> Mapping:
    """``value``, which a document must give as a JSON object."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Variable:
    """A named decision variable with (possibly infinite) bounds and a role tag."""

    name: str
    lower: float = -math.inf
    upper: float = math.inf
    role: str = "generic"

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError(f"variable {self.name!r} has NaN bound")
        if self.lower > self.upper:
            raise ValueError(
                f"variable {self.name!r} has lower bound {self.lower} > upper bound {self.upper}"
            )

    @property
    def is_fixed(self) -> bool:
        return self.lower == self.upper


@dataclass(frozen=True)
class Constraint:
    """Sparse linear constraint ``sum(coeffs[v] * v) <sense> rhs``."""

    coeffs: Mapping[str, float]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown constraint sense {self.sense!r}; expected one of {SENSES}")
        if math.isnan(self.rhs):
            raise ValueError("constraint rhs is NaN")
        if not self.coeffs:
            raise ValueError("constraint has no coefficients")
        object.__setattr__(self, "coeffs", dict(self.coeffs))


@dataclass(frozen=True)
class Objective:
    """Sparse linear objective ``<sense> sum(coeffs[v] * v) + constant``."""

    sense: str
    coeffs: Mapping[str, float]
    constant: float = 0.0

    def __post_init__(self):
        if self.sense not in OBJ_SENSES:
            raise ValueError(f"unknown objective sense {self.sense!r}; expected min or max")
        object.__setattr__(self, "coeffs", dict(self.coeffs))


@dataclass
class LpModel:
    """A linear program over named, ordered variables.

    Invariants enforced at construction: variable names are unique, every
    coefficient references a declared variable, and lower <= upper holds for
    every variable. Instances are treated as immutable; operations that
    "modify" a model return a new one.
    """

    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    objective: Objective
    metadata: dict = field(default_factory=dict)

    def __init__(
        self,
        variables: Iterable[Variable],
        constraints: Iterable[Constraint] = (),
        objective: Objective | None = None,
        metadata: dict | None = None,
    ):
        self.variables = tuple(variables)
        self.constraints = tuple(constraints)
        self.objective = objective if objective is not None else Objective("min", {})
        self.metadata = dict(metadata) if metadata else {}
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        self._validate()

    def _validate(self):
        if len(self._index) != len(self.variables):
            seen = set()
            for v in self.variables:
                if v.name in seen:
                    raise ValueError(f"duplicate variable name {v.name!r}")
                seen.add(v.name)
        for i, con in enumerate(self.constraints):
            for name in con.coeffs:
                if name not in self._index:
                    raise ValueError(f"constraint c[{i}] references unknown variable {name!r}")
        for name in self.objective.coeffs:
            if name not in self._index:
                raise ValueError(f"objective references unknown variable {name!r}")

    # -- introspection ----------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def names_with_role(self, role: str) -> tuple[str, ...]:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        return tuple(v.name for v in self.variables if v.role == role)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lower = np.array([v.lower for v in self.variables], dtype=float)
        upper = np.array([v.upper for v in self.variables], dtype=float)
        return lower, upper

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_variables)
        for name, coef in self.objective.coeffs.items():
            c[self._index[name]] = coef
        return c

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Dense (rows, rhs, senses) for all constraints, in declaration order."""
        m = len(self.constraints)
        rows = np.zeros((m, self.n_variables))
        rhs = np.zeros(m)
        senses = []
        for i, con in enumerate(self.constraints):
            for name, coef in con.coeffs.items():
                rows[i, self._index[name]] = coef
            rhs[i] = con.rhs
            senses.append(con.sense)
        return rows, rhs, tuple(senses)

    def evaluate_objective(self, x: np.ndarray) -> float:
        return float(self._checks["c"] @ np.asarray(x, dtype=float) + self.objective.constant)

    def constraint_labels(self) -> list[str]:
        """Stable labels for constraints and finite bounds, used in reports."""
        labels = [f"c[{i}]" for i in range(len(self.constraints))]
        for v in self.variables:
            if math.isfinite(v.lower):
                labels.append(f"lb[{v.name}]")
            if math.isfinite(v.upper):
                labels.append(f"ub[{v.name}]")
        return labels

    def violations(self, x: np.ndarray) -> np.ndarray:
        """Nonnegative violation of every constraint and finite bound at x,
        a point or a stack of points with one point per row.

        Order matches :meth:`constraint_labels`, along the last axis.
        Equalities contribute the absolute residual, inequalities the
        one-sided excess.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_variables:
            raise ValueError(f"point has dimension {x.shape}, model has {self.n_variables}")
        k = self._checks
        # one point takes a matrix-vector product, a stack a matrix product;
        # their sums may differ in the last bits
        rows = k["sign"] * (x @ k["rows"].T - k["rhs"])
        np.abs(rows, out=rows, where=k["eq"])
        bounds = k["bound_sign"] * (x.take(k["bound_col"], axis=-1) - k["bound"])
        return np.maximum(np.concatenate([rows, bounds], axis=-1), 0.0)

    @cached_property
    def _checks(self) -> dict:
        """The arrays behind :meth:`violations`, :meth:`evaluate_objective`
        and the oracle's hyperplanes (those of :meth:`constraint_matrix`),
        built once: the model is immutable. A row's violation is its sign
        times (lhs - rhs), +1 for "<=" and -1 for ">=" (absolute for "=");
        a finite bound's is its sign times (x[col] - bound), -1 for a lower
        bound and +1 for an upper one, in :meth:`constraint_labels` order."""
        rows, rhs, senses = self.constraint_matrix()
        bound_col, bound_sign, bound = [], [], []
        for j, v in enumerate(self.variables):
            for value, sign in ((v.lower, -1.0), (v.upper, 1.0)):
                if math.isfinite(value):
                    bound_col.append(j)
                    bound_sign.append(sign)
                    bound.append(value)
        return {
            "rows": rows,
            "rhs": rhs,
            "senses": senses,
            "sign": np.array([-1.0 if s == ">=" else 1.0 for s in senses]),
            "eq": np.array([s == "=" for s in senses], dtype=bool),
            "bound_col": np.array(bound_col, dtype=int),
            "bound_sign": np.array(bound_sign),
            "bound": np.array(bound, dtype=float),
            "c": self.objective_vector(),
        }

    def max_violation(self, x: np.ndarray) -> float:
        v = self.violations(x)
        return float(v.max()) if v.size else 0.0

    def is_feasible(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        return self.max_violation(x) <= tol

    # -- serialization -----------------------------------------------------

    def to_json_dict(self, include_metadata: bool = True) -> dict:
        doc = {
            "schema": LP_SCHEMA,
            "variables": [
                {
                    "name": v.name,
                    "lower": None if math.isinf(v.lower) else v.lower,
                    "upper": None if math.isinf(v.upper) else v.upper,
                    "role": v.role,
                }
                for v in self.variables
            ],
            "constraints": [
                {
                    "coeffs": {n: con.coeffs[n] for n in self.variable_names if n in con.coeffs},
                    "sense": con.sense,
                    "rhs": con.rhs,
                }
                for con in self.constraints
            ],
            "objective": {
                "sense": self.objective.sense,
                "coeffs": {
                    n: self.objective.coeffs[n]
                    for n in self.variable_names
                    if n in self.objective.coeffs
                },
                "constant": self.objective.constant,
            },
        }
        if include_metadata and self.metadata:
            doc["metadata"] = self.metadata
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "LpModel":
        if not isinstance(doc, Mapping):
            raise ValueError("LP document must be a JSON object")
        schema = doc.get("schema", LP_SCHEMA)
        if schema != LP_SCHEMA:
            raise ValueError(f"unsupported LP schema {schema!r}; expected {LP_SCHEMA!r}")
        try:
            variables = [
                Variable(
                    name=str(v["name"]),
                    lower=-math.inf if v.get("lower") is None else float(v["lower"]),
                    upper=math.inf if v.get("upper") is None else float(v["upper"]),
                    role=v.get("role", "generic"),
                )
                for v in doc["variables"]
            ]
            constraints = [
                Constraint(
                    coeffs={str(k): float(c) for k, c in _json_object(con["coeffs"], "constraint coeffs").items()},
                    sense=str(con["sense"]),
                    rhs=float(con["rhs"]),
                )
                for con in doc.get("constraints", [])
            ]
            obj = doc.get("objective", {"sense": "min", "coeffs": {}})
            objective = Objective(
                sense=str(obj["sense"]),
                coeffs={str(k): float(c) for k, c in _json_object(obj.get("coeffs", {}), "objective coeffs").items()},
                constant=float(obj.get("constant", 0.0)),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed LP document: {exc}") from exc
        metadata = _json_object(doc.get("metadata") or {}, "metadata")
        return cls(variables, constraints, objective, metadata=dict(metadata))

    @classmethod
    def from_json(cls, text: str | bytes) -> "LpModel":
        return cls.from_json_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Short content hash of the mathematical model (metadata excluded)."""
        canonical = json.dumps(
            self.to_json_dict(include_metadata=False),
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def with_constraint(self, con: Constraint, note: Mapping | None = None) -> "LpModel":
        """New model with one appended constraint; variables and objective unchanged."""
        meta = dict(self.metadata)
        if note:
            meta.update(note)
        return LpModel(self.variables, self.constraints + (con,), self.objective, metadata=meta)
