"""Translation to bounded-variable equality standard form.

Target shape: minimize c.x subject to A x = b and per-column bounds
l <= x <= u, where infinite bounds are kept (free variables are not split).
The first ``n_original`` columns are the model's variables in declaration
order, so recovering an original point is a plain prefix slice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LpModel


@dataclass
class StandardForm:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    col_names: tuple[str, ...]
    n_original: int
    sense_sign: int  # +1 the model minimized, -1 it maximized
    obj_constant: float
    row_origin: tuple[int, ...]  # source constraint index per row

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def recover(self, x_std: np.ndarray) -> np.ndarray:
        """Map a standard-form point back to the original variable space."""
        return np.asarray(x_std, dtype=float)[: self.n_original].copy()

    def original_value(self, v_min: float) -> float:
        """Original objective value from the minimized standard value c.x."""
        return self.sense_sign * v_min + self.obj_constant

    def max_violation(self, x_std: np.ndarray) -> float:
        x = np.asarray(x_std, dtype=float)
        resid = np.abs(self.A @ x - self.b) if self.m else np.zeros(0)
        below = self.lower - x
        above = x - self.upper
        parts = [p for p in (resid, below, above) if p.size]
        return float(np.max([p.max() for p in parts])) if parts else 0.0

    def is_feasible(self, x_std: np.ndarray, tol: float = 1e-7) -> bool:
        return self.max_violation(x_std) <= tol


def to_standard_form(model: LpModel) -> StandardForm:
    """Rewrite ``model`` as min c.x, A x = b, l <= x <= u.

    Inequalities gain one slack column each (coefficient +1 for <=, -1 for
    >=, bounds [0, inf)); equalities gain none. Maximization is handled by
    negating the objective and recording ``sense_sign = -1``.
    """
    if model.n_variables == 0:
        raise ValueError("cannot build standard form of a model with no variables")

    n0 = model.n_variables
    rows, rhs, senses = model.constraint_matrix()
    m = rows.shape[0]

    n_slack = sum(1 for s in senses if s != "=")
    A = np.zeros((m, n0 + n_slack))
    A[:, :n0] = rows
    b = rhs.astype(float).copy()

    lower, upper = model.bounds_arrays()
    lower = np.concatenate([lower, np.zeros(n_slack)])
    upper = np.concatenate([upper, np.full(n_slack, np.inf)])

    taken = set(model.variable_names)
    col_names = list(model.variable_names)
    j = n0
    for i, sense in enumerate(senses):
        if sense == "=":
            continue
        A[i, j] = 1.0 if sense == "<=" else -1.0
        name = f"_s[{i}]"
        while name in taken:
            name += "_"
        taken.add(name)
        col_names.append(name)
        j += 1

    sense_sign = 1 if model.objective.sense == "min" else -1
    c = np.zeros(n0 + n_slack)
    c[:n0] = sense_sign * model.objective_vector()

    return StandardForm(
        A=A,
        b=b,
        c=c,
        lower=lower,
        upper=upper,
        col_names=tuple(col_names),
        n_original=n0,
        sense_sign=sense_sign,
        obj_constant=model.objective.constant,
        row_origin=tuple(range(m)),
    )


def drop_redundant_equalities(
    sf: StandardForm, tol: float = 1e-9
) -> tuple[StandardForm, list[int], bool]:
    """Remove equality rows that are linear combinations of earlier rows.

    Rows that carry a slack column are trivially independent, so only pure
    equality rows are tested: a row is dependent when its residual against
    the span of the equality rows kept so far is within 1e-7 of its scale
    (the first kept row only needs an entry above ``tol``). One incremental
    pass keeps an orthonormal basis of that span, grown by Gram-Schmidt
    (projected twice, for orthogonality), with each basis row's right-hand
    side carried along. Returns (reduced form, dropped row indices,
    inconsistent flag); inconsistent means some dependent row had a
    conflicting right-hand side, which proves infeasibility.
    """
    m = sf.m
    if m == 0:
        return sf, [], False

    has_slack = np.any(sf.A[:, sf.n_original :] != 0.0, axis=1)
    keep: list[int] = []
    dropped: list[int] = []
    inconsistent = False
    q = np.zeros((m, sf.n_original))  # orthonormal rows spanning the kept equality rows
    q_b = np.zeros(m)  # the right-hand side each q row carries
    k = 0
    for i in range(m):
        if has_slack[i]:
            keep.append(i)
            continue
        resid, resid_b = sf.A[i, : sf.n_original], float(sf.b[i])
        scale = max(1.0, float(np.abs(resid).max()), abs(resid_b))
        if not k:
            dependent = not np.any(np.abs(resid) > tol * scale)
        else:
            for _ in range(2):
                proj = q[:k] @ resid
                resid = resid - proj @ q[:k]
                resid_b -= float(proj @ q_b[:k])
            dependent = np.abs(resid).max() <= 1e-7 * scale
        if dependent:
            dropped.append(i)
            if abs(resid_b) > 1e-7 * scale:
                inconsistent = True
        else:
            keep.append(i)
            norm = float(np.linalg.norm(resid))
            q[k], q_b[k] = resid / norm, resid_b / norm
            k += 1

    if not dropped:
        return sf, [], False

    keep_arr = np.array(sorted(keep), dtype=int)
    # only rows without a slack are dropped, so every column stays
    reduced = StandardForm(
        A=sf.A[keep_arr],
        b=sf.b[keep_arr],
        c=sf.c.copy(),
        lower=sf.lower.copy(),
        upper=sf.upper.copy(),
        col_names=sf.col_names,
        n_original=sf.n_original,
        sense_sign=sf.sense_sign,
        obj_constant=sf.obj_constant,
        row_origin=tuple(sf.row_origin[i] for i in keep_arr),
    )
    return reduced, dropped, inconsistent
