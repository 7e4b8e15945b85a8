"""Exact vertex enumeration of a small sublevel model, in rational arithmetic.

The reference that decides when the walk and the float oracle
(``brute_force_vertices``) disagree: a float oracle must keep points that
violate the model by up to its tolerance, so near a vertex it can report
one that lies just outside. Here every float of the model is converted
exactly to a :class:`fractions.Fraction`, every n-subset of hyperplanes is
intersected by exact Gauss–Jordan elimination, and a point is kept only
when it satisfies every row and bound exactly, the level cut included.

It judges the model as written, floats and all. A level at the float
optimum may cut the exact polytope down to nothing, and so may equality
rows that agree only up to rounding; there the float answers are the
useful ones. It decides where the level has room.

Standard library only, so it shares no code with what it checks. The
subsets are walked depth first, and a plane that is dependent on the
planes chosen before it prunes every subset that holds them all. That
still grows as C(planes, n): up to n = 6 and about 20 planes it takes
seconds.
"""
from __future__ import annotations

import math
from fractions import Fraction


def exact_vertices(sub) -> list[tuple[Fraction, ...]]:
    """The vertices of the polytope of ``sub``, an ``LpModel`` with its level
    cut (``make_sublevel_model``), as sorted tuples of exact coordinates.

    Every independent equality row is a plane of each subset; the other
    planes are the boundaries of the inequality rows and the finite bounds.
    A dependent equality row is checked with the other rows at each point.
    """
    col = {v.name: j for j, v in enumerate(sub.variables)}
    n = len(col)
    rows = []  # (coefficients, sense, rhs), the bounds included
    for c in sub.constraints:
        a = [Fraction(0)] * n
        for name, value in c.coeffs.items():
            a[col[name]] += Fraction(value)
        rows.append((a, c.sense, Fraction(c.rhs)))
    for j, v in enumerate(sub.variables):
        unit = [Fraction(int(i == j)) for i in range(n)]
        for bound, sense in ((v.lower, ">="), (v.upper, "<=")):
            if math.isfinite(bound):
                rows.append((unit, sense, Fraction(bound)))

    echelon: list = []
    for a, sense, r in rows:
        if sense == "=":
            echelon = _with_plane(echelon, a + [r]) or echelon
    pool = [a + [r] for a, sense, r in rows if sense != "="]

    found: set[tuple[Fraction, ...]] = set()
    seen: set[tuple[Fraction, ...]] = set()
    stack = [(echelon, 0)]
    while stack:
        echelon, start = stack.pop()
        if len(echelon) == n:
            x = [Fraction(0)] * n
            for p, row in echelon:
                x[p] = row[n]
            point = tuple(x)
            if point not in seen:
                seen.add(point)
                if all(_holds(a, sense, r, point) for a, sense, r in rows):
                    found.add(point)
            continue
        for i in range(start, len(pool) - (n - len(echelon)) + 1):
            grown = _with_plane(echelon, pool[i])
            if grown:
                stack.append((grown, i + 1))
    return sorted(found)


def _with_plane(echelon: list, plane: list):
    """The reduced echelon form ``echelon``, a list of (pivot column, row)
    with each row 1 on its pivot and 0 on every other pivot, with the
    augmented row ``plane`` added; None when the plane is dependent on it."""
    row = list(plane)
    for p, other in echelon:
        if row[p]:
            f = row[p]
            row = [u - f * w for u, w in zip(row, other)]
    pivot = next((j for j, u in enumerate(row[:-1]) if u), None)
    if pivot is None:
        return None
    f = row[pivot]
    row = [u / f for u in row]
    grown = []
    for p, other in echelon:
        if other[pivot]:
            g = other[pivot]
            other = [u - g * w for u, w in zip(other, row)]
        grown.append((p, other))
    grown.append((pivot, row))
    return grown


def _holds(a: list, sense: str, r: Fraction, x: tuple) -> bool:
    lhs = sum(u * v for u, v in zip(a, x))
    return lhs <= r if sense == "<=" else lhs >= r if sense == ">=" else lhs == r
