import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aoskit.sets import dedup_and_sort


def quadratic_dedup(points: np.ndarray, tol: float):
    """The greedy rule in canonical order, scanning every kept point.

    Canonical order: lexicographic on the coordinates rounded to multiples
    of 1e-9 * max(1, max |x|), ties broken by the raw coordinates.
    """
    pts = points + 0.0
    grid = 1e-9 * max(1.0, float(np.abs(pts).max()))
    snapped = np.round(pts / grid) + 0.0
    order = sorted(range(len(pts)), key=lambda i: (tuple(snapped[i]), tuple(pts[i])))
    kept, src = [], []
    for i in order:
        if all(np.abs(pts[i] - q).max() > tol for q in kept):
            kept.append(pts[i])
            src.append(int(i))
    return kept, src


TOL = 1e-6
CENTRES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e4, -1e4 + 0.5])
# offsets around and across the tolerance, exact ties and signed zeros
OFFSETS = st.sampled_from(
    [0.0, -0.0, 0.4 * TOL, -0.4 * TOL, TOL, -TOL, 1.0000001 * TOL, -1.5 * TOL, 2 * TOL, -2 * TOL, 3 * TOL]
)
# rounding noise: far below the order grid, so it must never decide the order
NOISE = st.sampled_from([0.0, 1e-15, -1e-15, 2e-13, -2e-13, 1.8e-12, -1.8e-12])


@st.composite
def clustered_points(draw):
    d = draw(st.integers(1, 3))
    centres = draw(st.lists(st.lists(CENTRES, min_size=d, max_size=d), min_size=1, max_size=4))
    n = draw(st.integers(1, 25))
    rows = []
    for _ in range(n):
        c = draw(st.sampled_from(centres))
        rows.append([a + draw(OFFSETS) for a in c])
    return np.array(rows, dtype=float)


@st.composite
def noisy_leading_points(draw):
    """Leading coordinates constant up to rounding noise, as the generation
    of a fixed or tied generator is in a DC-OPF vertex set; the trailing
    coordinates decide the order."""
    d = draw(st.integers(2, 4))
    lead = draw(st.integers(1, d - 1))
    head = draw(st.lists(CENTRES, min_size=lead, max_size=lead))
    tails = draw(st.lists(st.lists(CENTRES, min_size=d - lead, max_size=d - lead), min_size=1, max_size=5))
    n = draw(st.integers(1, 25))
    rows = []
    for _ in range(n):
        tail = draw(st.sampled_from(tails))
        rows.append([a * (1.0 + draw(NOISE)) + draw(NOISE) for a in head] + [a + draw(OFFSETS) for a in tail])
    return np.array(rows, dtype=float), lead


def check_dedup(points, tol, data):
    kept, src = dedup_and_sort(points, tol)
    ref_kept, ref_src = quadratic_dedup(points, tol)
    assert src.tolist() == ref_src
    assert kept.tolist() == [p.tolist() for p in ref_kept]
    assert not np.signbit(kept[kept == 0.0]).any()
    # the order is a function of the set: the input order does not matter
    perm = np.array(data.draw(st.permutations(range(len(points)))), dtype=int)
    assert dedup_and_sort(points[perm], tol)[0].tolist() == kept.tolist()


@settings(max_examples=300, deadline=None)
@given(clustered_points(), st.sampled_from([0.0, TOL, 2.5 * TOL, 0.5]), st.data())
def test_dedup_matches_the_quadratic_rule(points, tol, data):
    check_dedup(points, tol, data)


@settings(max_examples=200, deadline=None)
@given(noisy_leading_points(), st.sampled_from([0.0, TOL, 2.5 * TOL]), st.data())
def test_noise_in_leading_coordinates_does_not_decide_the_order(drawn, tol, data):
    points, lead = drawn
    check_dedup(points, tol, data)
    # points that differ only by noise in the leading coordinates are
    # ordered by their trailing ones, on the order grid
    kept, _ = dedup_and_sort(points, tol)
    scale = max(1.0, float(np.abs(points).max()))
    tails = [tuple(t) for t in np.round(kept[:, lead:] / (1e-9 * scale))]
    assert tails == sorted(tails)
