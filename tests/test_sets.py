import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aoskit.sets import dedup_and_sort


def quadratic_dedup(points: np.ndarray, tol: float):
    """The greedy lexicographic rule, scanning every kept point."""
    pts = points + 0.0
    kept, src = [], []
    for i in np.lexsort(pts.T[::-1]):
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


@settings(max_examples=300, deadline=None)
@given(clustered_points(), st.sampled_from([0.0, TOL, 2.5 * TOL, 0.5]))
def test_dedup_matches_the_quadratic_rule(points, tol):
    kept, src = dedup_and_sort(points, tol)
    ref_kept, ref_src = quadratic_dedup(points, tol)
    assert src.tolist() == ref_src
    assert kept.tolist() == [p.tolist() for p in ref_kept]
    assert not np.signbit(kept[kept == 0.0]).any()
