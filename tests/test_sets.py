import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoskit import SublevelSpec, enumerate_vertices
from aoskit.sets import VertexSet, _PointIndex, dedup_and_sort

from conftest import feasible_random_network


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
def clustered_points(draw, dims=st.integers(1, 3), coords=CENTRES):
    d = draw(dims)
    centres = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=4))
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


@functools.cache
def opf_vertices(coordinates: str) -> np.ndarray:
    """Real data with round capacities: the vertex set of conftest seed 1's
    boxed DC-OPF (12 buses) at gap 0.05, or its generation coordinates."""
    _, boxed, base = feasible_random_network(np.random.default_rng(1), 12)
    points = enumerate_vertices(boxed, base.value, SublevelSpec(gap=0.05), start=base).points
    if coordinates == "generation":
        points = points[:, [i for i, v in enumerate(boxed.variables) if v.role == "generation"]]
    return points


@settings(max_examples=300, deadline=None)
@given(clustered_points(), st.sampled_from([0.0, TOL, 2.5 * TOL, 0.5]), st.data())
def test_dedup_matches_the_quadratic_rule(points, tol, data):
    check_dedup(points, tol, data)


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(["all", "generation"]), st.sampled_from([0.0, TOL, 2.5 * TOL, 0.5]), st.data())
def test_dedup_matches_the_quadratic_rule_on_opf_vertices(coordinates, tol, data):
    check_dedup(opf_vertices(coordinates), tol, data)


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


# ---------------------------------------------------------------------------
# the near-point index against a scan of every stored point

INDEX_TOL = 1e-6
CELL = 64.0 * INDEX_TOL  # the index's cell width: its cell edges cut weighted coordinate sums at k * CELL
# coordinates at and around cell edges; the weights sum to 1, so a row whose
# coordinates all equal one of these has its sum there too
NEAR_EDGES = st.builds(
    lambda k, off: k * CELL + off,
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.5, -2.5, 0.3 * 64]).map(lambda f: f * INDEX_TOL),
)
# at tol 0 the cells are 1 wide, with edges at the integers
UNIT_EDGES = st.builds(lambda k, off: k + off, st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1e-6, -1e-6, 0.25]))


@st.composite
def index_rows(draw):
    """(tol, batches): rows near cell edges, some with every coordinate on
    one, some a twin of an earlier row within tol, cut into batches of one
    index call each; last, one row stored alone, then found alone and among
    all rows."""
    tol = draw(st.sampled_from([INDEX_TOL, 0.0]))
    # rows wider than 8 are summed pairwise, which must not depend on the batch
    d = draw(st.sampled_from([1, 2, 3, 4, 9, 40]))
    coords = NEAR_EDGES if tol else UNIT_EDGES
    rows = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=30))
    for v in draw(st.lists(coords, max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), [v] * d)
    for _ in range(draw(st.integers(0, 3))):
        twin = np.array(rows[draw(st.integers(0, len(rows) - 1))])
        # a shift of tol on every coordinate moves the sum by the whole tol
        shift = draw(st.one_of(
            st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0]), min_size=d, max_size=d),
            st.sampled_from([1.0, -1.0]).map(lambda s: [s] * d),
        ))
        rows.insert(draw(st.integers(0, len(rows))), list(twin + np.array(shift) * tol))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    spans = zip([0] + cuts, cuts + [len(rows)])
    batches = [(np.array(rows[a:b], dtype=float).reshape(b - a, d), draw(st.sampled_from(["add", "find", "store"])))
               for a, b in spans]
    last = np.array([rows[draw(st.integers(0, len(rows) - 1))]])
    batches += [(last, "store"), (last, "find"), (np.asfortranarray(np.vstack([rows, last])), "find")]
    return tol, batches


def edge_twins(d, k, shift, tol=INDEX_TOL):
    """A row with every coordinate on the cell edge k * CELL, stored, and its
    twin shifted by ``shift`` on every coordinate, found: the sums lie a
    whole tol apart on either side of the edge, up to rounding."""
    row = np.full((1, d), k * CELL)
    return tol, [(row, "add"), (row + shift, "find")]


@settings(max_examples=300, deadline=None)
@given(index_rows())
# twins whose rounded sums lie just over tol apart across an edge
@example(edge_twins(2, -3, -INDEX_TOL))
@example(edge_twins(40, 1, -INDEX_TOL))
# at tol 0, a wide row stored alone and found in a Fortran-ordered batch,
# whose row sums come out otherwise unless the product is made C-ordered
@example((0.0, [(np.full((1, 40), 3.0), "store"), (np.asfortranarray([[0.0] * 40, [3.0] * 40]), "find")]))
def test_point_index_finds_exactly_the_points_within_tol(drawn):
    tol, batches = drawn
    index = _PointIndex(tol)
    stored: list[np.ndarray] = []
    for rows, op in batches:
        if op == "add":
            index.add(rows)
            stored += list(rows)
            continue
        hits = index.find(rows, store=op == "store")
        assert len(hits) == len(rows)
        for y, hit in zip(rows, hits):
            # rows stored earlier in the same call count
            close = [i for i, q in enumerate(stored) if np.abs(q - y).max() <= tol]
            if close:
                assert hit in close
            elif op == "store":
                assert hit == len(stored)
                stored.append(y)
            else:
                assert hit == -1
    assert [q.tolist() for q in index.points] == [q.tolist() for q in stored]


# ---------------------------------------------------------------------------
# containment against a scan of every point


def scan_subset(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return all(any(np.abs(p - q).max() <= tol for q in b) for p in a)


@settings(max_examples=200, deadline=None)
@given(
    clustered_points(dims=st.integers(1, 4), coords=st.one_of(CENTRES, NEAR_EDGES)),
    st.sampled_from([0.0, TOL, 2.5 * TOL]),
    st.data(),
)
def test_containment_matches_a_scan(points, tol, data):
    names = tuple(f"x{i}" for i in range(points.shape[1]))
    pick = st.lists(st.booleans(), min_size=len(points), max_size=len(points)).map(np.array)
    a, b = points[data.draw(pick)], points[data.draw(pick)]
    # raw sets keep points within tol of each other; from_points drops them
    for va, vb in [
        (VertexSet(a, names), VertexSet(b, names)),
        (VertexSet.from_points(a, names, dedup_tol=tol), VertexSet(b, names)),
        (VertexSet(a, names), VertexSet.from_points(b, names, dedup_tol=tol)),
    ]:
        a_in_b = scan_subset(va.points, vb.points, tol)
        b_in_a = scan_subset(vb.points, va.points, tol)
        assert va.is_subset_of(vb, tol) == a_in_b
        assert vb.is_subset_of(va, tol) == b_in_a
        assert va.same_points(vb, tol) == (a_in_b and b_in_a)


@settings(max_examples=200, deadline=None)
@given(
    clustered_points(dims=st.integers(1, 4), coords=st.one_of(CENTRES, NEAR_EDGES)),
    st.sampled_from([0.0, TOL, 2.5 * TOL]),
    st.data(),
)
def test_contains_point_matches_a_scan(points, tol, data):
    names = tuple(f"x{i}" for i in range(points.shape[1]))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points))), dtype=bool)
    listed = VertexSet(points[keep], names)
    for q in points:
        assert listed.contains_point(q, tol) == scan_subset(q[None], listed.points, tol)


def test_containment_keeps_every_point_of_the_other_set():
    # the other set's two points lie within tol of each other, and only the
    # second matches the query
    tol = 1e-6
    other = VertexSet(np.array([[0.0], [0.9e-6]]), ("x",))
    mine = VertexSet(np.array([[1.8e-6]]), ("x",))
    assert mine.is_subset_of(other, tol)
    assert not mine.same_points(other, tol)


def test_containment_rejects_a_dimension_mismatch():
    plane = VertexSet.from_points([[5.0, 5.0]], ("x", "y"))
    line = VertexSet.from_points([[5.0]], ("x",))
    for check in (
        lambda: plane.same_points(line),
        lambda: line.is_subset_of(plane),
        lambda: plane.is_subset_of(line),
        lambda: plane.contains_point([5.0]),
        lambda: line.contains_point([5.0, 5.0]),
    ):
        with pytest.raises(ValueError, match="point dimensions differ"):
            check()


def test_points_must_be_as_wide_as_the_names():
    for build in (
        lambda: VertexSet.from_json_dict({"names": ["x", "y"], "points": [[1.0]]}),
        lambda: VertexSet.from_points([[1.0]], ("x", "y")),
    ):
        with pytest.raises(ValueError, match="points are 1 wide, but there are 2 names"):
            build()
    with pytest.raises(ValueError, match=r"points must be rows of 2 coordinates, got shape \(2,\)"):
        VertexSet.from_points([1.0, 2.0], ("x", "y"))
    for points in ([1.0, 2.0], [[1.0, None]]):
        with pytest.raises(ValueError, match="points must be rows of 2 coordinates"):
            VertexSet.from_json_dict({"names": ["x", "y"], "points": points})
    with pytest.raises(ValueError, match="a vertex set needs a 'names' list"):
        VertexSet.from_json_dict({"points": [[1.0]]})
