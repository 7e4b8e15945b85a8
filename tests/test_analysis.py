import numpy as np
import pytest

from aoskit import (
    ContainmentReport,
    Objective,
    ProjectionSpec,
    SublevelSpec,
    VertexSet,
    apply_box_bounds,
    build_copper_plate,
    build_dcopf,
    build_network_flow,
    check_containment,
    compare_projected_sets,
    enumerate_vertices,
    is_in_convex_hull,
    project_set,
    rank_alternatives,
    rank_by_scores,
    role_projection,
    solve_model,
)

GAP0 = SublevelSpec(gap=0.0)


@pytest.fixture(scope="module")
def canonical_sets(canonical_net):
    """Solved models and gap-0 vertex sets for the bundled three-bus network."""
    dc = apply_box_bounds(build_dcopf(canonical_net), 1e4)
    nf = build_network_flow(canonical_net)
    cp = build_copper_plate(canonical_net)
    z_star = solve_model(dc).value
    dc_vs = enumerate_vertices(dc, z_star, GAP0)
    nf_vs = enumerate_vertices(nf, solve_model(nf).value, GAP0)
    cp_vs = enumerate_vertices(cp, solve_model(cp).value, GAP0)
    return dc, nf, cp, z_star, dc_vs, nf_vs, cp_vs


# ---------------------------------------------------------------------------
# containment checking


class TestCheckContainment:
    def test_all_three_canonical_pairs_pass(self, canonical_sets):
        dc, nf, cp, z_star, dc_vs, nf_vs, _ = canonical_sets
        reports = [
            check_containment(
                dc_vs, role_projection(dc, "generation", "flow"), nf, z_star, GAP0,
                label="dcopf->nf",
            ),
            check_containment(
                dc_vs, role_projection(dc, "generation"), cp, z_star, GAP0,
                label="dcopf->cp",
            ),
            check_containment(
                nf_vs, role_projection(nf, "generation"), cp, z_star, GAP0,
                label="nf->cp",
            ),
        ]
        combined = ContainmentReport.combine(reports)
        assert combined.passed is True
        assert [p.label for p in combined.pairs] == ["dcopf->nf", "dcopf->cp", "nf->cp"]
        assert all(max(p.violations) <= 1e-6 for p in combined.pairs)

    def test_pair_json_shape(self, canonical_sets):
        dc, _, cp, z_star, dc_vs, _, _ = canonical_sets
        report = check_containment(
            dc_vs, role_projection(dc, "generation"), cp, z_star, GAP0, label="dcopf->cp"
        )
        doc = report.to_json_dict()
        assert doc["passed"] is True
        (pair,) = doc["pairs"]
        assert pair["label"] == "dcopf->cp"
        assert pair["tau"] == pytest.approx(z_star)
        assert pair["names"] == ["P[1]", "P[2]", "P[3]"]
        assert all(entry["contained"] for entry in pair["points"])

    def test_default_label_names_the_relaxed_family(self, canonical_sets):
        dc, _, cp, z_star, dc_vs, _, _ = canonical_sets
        report = check_containment(dc_vs, role_projection(dc, "generation"), cp, z_star, GAP0)
        assert report.pairs[0].label == "->cp"

    def test_injected_bad_point_fails_and_names_the_constraint(self, canonical_sets):
        dc, _, cp, z_star, dc_vs, _, _ = canonical_sets
        bad = np.zeros(dc_vs.dimension)  # zero generation cannot serve the load
        tainted = VertexSet.from_points(
            np.vstack([dc_vs.points, bad]), dc_vs.names
        )
        report = check_containment(
            tainted, role_projection(dc, "generation"), cp, z_star, GAP0, label="dcopf->cp"
        )
        pair = report.pairs[0]
        assert report.passed is False
        bad_entries = [
            (v, w) for v, w in zip(pair.violations, pair.worst_constraints) if v > 1e-6
        ]
        assert len(bad_entries) == 1
        violation, worst = bad_entries[0]
        assert violation == pytest.approx(100.0, abs=1e-9)  # balance shortfall
        assert worst == "c[0]"

    def test_projection_must_match_relaxed_variables(self, canonical_sets):
        _, _, cp, z_star, dc_vs, _, _ = canonical_sets
        with pytest.raises(ValueError, match="do not match"):
            check_containment(dc_vs, ProjectionSpec(k=2), cp, z_star, GAP0)

    def test_combine_fails_when_any_pair_fails(self, canonical_sets):
        dc, _, cp, z_star, dc_vs, _, _ = canonical_sets
        good = check_containment(dc_vs, role_projection(dc, "generation"), cp, z_star, GAP0)
        tainted = VertexSet.from_points(
            np.vstack([dc_vs.points, np.zeros(dc_vs.dimension)]), dc_vs.names
        )
        bad = check_containment(tainted, role_projection(dc, "generation"), cp, z_star, GAP0)
        combined = ContainmentReport.combine([good, bad])
        assert len(combined.pairs) == 2
        assert combined.passed is False


# ---------------------------------------------------------------------------
# convex hull membership


class TestConvexHull:
    GENS = [[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]]

    def test_generators_belong_to_their_own_hull(self):
        for g in self.GENS:
            assert is_in_convex_hull(g, self.GENS)

    def test_midpoint_of_generation_extremes(self):
        assert is_in_convex_hull([50.0, 50.0, 0.0], self.GENS)

    def test_points_off_the_segment_are_excluded(self):
        assert not is_in_convex_hull([60.0, 60.0, 0.0], self.GENS)
        assert not is_in_convex_hull([50.0, 50.0, 10.0], self.GENS)

    def test_generator_order_is_irrelevant(self):
        q = [25.0, 75.0, 0.0]
        assert is_in_convex_hull(q, self.GENS) == is_in_convex_hull(q, self.GENS[::-1])

    def test_single_generator_hull_is_that_point(self):
        assert is_in_convex_hull([1.0, 2.0], [[1.0, 2.0]])
        assert not is_in_convex_hull([1.0, 2.1], [[1.0, 2.0]])

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            is_in_convex_hull([0.0], [])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            is_in_convex_hull([0.0, 0.0], [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# ranking by a secondary criterion


class TestRankAlternatives:
    def test_perturbed_triangle_best_and_worst(self, triangle_perturbed):
        z_star = solve_model(triangle_perturbed).value
        vs = enumerate_vertices(triangle_perturbed, z_star, SublevelSpec(gap=0.01))
        ranked = rank_alternatives(vs, Objective("max", {"x2": 1.0}))
        best_point, best_value = ranked.best
        worst_point, worst_value = ranked.worst
        assert best_value == pytest.approx(100.0, abs=1e-6)
        np.testing.assert_allclose(best_point, [99.0, 100.0], atol=1e-6)
        assert worst_value == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(worst_point, [100.0, 1.0], atol=1e-6)

    def test_positive_scaling_preserves_order_and_flags(self, triangle_perturbed):
        z_star = solve_model(triangle_perturbed).value
        vs = enumerate_vertices(triangle_perturbed, z_star, SublevelSpec(gap=0.01))
        base = rank_alternatives(vs, Objective("max", {"x2": 1.0}))
        scaled = rank_alternatives(vs, Objective("max", {"x2": 7.5}))
        np.testing.assert_allclose(scaled.points, base.points)
        np.testing.assert_allclose(scaled.values, 7.5 * base.values)
        base_doc, scaled_doc = base.to_json_dict(), scaled.to_json_dict()
        for be, se in zip(base_doc["entries"], scaled_doc["entries"]):
            assert (be["best"], be["worst"]) == (se["best"], se["worst"])

    def test_ties_break_lexicographically_by_point(self):
        vs = VertexSet.from_points([[1.0, 0.0], [0.0, 1.0]], ("x", "y"))
        ranked = rank_alternatives(vs, Objective("min", {"x": 1.0, "y": 1.0}))
        np.testing.assert_allclose(ranked.points, [[0.0, 1.0], [1.0, 0.0]])
        # values apart by rounding noise tie too, so the set's order holds
        # whichever way the noise falls
        for noise in (2e-13, -2e-13):
            vs = VertexSet.from_points([[1.0, 0.0], [0.0, 1.0 + noise]], ("x", "y"))
            ranked = rank_alternatives(vs, Objective("min", {"x": 1.0, "y": 1.0}))
            assert ranked.points.tolist() == [[0.0, 1.0 + noise], [1.0, 0.0]]

    def test_unknown_variable_rejected(self):
        vs = VertexSet.from_points([[0.0]], ("x",))
        with pytest.raises(ValueError, match="unknown variables"):
            rank_alternatives(vs, Objective("min", {"zz": 1.0}))

    def test_empty_set_ranks_to_empty(self):
        vs = VertexSet.from_points([], ("x",))
        ranked = rank_alternatives(vs, Objective("min", {"x": 1.0}))
        assert len(ranked) == 0
        assert ranked.best is None
        assert ranked.worst is None
        assert ranked.to_json_dict()["entries"] == []

    def test_json_records_method_and_secondary(self):
        vs = VertexSet.from_points([[2.0]], ("x",))
        doc = rank_alternatives(vs, Objective("max", {"x": 3.0}, constant=1.0)).to_json_dict()
        assert doc["method"] == "linear"
        assert doc["secondary"] == {"sense": "max", "coeffs": {"x": 3.0}, "constant": 1.0}
        assert doc["entries"][0]["value"] == pytest.approx(7.0)


class TestRankByScores:
    def test_max_and_min_senses_reverse_the_order(self):
        vs = VertexSet.from_points([[0.0], [1.0]], ("x",))
        by_max = rank_by_scores(vs, [5.0, 2.0], sense="max")
        by_min = rank_by_scores(vs, [5.0, 2.0], sense="min")
        np.testing.assert_allclose(by_max.points, [[0.0], [1.0]])
        np.testing.assert_allclose(by_min.points, [[1.0], [0.0]])
        assert by_max.method == "scores"

    def test_wrong_score_count_rejected(self):
        vs = VertexSet.from_points([[0.0], [1.0]], ("x",))
        with pytest.raises(ValueError, match="expected 2 scores"):
            rank_by_scores(vs, [1.0])

    def test_bad_sense_rejected(self):
        vs = VertexSet.from_points([[0.0]], ("x",))
        with pytest.raises(ValueError, match="sense"):
            rank_by_scores(vs, [1.0], sense="upward")


# ---------------------------------------------------------------------------
# set comparison


class TestCompareProjectedSets:
    @staticmethod
    def vs(points):
        pts = np.asarray(points, dtype=float)
        names = tuple(f"x{i}" for i in range(pts.shape[1]))
        return VertexSet.from_points(pts, names)

    def test_equal_is_symmetric(self):
        a = self.vs([[0.0, 0.0], [1.0, 0.0]])
        b = self.vs([[1.0, 0.0], [0.0, 0.0]])
        assert compare_projected_sets(a, b) == "equal"
        assert compare_projected_sets(b, a) == "equal"

    def test_strict_subset_directions(self):
        small = self.vs([[0.0, 0.0]])
        big = self.vs([[0.0, 0.0], [1.0, 0.0]])
        assert compare_projected_sets(small, big) == "a_subset_of_b"
        assert compare_projected_sets(big, small) == "b_subset_of_a"

    def test_subset_relation_is_transitive(self):
        a = self.vs([[0.0, 0.0]])
        b = self.vs([[0.0, 0.0], [1.0, 0.0]])
        c = self.vs([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert compare_projected_sets(a, b) == "a_subset_of_b"
        assert compare_projected_sets(b, c) == "a_subset_of_b"
        assert compare_projected_sets(a, c) == "a_subset_of_b"

    def test_incomparable_sets(self):
        a = self.vs([[0.0, 0.0], [3.0, 3.0]])
        b = self.vs([[1.0, 1.0], [3.0, 3.0]])
        assert compare_projected_sets(a, b) == "incomparable"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            compare_projected_sets(self.vs([[0.0]]), self.vs([[0.0, 0.0]]))

    def test_canonical_nf_and_cp_generation_sets_agree(self, canonical_sets):
        nf = canonical_sets[1]
        nf_vs, cp_vs = canonical_sets[5], canonical_sets[6]
        nf_gen = project_set(nf_vs, role_projection(nf, "generation"))
        assert compare_projected_sets(nf_gen, cp_vs) == "equal"
