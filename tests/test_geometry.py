import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (brute_overlaps, brute_segment_crossings, brute_separation, gauss_linking,
                     outcome, point_segment_distance, projected_alone, segment_distance)

from pbcjones import geometry, jones3d
from pbcjones.diagram import Diagram
from pbcjones.errors import NonGenericDirectionError, PbcJonesError
from pbcjones.fixtures import hopf_link, open_trefoil, ring, trefoil, unlinked_circles
from pbcjones.geometry import (Curve, is_generic, perturbed_direction, project, project_many,
                               project_translates, projection_frame, rotate_about,
                               sample_directions)
from pbcjones.jones3d import project_generic


def flatten(curves, xi):
    """Shared-vertex segment table in the projection plane, mirroring the
    adjacency conventions of the production projection."""
    u, v, xi = projection_frame(xi)
    pts, segs, depth = [], [], []
    for c in curves:
        base = len(pts)
        flat = c.vertices @ np.column_stack([u, v])
        pts.extend(flat)
        depth.extend(c.vertices @ xi)
        n = len(flat)
        if c.closed:
            segs.extend((base + i, base + (i + 1) % n) for i in range(n))
        else:
            segs.extend((base + i, base + i + 1) for i in range(n - 1))
    return np.asarray(pts), segs, np.asarray(depth)


def brute_writhe(curves, xi):
    flat, segs, depth = flatten(curves, xi)
    total = 0
    for i, j in brute_segment_crossings(flat, segs):
        a0, a1 = segs[i]
        b0, b1 = segs[j]
        p, r = flat[a0], flat[a1] - flat[a0]
        q, s = flat[b0], flat[b1] - flat[b0]
        denom = r[0] * s[1] - r[1] * s[0]
        t = ((q - p)[0] * s[1] - (q - p)[1] * s[0]) / denom
        w = ((q - p)[0] * r[1] - (q - p)[1] * r[0]) / denom
        za = depth[a0] * (1 - t) + depth[a1] * t
        zb = depth[b0] * (1 - w) + depth[b1] * w
        over_first = za > zb
        d_over, d_under = (r, s) if over_first else (s, r)
        cross = d_over[0] * d_under[1] - d_over[1] * d_under[0]
        total += 1 if cross > 0 else -1
    return total


class TestCurve:
    def test_shape_validation(self):
        with pytest.raises(PbcJonesError, match="shape"):
            Curve("c", [[0.0, 0.0], [1.0, 0.0]], False)

    def test_finite_validation(self):
        with pytest.raises(PbcJonesError, match="finite"):
            Curve("c", [[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]], False)

    def test_minimum_vertex_counts(self):
        with pytest.raises(PbcJonesError, match="at least 3"):
            Curve("c", [[0, 0, 0], [1, 0, 0]], True)
        with pytest.raises(PbcJonesError, match="at least 2"):
            Curve("c", [[0, 0, 0]], False)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(PbcJonesError, match="repeated"):
            Curve("c", [[0, 0, 0], [0, 0, 0], [1, 0, 0]], False)

    @pytest.mark.parametrize("closed", [False, True])
    def test_overflowing_segment_rejected(self, closed):
        with pytest.raises(PbcJonesError, match="segment lengths overflow"):
            Curve("c", [[1e308, 0, 0], [1, 1, 0], [-1e308, 0, 0]][:3 if closed else 2], closed)

    def test_closed_must_not_repeat_first(self):
        with pytest.raises(PbcJonesError, match="repeat the first"):
            Curve("c", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]], True)

    def test_segment_count(self):
        tri = Curve("t", [[0, 0, 0], [1, 0, 0], [0, 1, 0]], True)
        arc = Curve("a", [[0, 0, 0], [1, 0, 0], [0, 1, 0]], False)
        assert tri.segment_count == 3
        assert arc.segment_count == 2

    def test_reversed_and_translated(self):
        arc = Curve("a", [[0, 0, 0], [1, 0, 0]], False)
        assert np.allclose(arc.reversed().vertices[0], [1, 0, 0])
        assert np.allclose(arc.translated([0, 0, 2]).vertices[:, 2], 2.0)

    @pytest.mark.parametrize("closed", ["no", 1, None])
    def test_closed_flag_must_be_a_bool(self, closed):
        with pytest.raises(PbcJonesError, match="closed must be a bool"):
            Curve("t", trefoil().vertices, closed)

    def test_numpy_bool_closed_flag_accepted(self):
        curve = Curve("t", trefoil().vertices, np.bool_(True))
        assert curve.closed is True
        assert curve.segment_count == trefoil().segment_count


class TestDirections:
    def test_unit_norm_both_modes(self):
        for mode in ("fibonacci", "random"):
            d = sample_directions(64, mode, seed=1)
            assert np.allclose(np.linalg.norm(d, axis=1), 1.0)

    def test_random_is_seed_deterministic(self):
        assert np.array_equal(sample_directions(10, "random", 4),
                              sample_directions(10, "random", 4))
        assert not np.array_equal(sample_directions(10, "random", 4),
                                  sample_directions(10, "random", 5))

    def test_fibonacci_spread(self):
        d = sample_directions(200, "fibonacci")
        dots = d @ d.T
        np.fill_diagonal(dots, -1.0)
        # nearest neighbors stay separated by a lattice-like angle
        assert math.degrees(math.acos(dots.max())) > 5.0

    def test_rejects_bad_args(self):
        with pytest.raises(PbcJonesError):
            sample_directions(0)
        with pytest.raises(PbcJonesError):
            sample_directions(5, "spiral")

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_count_must_be_an_integer(self, n):
        with pytest.raises(PbcJonesError, match="direction count must be an integer"):
            sample_directions(n)


class TestFixtureArguments:
    def test_unknown_ring_plane(self):
        with pytest.raises(PbcJonesError, match="unknown plane 'yz'"):
            ring("r", plane="yz")

    def test_open_trefoil_gap_too_large(self):
        with pytest.raises(PbcJonesError, match="gap too large for this curve"):
            open_trefoil(gap=100.0)


class TestFrames:
    @pytest.mark.parametrize("seed", range(5))
    def test_frame_is_right_handed_orthonormal(self, seed):
        xi = sample_directions(1, "random", seed)[0]
        u, v, w = projection_frame(xi)
        assert np.allclose([np.dot(u, v), np.dot(u, w), np.dot(v, w)], 0.0, atol=1e-12)
        assert np.allclose(np.cross(u, v), w, atol=1e-12)

    def test_rotate_about_preserves_axis(self):
        axis = np.array([0.0, 0.0, 1.0])
        out = rotate_about([1.0, 0.0, 0.0], axis, math.pi / 2)
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(rotate_about(axis, axis, 1.23), axis, atol=1e-12)

    def test_perturbation_grows_and_stays_unit(self):
        xi = np.array([0.0, 0.0, 1.0])
        tilts = []
        for attempt in (1, 10, 20, 40):
            p = perturbed_direction(xi, attempt)
            assert abs(np.linalg.norm(p) - 1.0) < 1e-12
            tilts.append(math.acos(min(1.0, float(np.dot(p, xi)))))
        assert tilts == sorted(tilts)
        assert tilts[0] < 1e-5 and tilts[-1] > 1e-3


class TestProjection:
    CASES = [
        ("hopf", lambda: list(hopf_link())),
        ("trefoil", lambda: [trefoil()]),
        ("unlink", lambda: list(unlinked_circles(3))),
    ]

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", range(4))
    def test_crossing_count_matches_brute_scan(self, name, make, seed):
        curves = make()
        xi = sample_directions(1, "random", seed)[0]
        diagram, xi_used, _ = project_generic(curves, xi, 1e-9)
        flat, segs, _ = flatten(curves, xi_used)
        assert len(diagram.crossings) == len(brute_segment_crossings(flat, segs))

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", range(4))
    def test_writhe_matches_brute_signs(self, name, make, seed):
        curves = make()
        xi = sample_directions(1, "random", seed)[0]
        diagram, xi_used, _ = project_generic(curves, xi, 1e-9)
        assert diagram.writhe == brute_writhe(curves, xi_used)

    @pytest.mark.parametrize("seed", range(4))
    def test_projected_linking_matches_gauss_integral(self, seed):
        a, b = hopf_link()
        xi = sample_directions(1, "random", seed)[0]
        diagram, _, _ = project_generic([a, b], xi, 1e-9)
        lk = gauss_linking(a.vertices, b.vertices)
        assert diagram.inter_linking(["a"], ["b"]) == round(lk)

    def test_over_strand_is_nearer_the_viewer(self):
        # two straight strands crossing at right angles, b on top along +z
        a = Curve("a", [[-1, 0, 0], [1, 0, 0]], False)
        b = Curve("b", [[0, -1, 1], [0, 1, 1]], False)
        d = project([a, b], [0.0, 0.0, 1.0], 1e-9)
        assert len(d.crossings) == 1
        owner = d.passage_owner()
        assert owner[("c0", "o")] == "b"
        assert owner[("c0", "u")] == "a"

    def test_duplicate_ids_rejected(self):
        a = Curve("x", [[0, 0, 0], [1, 0, 0]], False)
        b = Curve("x", [[0, 1, 0], [1, 1, 0]], False)
        with pytest.raises(PbcJonesError, match="unique"):
            project([a, b], [0, 0, 1])

    @pytest.mark.parametrize("call", [
        lambda: project([], [0, 0, 1]),
        lambda: project_many([], [[0, 0, 1]]),
        lambda: project_translates([], [], [[1, 0, 0]], [0, 0, 1]),
        lambda: project_generic([], [0, 0, 1], 1e-9),
    ], ids=["project", "project_many", "project_translates", "project_generic"])
    def test_no_curves_rejected(self, call):
        with pytest.raises(PbcJonesError, match="no curves to project"):
            call()

    @pytest.mark.parametrize("xi", [[0, 0, 0], [math.nan, 1, 1], [1, math.inf, 0]])
    def test_unusable_direction_rejected(self, xi):
        with pytest.raises(PbcJonesError, match="direction must be finite and nonzero"):
            project([trefoil()], xi)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_unusable_tolerance_rejected(self, tol):
        with pytest.raises(PbcJonesError, match="tolerance must be finite and at least 0"):
            project([trefoil()], [0.2, 0.1, 0.95], tol)

    @pytest.mark.parametrize("tol", [True, "1e-9", None])
    def test_non_real_tolerance_rejected(self, tol):
        message = f"^tolerance must be a real number, got {re.escape(repr(tol))}$"
        with pytest.raises(PbcJonesError, match=message):
            project_many([trefoil()], [[0, 0, 1]], tol)


class TestGenericity:
    def test_edge_on_circle_folds_back(self):
        flat = hopf_link()[0]  # lies in the z = 0 plane
        with pytest.raises(NonGenericDirectionError):
            project([flat], [1.0, 0.0, 0.0])
        assert not is_generic([flat], [1.0, 0.0, 0.0])

    def test_crossing_at_shared_depth_rejected(self):
        a = Curve("a", [[-1, 0, 0], [1, 0, 0]], False)
        b = Curve("b", [[0, -1, 0], [0, 1, 0]], False)
        with pytest.raises(NonGenericDirectionError):
            project([a, b], [0.0, 0.0, 1.0])

    def test_crossing_under_a_vertex_rejected(self):
        a = Curve("a", [[-1, 0, 0], [0, 0, 0], [1, 1, 0]], False)
        b = Curve("b", [[0, -1, 1], [0, 1, 1]], False)
        with pytest.raises(NonGenericDirectionError):
            project([a, b], [0.0, 0.0, 1.0])

    def test_project_generic_escapes_bad_direction(self):
        flat = hopf_link()[0]
        diagram, used, tries = project_generic([flat], [1.0, 0.0, 0.0], 1e-9)
        assert tries >= 1
        assert len(diagram.crossings) == 0

    def test_escape_is_deterministic(self):
        curves = list(hopf_link())
        _, xi1, t1 = project_generic(curves, [1.0, 0.0, 0.0], 1e-9)
        _, xi2, t2 = project_generic(curves, [1.0, 0.0, 0.0], 1e-9)
        assert t1 == t2
        assert np.array_equal(xi1, xi2)

    def test_exhausted_retries_raise(self, monkeypatch):
        flat = hopf_link()[0]
        monkeypatch.setattr(jones3d, "GENERICITY_RETRIES", 0)
        with pytest.raises(NonGenericDirectionError):
            project_generic([flat], [1.0, 0.0, 0.0], 1e-9)


class TestParallelSegments:
    """Parallel projected segments are never crossings; within tol they touch."""

    @staticmethod
    def pair(offset):
        # along +z the projection frame is u = x, v = y, exactly
        a = Curve("a", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], False)
        b = Curve("b", [[0.5, offset, 1.0], [1.5, offset, 1.0]], False)
        return [a, b]

    @pytest.mark.parametrize("offset", [0.0, 5e-10])
    def test_parallel_within_tol_is_tangency(self, offset):
        with pytest.raises(NonGenericDirectionError) as err:
            project(self.pair(offset), [0.0, 0.0, 1.0])
        assert err.value.feature == "tangency"

    @pytest.mark.parametrize("offset", [1e-6, 0.3])
    def test_parallel_apart_gives_no_crossing(self, offset):
        d = project(self.pair(offset), [0.0, 0.0, 1.0])
        assert d.crossings == {}

    def test_collinear_gap_beyond_tol_gives_no_crossing(self):
        a = Curve("a", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], False)
        b = Curve("b", [[1.0 + 1e-6, 0.0, 1.0], [2.0, 0.0, 1.0]], False)
        assert project([a, b], [0.0, 0.0, 1.0]).crossings == {}

    COORD = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
    SEGMENT_PAIR = st.tuples(*[st.tuples(COORD, COORD)] * 4)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SEGMENT_PAIR, min_size=1, max_size=12))
    def test_array_end_distance_matches_scalar(self, pairs):
        # ends a0, a1, b0, b1 of each pair, each against the other segment,
        # laid out as the tangency test lays them out; np.hypot and
        # math.hypot may differ in the last bit
        ends = np.array(pairs, dtype=float).transpose(1, 2, 0)  # (end, axis, pair)
        start, end = [2, 2, 0, 0], [3, 3, 1, 1]
        x, y = ends[:, 0], ends[:, 1]
        dist = geometry._end_distance(x, y, x[start], y[start], x[end], y[end])
        for k, (a0, a1, b0, b1) in enumerate(pairs):
            scalar = [point_segment_distance(a0, b0, b1), point_segment_distance(a1, b0, b1),
                      point_segment_distance(b0, a0, a1), point_segment_distance(b1, a0, a1)]
            for got, want in zip(dist[:, k].tolist(), scalar):
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=1e-300)
            assert math.isclose(dist[:, k].min(), segment_distance(a0, a1, b0, b1),
                                rel_tol=1e-15, abs_tol=1e-300)


class TestEndpointContact:
    def test_chained_arcs_are_not_crossings(self):
        # consecutive pieces of one thread meet end to end; the contact
        # must be treated like adjacency, not like a crossing
        a = Curve("a", [[0, 0, 0], [1, 0, 0.2]], False)
        b = Curve("b", [[1, 0, 0.2], [1.4, 1, 0.1]], False)
        d = project([a, b], [0.0, 0.0, 1.0])
        assert len(d.crossings) == 0

    def test_contact_with_sharp_turn_still_ok(self):
        a = Curve("a", [[0, 0, 0], [1, 0, 0.2]], False)
        b = Curve("b", [[1, 0, 0.2], [0.1, 0.02, 0.4]], False)  # almost doubles back
        d = project([a, b], [0.0, 0.0, 1.0])
        assert len(d.crossings) == 0

    def test_genuine_crossing_near_contact_is_kept(self):
        a = Curve("a", [[0, 0, 0], [1, 0, 0.2]], False)
        b = Curve("b", [[1, 0, 0.2], [1.4, 1, 0.1]], False)
        c = Curve("c", [[0.5, -1, 1], [0.5, 1, 1]], False)
        d = project([a, b, c], [0.0, 0.0, 1.0])
        assert len(d.crossings) == 1

    @pytest.mark.parametrize("x", [3e-7, 5e-7, 1.5e-6])
    def test_ends_apart_by_far_less_than_contact_tol_meet_anywhere(self, x):
        # the free ends lie 1e-12 apart wherever x puts them, also where
        # rounding both to a 1e-6 grid would part them
        a = Curve("a", [[x - 1, 0, 0], [x, 0, 0.2]], False)
        b = Curve("b", [[x + 1e-12, 0, 0.2], [x + 0.4, 1, 0.1]], False)
        assert len(project([a, b], [0.0, 0.0, 1.0]).crossings) == 0
        b0 = Curve("b", [[1e-12, 0, 0.2], [0.4, 1, 0.1]], False)
        row, = project_translates([a], [b0], [[x, 0, 0]], [0.0, 0.0, 1.0])
        assert isinstance(row, Diagram) and len(row.crossings) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4),
           st.tuples(*[st.integers(-2 * 10**7, 2 * 10**7)] * 3), st.integers(0, 2**32 - 1))
    def test_cut_polyline_projects_as_the_whole(self, seed, pieces, shift, dir_seed):
        # vertices and shift on a 5e-7 lattice put about half the shared
        # vertices' coordinates where rounding to a 1e-6 grid tips either way
        rng = np.random.default_rng(seed)
        verts = rng.integers(-4 * 10**6, 4 * 10**6, size=(rng.integers(pieces + 2, 13), 3)) * 5e-7
        verts += np.multiply(shift, 5e-7)
        cuts = np.sort(rng.choice(np.arange(1, verts.shape[0] - 1), pieces - 1, replace=False))
        bounds = [0, *cuts.tolist(), verts.shape[0] - 1]
        cut = []
        for k in range(pieces):
            piece = verts[bounds[k]:bounds[k + 1] + 1].copy()
            if k:
                piece[0] += rng.uniform(-1e-12, 1e-12, 3)  # the shared vertex, moved apart
            cut.append(Curve(f"p{k}", piece, False))
        whole = Curve("w", verts, False)
        for xi in sample_directions(8, "random", dir_seed):
            try:
                expected = project([whole], xi)
            except NonGenericDirectionError:
                continue
            # the pieces have the whole's segment pairs, so they are generic too
            d = project(cut, xi)
            assert len(d.crossings) == len(expected.crossings)
            assert d.writhe == expected.writhe


class TestSweepKernel:
    """The array kernel against the direct scan, and its error and memory behavior."""

    component = st.one_of(st.tuples(st.integers(2, 12), st.just(False)),
                          st.tuples(st.integers(3, 12), st.just(True)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(component, min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_crossings_and_writhe_match_brute_scan(self, seed, specs, dir_seed):
        # specs holds (vertex count, closed) per component
        rng = np.random.default_rng(seed)
        curves = [Curve(f"k{i}", rng.normal(size=(n, 3)), closed)
                  for i, (n, closed) in enumerate(specs)]
        xi = sample_directions(1, "random", dir_seed)[0]
        diagram, xi_used, _ = project_generic(curves, xi, 1e-9)
        flat, segs, _ = flatten(curves, xi_used)
        assert len(diagram.crossings) == len(brute_segment_crossings(flat, segs))
        assert diagram.writhe == brute_writhe(curves, xi_used)

    # three pairs, far apart in x, each failing one check along +z
    FAILING = {
        "depth_coincidence": [[[-1, 0, 0], [1, 0, 0]], [[0, -1, 0], [0, 1, 0]]],
        "tangency": [[[10, 0, 0], [11, 0, 0]], [[10.5, 5e-10, 1], [11.5, 5e-10, 1]]],
        "crossing_near_vertex": [[[19, 0, 0], [20 - 5e-10, 0, 0]], [[20, -1, 1], [20, 1, 1]]],
    }

    @pytest.mark.parametrize("first", sorted(FAILING))
    def test_first_failing_pair_names_the_error(self, first):
        # pairs are tested in (a < b) order of the segments, so the group
        # whose curves come first decides, whatever the other checks find
        order = [first] + sorted(set(self.FAILING) - {first})
        curves = [Curve(f"{name}{k}", verts, False)
                  for name in order for k, verts in enumerate(self.FAILING[name])]
        with pytest.raises(NonGenericDirectionError) as err:
            project(curves, [0.0, 0.0, 1.0])
        assert err.value.feature == first

    def test_third_curve_vertex_at_crossing_is_rejected(self):
        a = Curve("a", [[-1, 0, 0], [1, 0, 0]], False)
        b = Curve("b", [[0, -1, 1], [0, 1, 1]], False)
        c = Curve("c", [[4e-10, 3e-10, 2], [3, 0.1, 2], [3, 2, 2]], False)
        assert len(project([a, b], [0.0, 0.0, 1.0]).crossings) == 1
        with pytest.raises(NonGenericDirectionError) as err:
            project([a, b, c], [0.0, 0.0, 1.0])
        assert err.value.feature == "crossing_near_vertex"

    def test_crossing_within_tol_of_a_free_end_is_rejected(self):
        # the crossing is inside both segments, so only the vertex sweep sees it
        a = Curve("a", [[-1e-12, 0, 0], [1, 0, 0]], False)
        b = Curve("b", [[0, -1, 1], [0, 1, 1]], False)
        with pytest.raises(NonGenericDirectionError) as err:
            project([a, b], [0.0, 0.0, 1.0])
        assert err.value.feature == "crossing_near_vertex"

    def test_long_walk_memory_stays_far_below_dense_matrices(self):
        rng = np.random.default_rng(5)
        steps = rng.normal(size=(5000, 3))
        steps /= np.linalg.norm(steps, axis=1, keepdims=True)
        walk = Curve("w", np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)]), False)
        tracemalloc.start()
        try:
            diagram, _, _ = project_generic([walk], sample_directions(1, "random", 0)[0],
                                            1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 crossings x vertices distance matrix with its (x, y) differences
        dense = len(diagram.crossings) * walk.vertices.shape[0] * 2 * 8
        assert len(diagram.crossings) > 1000
        assert peak < dense / 20


class TestOverlaps:
    """The sort-and-sweep pair lister against comparing every two intervals."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 8), st.data())
    def test_pairs_match_brute_scan(self, rows, m, data):
        # few distinct values, so ends often tie; NaN pads anywhere in a row
        cell = st.tuples(st.integers(-3, 3), st.integers(0, 2), st.booleans())
        cells = data.draw(st.lists(cell, min_size=rows * m, max_size=rows * m))
        lo = np.array([math.nan if pad else x for x, _, pad in cells]).reshape(rows, m)
        hi = lo + np.array([w for _, w, _ in cells]).reshape(rows, m)
        i, j = geometry._overlaps(lo, hi)
        pairs = sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
        assert pairs == sorted(brute_overlaps(lo, hi))


def swept_rows(monkeypatch):
    """Rows that ``_separation`` sweeps with ``_overlaps``, one count per call."""
    swept, inner = [], geometry._overlaps
    monkeypatch.setattr(geometry, "_overlaps", lambda lo, hi: swept.append(lo.shape[0])
                        or inner(lo, hi))
    return swept


class TestSeparationScreen:
    """The screened separation and near-vertex checks against comparing every
    crossing with every other point of its row."""

    EARLIER = (0, geometry.DEGENERATE, geometry.TANGENCY, geometry.DEPTH)

    @staticmethod
    def separation(code, cross_row, px, py, vx, vy, tol):
        """``_separation``'s codes and ``brute_separation``'s, from the same rows."""
        code, cross_row = np.array(code, dtype=np.int64), np.array(cross_row)
        px, py = np.array(px, dtype=float), np.array(py, dtype=float)
        vx, vy = np.array(vx, dtype=float), np.array(vy, dtype=float)
        pos = np.stack([vx, vy, np.zeros_like(vx)])
        expected = brute_separation(code, cross_row, px, py, pos, tol)
        geometry._Segments._separation(code, cross_row, px, py, pos, tol)
        return code.tolist(), expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([0.0, 0.125, 0.25, 0.5]),
           st.data())
    def test_codes_match_brute_scan(self, rows, verts, tol, data):
        # a grid of eighths: windows tie, and points lie exactly 2 tol apart
        grid = st.integers(-6, 6).map(lambda k: k / 8)
        code, cross_row, px, py, vx, vy = [], [], [], [], [], []
        for r in range(rows):
            # a row that failed an earlier check has no crossings left
            code.append(data.draw(st.sampled_from(self.EARLIER)))
            count = 0 if code[-1] else data.draw(st.integers(0, 3))
            cross_row += [r] * count
            px += data.draw(st.lists(grid, min_size=count, max_size=count))
            py += data.draw(st.lists(grid, min_size=count, max_size=count))
            xs = data.draw(st.lists(grid, min_size=verts, max_size=verts))
            ys = data.draw(st.lists(grid, min_size=verts, max_size=verts))
            if verts > 1 and data.draw(st.booleans()):
                # chains meeting end to end: two coincident vertices
                xs[-1], ys[-1] = xs[0], ys[0]
            vx.append(xs)
            vy.append(ys)
        assume(cross_row)
        got, expected = self.separation(code, cross_row, px, py, vx, vy, tol)
        assert got == expected

    def test_vertex_between_a_crossing_and_its_near_vertex(self):
        # sorted on x: the crossing, a vertex far off in y, then the vertex
        # within tol; only the far one is the crossing's neighbor
        tol = 0.25
        got, expected = self.separation([0], [0], [0.0], [0.0], [[0.125, 0.25]], [[5.0, 0.0]],
                                        tol)
        assert got == expected == [geometry.NEAR_VERTEX]

    def test_crossings_exactly_two_tol_apart_on_x(self, monkeypatch):
        # the windows touch, so the row is swept; the points are not close
        swept = swept_rows(monkeypatch)
        got, expected = self.separation([0], [0, 0], [0.0, 0.5], [0.0, 0.0], [[3.0]], [[3.0]],
                                        0.25)
        assert got == expected == [0]
        assert swept == [1]

    def test_coincident_vertices_alone_sweep_nothing(self, monkeypatch):
        # jersey rows: chains meet end to end, a crossing lies far away
        swept = swept_rows(monkeypatch)
        got, expected = self.separation([0, 0], [0, 1], [0.0, 0.0], [0.0, 0.0],
                                        [[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]],
                                        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 0.1)
        assert got == expected == [0, 0]
        assert swept == []

    def test_nan_padding_flags_no_row(self, monkeypatch):
        # row 0 holds three crossings, so row 1 is padded with two NaNs
        swept = swept_rows(monkeypatch)
        got, expected = self.separation([0, 0], [0, 0, 0, 1], [0.0, 1.0, 2.0, 0.0],
                                        [0.0, 0.0, 0.0, 5.0], [[9.0], [9.0]], [[9.0], [9.0]],
                                        0.25)
        assert got == expected == [0, 0]
        assert swept == []

    def test_only_screened_rows_are_swept(self, monkeypatch):
        swept = swept_rows(monkeypatch)
        got, expected = self.separation([0, 0, geometry.TANGENCY], [0, 1],
                                        [0.0, 0.0], [0.0, 0.0],
                                        [[0.0625, 4.0], [2.0, 4.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], 0.125)
        assert got == expected == [geometry.NEAR_VERTEX, 0, geometry.TANGENCY]
        assert swept == [1]


class TestBatchedKernel:
    """project_many against one-direction calls, the brute scan and its block size."""

    AXES = [np.array(v, dtype=float) / np.linalg.norm(v)
            for v in ([1, 0, 0], [0, -1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 1])]
    direction = st.one_of(
        st.integers(0, 2**32 - 1).map(lambda s: sample_directions(1, "random", s)[0]),
        st.sampled_from(AXES),
        st.tuples(st.sampled_from(AXES), st.integers(1, 30)).map(
            lambda a: perturbed_direction(*a)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(TestSweepKernel.component, min_size=1, max_size=4),
           st.lists(direction, min_size=1, max_size=12))
    def test_batch_matches_single_calls_and_brute_scan(self, seed, specs, dirs):
        rng = np.random.default_rng(seed)
        curves = [Curve(f"k{i}", rng.normal(size=(n, 3)), closed)
                  for i, (n, closed) in enumerate(specs)]
        batch = list(project_many(curves, dirs))
        assert [outcome(r) for r in batch] == [projected_alone(curves, xi) for xi in dirs]
        for xi, diagram in zip(dirs, batch):
            if isinstance(diagram, NonGenericDirectionError):
                continue
            flat, segs, _ = flatten(curves, xi)
            assert len(diagram.crossings) == len(brute_segment_crossings(flat, segs))
            assert diagram.writhe == brute_writhe(curves, xi)

    def test_repeated_rows_share_one_diagram(self):
        curves = [open_trefoil(0.3)]
        dirs = sample_directions(400)
        batch = list(project_many(curves, dirs))
        outcomes = [outcome(d) for d in batch]
        assert outcomes == [projected_alone(curves, xi) for xi in dirs]
        # one object per distinct diagram, and fewer than the directions
        distinct = {(comps, tuple(items)) for comps, items in outcomes}
        assert len({id(d) for d in batch}) == len(distinct) < len(dirs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(TestSweepKernel.component, min_size=1, max_size=4),
           st.lists(direction, min_size=1, max_size=12))
    def test_every_diagram_passes_validation(self, seed, specs, dirs):
        # the kernel builds its diagrams with Diagram.trusted, which skips this check
        rng = np.random.default_rng(seed)
        curves = [Curve(f"k{i}", rng.normal(size=(n, 3)), closed)
                  for i, (n, closed) in enumerate(specs)]
        for diagram in project_many(curves, dirs):
            if isinstance(diagram, Diagram):
                diagram._validate()

    # one layout per check, each turned so that it fails along its own view;
    # the depth layout's strands pass 9e-10 apart instead of meeting, so
    # only views near its own axis see equal depths
    LAYOUTS = dict(
        TestSweepKernel.FAILING,
        depth_coincidence=[[[-1, 0, 0], [1, 0, 0]], [[0, -1, 9e-10], [0, 1, 9e-10]]],
        degenerate_segment=[[[30, 0, 0], [30, 0, 1], [31, 1, 1]]],
        fold_back=[[[40, 0, 0], [41, 0, 1], [40.5, 0, 2]]],
        crossing_separation=[[[50, 0, 0], [52, 0, 0]], [[51, -1, 1], [51, 1, 1]],
                             [[50, -1, 2], [52, 1, 2]]],
    )
    VIEWS = {"depth_coincidence": [0.1, 0.2, 1], "tangency": [1, 0.3, 0.2],
             "crossing_near_vertex": [0.2, 1, -0.3], "degenerate_segment": [-0.6, 0.5, 0.6],
             "fold_back": [0.5, -0.7, 0.5], "crossing_separation": [0.8, -0.1, -0.4]}
    GENERIC = [[0.3, -0.9, 0.1], [-0.7, -0.2, 0.4], [0.6, 0.6, -0.2]]

    def layout_curves(self):
        curves = []
        for name, strands in self.LAYOUTS.items():
            view = np.array(self.VIEWS[name], dtype=float) / np.linalg.norm(self.VIEWS[name])
            axis = np.cross([0.0, 0.0, 1.0], view)
            angle = math.atan2(np.linalg.norm(axis), view[2])
            axis /= np.linalg.norm(axis)
            center = np.mean([p for strand in strands for p in strand], axis=0)
            curves += [Curve(f"{name}{k}", [rotate_about(np.subtract(p, center), axis, angle)
                                            + center for p in strand], False)
                       for k, strand in enumerate(strands)]
        return curves

    @pytest.mark.parametrize("rows", [None, 1, 10**9], ids=["default", "one-row", "huge"])
    def test_each_direction_names_its_own_check(self, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(geometry, "BLOCK_ROWS", rows)
        curves = self.layout_curves()
        names = sorted(self.VIEWS)
        dirs = [self.GENERIC[0]] + [self.VIEWS[n] for n in names] + self.GENERIC[1:]
        results = [outcome(r) for r in project_many(curves, dirs)]
        assert results[1:len(names) + 1] == names
        for xi, r in zip(self.GENERIC, results[:1] + results[len(names) + 1:]):
            assert not isinstance(r, str) and r == projected_alone(curves, xi)

    @pytest.mark.parametrize("rows", [1, 10**9])
    def test_block_size_changes_no_result(self, rows, monkeypatch):
        curves = [open_trefoil(0.3)] + list(hopf_link())
        dirs = np.concatenate([sample_directions(60), self.AXES])
        expected = [outcome(r) for r in project_many(curves, dirs)]
        assert any(isinstance(r, str) for r in expected)
        monkeypatch.setattr(geometry, "BLOCK_ROWS", rows)
        assert [outcome(r) for r in project_many(curves, dirs)] == expected

    def test_many_directions_project_in_small_blocks(self):
        curves = [open_trefoil(0.3)]
        dirs = sample_directions(2000)
        tracemalloc.start()
        try:
            count = sum(1 for _ in project_many(curves, dirs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2000
        assert peak < 2e6

    def test_arguments_are_checked_before_any_projection(self):
        with pytest.raises(PbcJonesError, match="direction must be finite and nonzero"):
            project_many([trefoil()], [[0, 0, 1], [0, 0, 0]])
        with pytest.raises(PbcJonesError, match="tolerance"):
            project_many([trefoil()], [[0, 0, 1]], -1.0)
