import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (gauss_linking, outcome, projected_alone, scalar_box_presence,
                     slk_by_translate)

from pbcjones import geometry, pbc
from pbcjones.errors import AmbiguousMatchError, ChainConnectivityError, PbcJonesError
from pbcjones.fixtures import (_CHAINMAIL_RING, chainmail_system, jersey_system,
                               melt_system, twill_system)
from pbcjones.geometry import Curve, project, project_translates, sample_directions
from pbcjones.io_formats import system_from_json_obj, system_to_json_obj
from pbcjones.jones3d import SamplingConfig, project_generic
from pbcjones.laurent import LaurentPoly
from pbcjones.pbc import (Cell, GeneratingChain, PBCSystem, PlacedImage, UnfoldingBox,
                          box_presence, cell_curves, cell_jones, minimal_periodic_link,
                          minimal_unfolding, normalized, periodic_jones, present_translates,
                          rebuild_link, search_basepoint, slk_p, unfold_image,
                          with_basepoint)


def json_round_trip(cell, chain):
    return system_from_json_obj(system_to_json_obj(PBCSystem(cell, [chain])))


def exact_periodic(system):
    res, link = periodic_jones(system, SamplingConfig())
    assert res.exact
    return res.poly, link


class TestCell:
    def test_fractional_round_trip(self):
        cell = Cell([[2.0, 0.5, 0.0], [0.0, 1.5, 0.2], [0.0, 0.0, 3.0]],
                    (True, True, False), origin=(1.0, -2.0, 0.5))
        pts = np.array([[0.2, 0.7, 1.9], [5.0, -1.0, 0.0]])
        frac = cell.to_fractional(pts)
        assert np.allclose(cell.from_fractional(frac), pts)

    def test_translation_combines_basis_columns(self):
        cell = Cell(np.diag([2.0, 3.0, 5.0]), (True, True, True))
        assert np.allclose(cell.translation((1, -1, 2)), [2.0, -3.0, 10.0])

    def test_json_round_trip(self):
        cell = Cell(np.diag([2.0, 1.0, 1.0]), (True, False, True), origin=(0.5, 0, 0))
        chain = GeneratingChain("c", [[[0, 0, 0], [1, 0, 0], [1, 1, 0]]], "open")
        back = json_round_trip(cell, chain).cell
        assert np.allclose(back.basis, cell.basis)
        assert back.periodic == cell.periodic
        assert np.allclose(back.origin, cell.origin)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = np.diag([2.0, 3.0, 5.0])
        basis[1, 2] = bad
        with pytest.raises(PbcJonesError, match="cell basis must be finite"):
            Cell(basis, (True, False, False))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_origin_rejected(self, bad):
        with pytest.raises(PbcJonesError, match="cell origin"):
            Cell(np.eye(3), (True, False, False), origin=(0.0, bad, 0.0))

    def test_origin_must_have_three_coordinates(self):
        with pytest.raises(PbcJonesError, match="cell origin"):
            Cell(np.eye(3), (True, False, False), origin=(0.0, 1.0))

    @pytest.mark.parametrize("basis, periodic, origin, message", [
        (np.eye(3)[:2], (True, False, False), (0, 0, 0),
         r"cell basis must be a 3x3 matrix \(rows are cell vectors\)"),
        ([[1, 0, 0], [2, 0, 0], [0, 0, 1]], (True, False, False), (0, 0, 0),
         "cell basis is singular"),
        (np.eye(3), (True, False), (0, 0, 0), "periodic flags must have length 3"),
        ([["a", 0, 0], [0, 1, 0], [0, 0, 1]], (True, False, False), (0, 0, 0),
         "cell basis must be a 3x3 matrix of numbers"),
        (np.eye(3), (True, False, False), ("x", 0, 0), "cell origin must be 3 finite coordinates"),
    ])
    def test_malformed_cell_rejected(self, basis, periodic, origin, message):
        with pytest.raises(PbcJonesError, match=f"^{message}$"):
            Cell(basis, periodic, origin)


class TestGeneratingChain:
    def test_unknown_topology_rejected(self):
        with pytest.raises(PbcJonesError, match="topology"):
            GeneratingChain("c", [[[0, 0, 0], [1, 0, 0]]], "figure-eight")

    def test_empty_arcs_rejected(self):
        with pytest.raises(PbcJonesError, match="at least one arc"):
            GeneratingChain("c", [], "open")

    def test_one_vertex_arc_rejected(self):
        with pytest.raises(PbcJonesError, match=r"^chain 'c': arc 1 must have shape \(n>=2, 3\)$"):
            GeneratingChain("c", [[[0, 0, 0], [1, 0, 0]], [[1, 0, 0]]], "open")

    def test_repeated_chain_id_rejected(self):
        chain = GeneratingChain("c", [[[0.2, 0.2, 0.2], [0.8, 0.2, 0.2]]], "open")
        with pytest.raises(PbcJonesError, match="^chain ids must be unique$"):
            PBCSystem(Cell(np.eye(3), (True, False, False)), [chain, chain])

    def test_basepoint_range_checked(self):
        arc = [[0, 0, 0], [1, 0, 0]]
        with pytest.raises(PbcJonesError, match="basepoint arc"):
            GeneratingChain("c", [arc], "open", basepoint=(1, 0))
        with pytest.raises(PbcJonesError, match="basepoint vertex"):
            GeneratingChain("c", [arc], "open", basepoint=(0, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_arc_rejected(self, bad):
        arc = [[0.0, 0.0, 0.0], [0.5, bad, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(PbcJonesError, match="arc 0 must be finite"):
            GeneratingChain("x", [arc], "infinite")

    @pytest.mark.parametrize("x, ok", [(5.0, True), (-4.0, True), (5.01, False),
                                       (-4.01, False), (1e300, False)])
    def test_arc_reach_is_bounded(self, x, ok):
        # fractional coordinates must stay within [-ARC_REACH, 1 + ARC_REACH]
        cell = Cell(np.diag([2.0, 1.0, 1.0]), (True, True, True), origin=(1.0, 0.0, 0.0))
        arc = np.array([[1.5, 0.5, 0.5], [1.0 + 2.0 * x, 0.5, 0.5]])
        chains = [GeneratingChain("c", [arc], "open")]
        if ok:
            PBCSystem(cell, chains)
        else:
            with pytest.raises(PbcJonesError, match="arc 0 reaches more than 4 cells"):
                PBCSystem(cell, chains)

    def test_json_round_trip_keeps_basepoint(self):
        chain = GeneratingChain("c", [[[0, 0, 0], [1, 0, 0], [1, 1, 0]]],
                                "open", basepoint=(0, 2))
        back = json_round_trip(Cell(np.eye(3), (True, True, True)), chain).chains[0]
        assert back.basepoint == (0, 2)
        assert back.topology == "open"


class TestUnfolding:
    def test_closed_ring_unfolds_to_itself(self):
        system = chainmail_system()
        img = unfold_image(system, system.chains[0])
        assert isinstance(img, PlacedImage) and img.translate == (0, 0, 0)
        assert img.closed
        assert np.allclose(img.polyline, np.asarray(_CHAINMAIL_RING)[:-1])

    def test_split_arcs_reassemble(self):
        # the same ring handed over as three consecutive arcs
        ring = np.asarray(_CHAINMAIL_RING)
        split = GeneratingChain("ring", [ring[:5], ring[4:9], ring[8:]], "closed")
        whole = chainmail_system()
        split_sys = PBCSystem(whole.cell, [split])
        p1, l1 = exact_periodic(whole)
        p2, l2 = exact_periodic(split_sys)
        assert l1.composition == l2.composition
        assert p1 == p2

    def test_wrapped_arc_reassembles(self):
        # hook translated back into the cell; the walk must re-place it
        ring = np.asarray(_CHAINMAIL_RING)
        inside, hook, tail = ring[:5].copy(), ring[4:9].copy(), ring[8:].copy()
        hook -= [1.0, 0.0, 0.0]
        wrapped = GeneratingChain("ring", [inside, hook, tail], "closed")
        with pytest.raises(PbcJonesError):
            # consecutive arcs no longer join as given...
            unfold_image(PBCSystem(Cell(np.eye(3), (False, False, False)),
                                   [wrapped]), wrapped)
        # ...but do modulo the periodic lattice
        sys_w = PBCSystem(chainmail_system().cell, [wrapped])
        p1, _ = exact_periodic(chainmail_system())
        p2, _ = exact_periodic(sys_w)
        assert p1 == p2

    def test_junctions_join_where_the_walk_matched_them(self):
        # in a cell of side 100, ends 3e-5 apart are 3e-7 cells apart,
        # within MATCH_TOL: the image keeps one vertex of each matched pair
        ring = np.asarray(_CHAINMAIL_RING) * 100.0
        a0, a1 = ring[:5], ring[4:].copy()
        a1[0] += [3e-5, 0.0, 0.0]
        a1[-1] += [0.0, 3e-5, 0.0]
        chain = GeneratingChain("ring", [a0, a1], "closed")
        system = PBCSystem(Cell(np.diag([100.0] * 3), (True, False, False)), [chain])
        img = unfold_image(system, chain)
        assert img.closed and img.polyline.shape == (11, 3)
        ends = np.vstack([img.polyline, img.polyline[:1]])
        assert np.linalg.norm(np.diff(ends, axis=0), axis=1).min() == pytest.approx(5.0)

    def test_infinite_chain_progresses_by_one_cell(self):
        system = jersey_system()
        for chain in system.chains:
            img = unfold_image(system, chain)
            assert not img.closed
            frac = system.cell.to_fractional(img.polyline)
            delta = frac[-1] - frac[0]
            assert np.allclose(np.round(delta), delta, atol=1e-6)
            assert np.any(np.abs(np.round(delta)) >= 1)


    # an open path in a periodic cell of side 10, cut into three arcs; the
    # first arc is handed over one cell along x, where the walk re-places it
    PATH = np.array([[1, 1, 1], [2, 1, 1], [3, 2, 1], [4, 2, 2], [5, 3, 2], [6, 3, 3],
                     [7, 4, 3]], dtype=float)
    CELL = Cell(np.diag([10.0] * 3), (True, True, True))

    @pytest.mark.parametrize("base", [1, 2])
    def test_open_chain_walks_back_from_the_basepoint_arc(self, base):
        arcs = [self.PATH[0:3] + [10.0, 0.0, 0.0], self.PATH[2:5], self.PATH[4:7]]
        chain = GeneratingChain("p", arcs, "open", basepoint=(base, 0))
        img = unfold_image(PBCSystem(self.CELL, [chain]), chain)
        assert img.translate == (0, 0, 0) and not img.closed
        assert np.allclose(img.polyline, self.PATH)

    def test_two_arcs_continuing_the_head_are_ambiguous(self):
        arcs = [self.PATH[0:2], self.PATH[1:3], [self.PATH[1], [2, 2, 2]]]
        chain = GeneratingChain("p", arcs, "open")
        with pytest.raises(AmbiguousMatchError, match="2 arc translates continue the head"):
            unfold_image(PBCSystem(self.CELL, [chain]), chain)

    @pytest.mark.parametrize("topology, arc, message", [
        ("closed", PATH[0:3], "closed chain does not return to its start"),
        ("infinite", np.vstack([PATH[0:3], PATH[:1]]),
         "infinite chain must advance by a nonzero translate"),
    ])
    def test_one_arc_chain_with_a_bad_advance(self, topology, arc, message):
        chain = GeneratingChain("p", [arc], topology)
        with pytest.raises(ChainConnectivityError, match=message):
            unfold_image(PBCSystem(self.CELL, [chain]), chain)


class TestMinimalPeriodicLink:
    def test_chainmail_has_three_interlocked_rings(self):
        link = minimal_periodic_link(chainmail_system())
        assert link.component_count == 3
        assert sorted(link.composition["ring"]) == [(-1, 0, 0), (0, 0, 0), (1, 0, 0)]
        assert link.mcu.cell_count == 2

    def test_doubled_cell_shrinks_the_link(self):
        link = minimal_periodic_link(chainmail_system(doubled=True))
        assert link.component_count == 1
        assert link.mcu.cell_count == 1

    @pytest.mark.parametrize("make, periods", [(chainmail_system, [3, 1, 1]),
                                               (jersey_system, [3, 3, 1])])
    def test_copy_period_is_twice_dims_minus_one(self, make, periods):
        box = minimal_periodic_link(make()).mcu
        assert [box.copy_period(ax) for ax in range(3)] == periods
        assert periods == [2 * d - 1 for d in box.dims]

    def test_jersey_count(self):
        assert minimal_periodic_link(jersey_system()).component_count == 8

    def test_twill_count(self):
        assert minimal_periodic_link(twill_system()).component_count == 3

    def test_lattice_shift_invariance(self):
        base = chainmail_system()
        shifted_arcs = [a + np.array([2.0, 0.0, 0.0]) for a in base.chains[0].arcs]
        shifted = PBCSystem(base.cell, [GeneratingChain("ring", shifted_arcs, "closed")])
        p1, l1 = exact_periodic(base)
        p2, l2 = exact_periodic(shifted)
        assert p1 == p2
        assert l1.component_count == l2.component_count

    def test_rebuild_matches_fresh_link(self):
        system = chainmail_system()
        fresh = minimal_periodic_link(system)
        rebuilt = rebuild_link(system, fresh.composition)
        assert rebuilt.composition == fresh.composition
        xi = sample_directions(1, "random", seed=6)[0]
        cfg = SamplingConfig()
        from pbcjones.jones3d import jones_single_direction
        from pbcjones.pbc import link_curves
        a = jones_single_direction(link_curves(fresh), xi, cfg)
        b = jones_single_direction(link_curves(rebuilt), xi, cfg)
        assert a.poly == b.poly

    def test_rebuild_rejects_nonperiodic_translates(self):
        system = chainmail_system()
        with pytest.raises(PbcJonesError, match="non-periodic"):
            rebuild_link(system, {"ring": [(0, 1, 0)]})

    @pytest.mark.parametrize("x, kept", [(10**9, True), (10**13, False), (-10**13, False)])
    def test_rebuild_keeps_translates_that_round_within_match_tol(self, x, kept):
        # in the chainmail's unit cell a vertex 1e9 cells away rounds by
        # about 1e-7 cells, below MATCH_TOL; 1e13 cells away by about 1e-3
        system = chainmail_system()
        if kept:
            link = rebuild_link(system, {"ring": [(x, 0, 0)]})
            assert [im.translate for im in link.images] == [(x, 0, 0)]
        else:
            with pytest.raises(PbcJonesError, match="too large to place"):
                rebuild_link(system, {"ring": [(x, 0, 0)]})

    def test_frozen_subset_keeps_only_requested_images(self):
        system = chainmail_system()
        partial = rebuild_link(system, {"ring": [(0, 0, 0), (1, 0, 0)]})
        assert partial.component_count == 2


class TestBasepoint:
    def test_jersey_search_recovers_calibrated_arc(self):
        system = jersey_system()
        chain = system.chains[0]
        assert search_basepoint(system, chain.id) == chain.basepoint == (1, 0)

    def test_twill_search_recovers_calibrated_arc(self):
        system = twill_system()
        chain = system.chains[0]
        assert search_basepoint(system, chain.id) == chain.basepoint == (0, 0)

    def test_with_basepoint_replaces_only_target(self):
        system = jersey_system()
        cid = system.chains[0].id
        moved = with_basepoint(system, cid, (0, 0))
        assert moved.chain(cid).basepoint == (0, 0)
        assert system.chain(cid).basepoint == (1, 0)

    @pytest.mark.parametrize("call", [lambda s: with_basepoint(s, "nope", (0, 0)),
                                      lambda s: search_basepoint(s, "nope")],
                             ids=["with_basepoint", "search_basepoint"])
    def test_unknown_chain_id_rejected(self, call):
        with pytest.raises(PbcJonesError, match="no chain 'nope' in the system"):
            call(jersey_system())


class TestPeriodicSelfLinking:
    @pytest.mark.parametrize("seed", range(4))
    def test_chainmail_slk_is_two(self, seed):
        xi = sample_directions(1, "random", seed)[0]
        assert slk_p(chainmail_system(), xi) == 2

    def test_doubled_chainmail_has_no_self_linking(self):
        xi = sample_directions(1, "random", seed=0)[0]
        assert slk_p(chainmail_system(doubled=True), xi) == 0

    def test_explicit_axis_matches_single_axis_default(self):
        xi = sample_directions(1, "random", seed=1)[0]
        system = chainmail_system()
        assert slk_p(system, xi, axis=0) == slk_p(system, xi)

    def test_matches_gauss_integral_against_translates(self):
        # sum of linking numbers between the image set and its translates
        # by multiples of the copy period, computed by the Gauss integral
        system = chainmail_system()
        link = minimal_periodic_link(system)
        period = 2 * link.mcu.dims[0] - 1
        total = 0.0
        for v in (-2, -1, 1, 2):
            off = system.cell.translation((v * period, 0, 0))
            for a in link.images:
                for b in link.images:
                    total += gauss_linking(a.polyline, b.polyline + off)
        assert round(total) == 2
        xi = sample_directions(1, "random", seed=2)[0]
        assert slk_p(system, xi) == round(total)


class TestCellLink:
    def test_chainmail_cell_pieces(self):
        curves = cell_curves(chainmail_system())
        assert all(not c.closed for c in curves)
        # one arc through the ring body, cut where the hook leaves the cell
        assert len(curves) == 1
        assert len(curves[0].vertices) == 9

    def test_interior_loop_stays_closed(self):
        cell = Cell(np.diag([4.0, 4.0, 4.0]), (True, True, True))
        ring = GeneratingChain(
            "r", [(np.asarray(_CHAINMAIL_RING) * 0.5 + [1.0, 1.0, 1.0])], "closed")
        curves = cell_curves(PBCSystem(cell, [ring]))
        assert len(curves) == 1
        assert curves[0].closed

    @pytest.mark.parametrize("arc, tol, pieces", [
        # leaves the cell at a vertex on its face, then comes back in: two pieces
        ([[0.5, 0.5, 0.5], [1.0, 0.5, 0.5], [2.0, 0.5, 0.5], [0.5, 0.8, 0.5]], 0.0,
         [[[0.5, 0.5, 0.5], [1.0, 0.5, 0.5]], [[1.0, 0.7, 0.5], [0.5, 0.8, 0.5]]]),
        # comes back in by 1e-13 only: that piece's points merge into one and it is dropped
        ([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [1.0 - 1e-13, 0.5, 0.5], [1.5, 0.6, 0.5]], 0.0,
         [[[0.5, 0.5, 0.5], [1.0, 0.5, 0.5]]]),
        # comes back in past the inflated face x = 1.01 for about 0.06, not over 10 * tol
        ([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [0.98, 0.5, 0.5], [1.5, 0.52, 0.5]], 0.01,
         [[[0.5, 0.5, 0.5], [1.01, 0.5, 0.5]]]),
    ], ids=["exit-at-a-face-vertex", "points-merge", "shorter-than-10-tol"])
    def test_clipped_pieces(self, arc, tol, pieces):
        system = PBCSystem(Cell(np.eye(3), (True, False, False)),
                           [GeneratingChain("c", [arc], "open")])
        curves = cell_curves(system, tol)
        names = ["c/a0"] if len(pieces) == 1 else [f"c/a0/p{k}" for k in range(len(pieces))]
        assert [c.id for c in curves] == names
        assert all(not c.closed for c in curves)
        for curve, piece in zip(curves, pieces):
            assert np.allclose(curve.vertices, piece, rtol=0, atol=1e-12)

    def test_cell_jones_needs_an_arc_inside_the_cell(self):
        cell = Cell(np.eye(3), (True, False, False))
        chain = GeneratingChain("c", [np.array([[2.2, 0.5, 0.5], [3.2, 0.5, 0.5]])], "infinite")
        with pytest.raises(PbcJonesError, match="no arc lies inside the base cell"):
            cell_jones(PBCSystem(cell, [chain]), SamplingConfig(directions=3))

    @pytest.mark.parametrize("count", [0, -2])
    def test_normalized_needs_a_component(self, count):
        with pytest.raises(PbcJonesError, match=f"component count must be at least 1, got {count}"):
            normalized(LaurentPoly.one(), count)

    @pytest.mark.parametrize("count", [2.5, "2", True])
    def test_normalized_needs_an_integer_count(self, count):
        message = f"^component count must be an integer, got {re.escape(repr(count))}$"
        with pytest.raises(PbcJonesError, match=message):
            normalized(LaurentPoly.one(), count)

    @pytest.mark.parametrize("tol,message", [
        (math.nan, "finite and at least 0"), (-1.0, "finite and at least 0"),
        ("x", "a real number"),
    ])
    def test_cell_curves_rejects_bad_tolerance(self, tol, message):
        with pytest.raises(PbcJonesError, match=f"^tolerance must be {message}"):
            cell_curves(chainmail_system(), tol)

    def test_melt_cell_equals_periodic(self):
        system = melt_system()
        cfg = SamplingConfig(directions=60)
        cj = cell_jones(system, cfg)
        pj, link = periodic_jones(system, cfg)
        assert link.component_count == len(system.chains)
        assert cj.poly == pj.poly


class TestBoxPresence:
    def test_inside_has_presence_outside_none(self):
        frac = np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
        assert box_presence(frac, False, (0, 0, 0), (1, 1, 1)) > 0
        assert box_presence(frac + 3.0, False, (0, 0, 0), (1, 1, 1)) == 0

    def test_straddling_counts_partially(self):
        frac = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
        inside = box_presence(frac, False, (0, 0, 0), (1, 1, 1))
        assert 0 < inside < 1


class TestUnfoldingBox:
    """minimal_unfolding takes the cells where box_presence finds the image."""

    COORD = st.one_of(st.integers(-1, 2).map(float),
                      st.floats(-1.5, 2.5, allow_nan=False, allow_infinity=False))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(COORD, COORD, COORD), min_size=2, max_size=8), st.booleans())
    def test_box_spans_the_cells_with_scalar_presence(self, points, closed):
        # integer coordinates put vertices, and so whole segments, in cell faces
        frac = np.array(points, dtype=float)
        system = PBCSystem(Cell(np.eye(3), (True, True, True)), [])
        ranges = [range(int(np.floor(frac[:, ax].min())) - 2, int(np.ceil(frac[:, ax].max())) + 2)
                  for ax in range(3)]
        cells = np.array([c for c in product(*ranges)
                          if scalar_box_presence(frac, closed, np.array(c, dtype=float),
                                                 np.array(c, dtype=float) + 1.0)
                          > pbc.PRESENCE_TOL]).reshape(-1, 3)
        image = PlacedImage("c", (0, 0, 0), closed, frac)
        if not cells.shape[0]:
            with pytest.raises(PbcJonesError, match="no cell presence"):
                minimal_unfolding(system, image)
            return
        lo, hi = cells.min(axis=0), cells.max(axis=0)
        assert minimal_unfolding(system, image) == UnfoldingBox(
            tuple(lo.tolist()), tuple((hi - lo + 1).tolist()))

    def test_thread_in_a_face_takes_both_cells(self):
        # a zigzag in the face y = 0, advancing one cell along x: the face
        # belongs to the cells below and above it, so the link's images at
        # y = -1, 0 and 1 lie in the box, and copies 3 cells apart never meet
        thread = GeneratingChain("t", [[[0.0, 0.0, 0.3], [0.5, 0.0, 0.7], [1.0, 0.0, 0.3]]],
                                 "infinite")
        system = PBCSystem(Cell(np.eye(3), (True, True, False)), [thread])
        link = minimal_periodic_link(system)
        assert link.mcu == UnfoldingBox((0, -1, 0), (1, 2, 1))
        assert link.composition == {"t": [(0, -1, 0), (0, 0, 0), (0, 1, 0)]}
        for xi in sample_directions(3, "random", seed=1):
            assert slk_p(system, xi, link) == 0


def link_and_copy(system):
    """The link's curves as slk_p names them, and an unmoved copy of them."""
    link = minimal_periodic_link(system)
    base = [Curve(f"L|{im.curve_id}", im.polyline, im.closed) for im in link.images]
    moving = [Curve(f"T|{im.curve_id}", im.polyline, im.closed) for im in link.images]
    return link, base, moving


class TestTranslateKernel:
    """project_translates and slk_p against one projection per translate."""

    SYSTEMS = {"twill": twill_system, "jersey": jersey_system, "chainmail": chainmail_system}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_each_row_is_the_translate_projected_alone(self, name):
        system = self.SYSTEMS[name]()
        link, base, moving = link_and_copy(system)
        axes = [ax for ax in range(3) if system.cell.periodic[ax]]
        periods = [link.mcu.copy_period(ax) for ax in axes]
        # up to two copy periods each way, the zero translate included; open
        # images meet the link end to end at some translates
        offsets = []
        for combo in product(range(-2, 3), repeat=len(axes)):
            cells = np.zeros(3)
            cells[axes] = np.multiply(combo, periods)
            offsets.append(system.cell.translation(cells))
        dirs = list(sample_directions(4, "random", seed=11)) + [[0.3, 0.2, 1.0], [1.0, 0.1, 0.2]]
        seen = set()
        for xi in dirs:
            rows = [outcome(r) for r in project_translates(base, moving, offsets, xi)]
            alone = [projected_alone(base + [c.translated(o) for c in moving], xi)
                     for o in offsets]
            assert rows == alone
            seen.update(type(r) for r in rows)
        assert tuple in seen  # some rows give diagrams, not only errors

    def test_nudged_translates_match_the_per_translate_path(self, monkeypatch):
        # along the periodic axis every translate hides behind the link, so
        # each row fails its check and goes through the nudges
        system = chainmail_system()
        link = minimal_periodic_link(system)
        xi = [1.0, 0.0, 0.0]
        expected_tries = []

        def per_translate(curves, xi):
            diagram, _, tries = project_generic(curves, xi, 1e-9)
            expected_tries.append(tries)
            return diagram

        expected = slk_by_translate(system, link, xi, [0], per_translate)
        tries = []

        def recorded(*args):
            out = project_generic(*args)
            tries.append(out[2])
            return out

        monkeypatch.setattr(pbc, "project_generic", recorded)
        assert slk_p(system, xi, link) == expected == 2
        assert tries == expected_tries and len(tries) == 6 and all(tries)

    @pytest.mark.parametrize("name", ["twill", "jersey"])
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_slk_of_open_images_matches_one_projection_per_translate(self, name, axis,
                                                                     monkeypatch):
        system = self.SYSTEMS[name]()
        link = minimal_periodic_link(system)
        axes = [0, 1] if axis is None else [axis]
        nudged = []
        monkeypatch.setattr(pbc, "project_generic", lambda *args: nudged.append(args))
        values = []
        for xi in sample_directions(6, "random", seed=5):
            expected = slk_by_translate(system, link, xi, axes, project)
            assert slk_p(system, xi, link, axis=axis) == expected
            values.append(expected)
        # plain projections were generic, so no translate needed a nudge
        assert not nudged
        assert len(set(values)) > 1 or values[0] != 0

    @pytest.mark.parametrize("rows", [1, 10**9], ids=["one-row", "huge"])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_block_size_changes_no_result(self, name, rows, monkeypatch):
        # BLOCK_ROWS sizes the translate blocks of project_translates, and so
        # of slk_p, and the presence blocks of _present, which pbc imports
        system = self.SYSTEMS[name]()
        dirs = list(sample_directions(3, "random", seed=4)) + [[1.0, 0.0, 0.0]]
        offsets = [system.cell.translation(np.array(cells, dtype=float))
                   for cells in product(range(-1, 2), range(-1, 2), [0])]

        def results():
            link, base, moving = link_and_copy(system)
            boxes = [minimal_unfolding(system, im) for im in link.base_images.values()]
            outcomes = [outcome(r) for xi in dirs for r in project_translates(base, moving,
                                                                              offsets, xi)]
            return (link.composition, link.mcu, boxes, outcomes,
                    [slk_p(system, xi, link) for xi in dirs])

        expected = results()
        assert any(isinstance(r, str) for r in expected[3])  # some rows fail a check
        for owner in (geometry, pbc):
            monkeypatch.setattr(owner, "BLOCK_ROWS", rows)
        assert results() == expected

    def test_offsets_are_checked(self):
        _, base, moving = link_and_copy(chainmail_system())
        for bad in ([[0.0, 0.0]], [[np.inf, 0.0, 0.0]]):
            with pytest.raises(PbcJonesError, match="offsets"):
                project_translates(base, moving, bad, [0.0, 0.0, 1.0])
        assert list(project_translates(base, moving, np.zeros((0, 3)), [0.0, 0.0, 1.0])) == []

    GRID = st.one_of(st.integers(-12, 20).map(lambda k: k / 8),
                     st.floats(-1.5, 2.5, allow_nan=False, allow_infinity=False))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(GRID, GRID, GRID), min_size=3, max_size=8), st.booleans(),
           st.tuples(st.booleans(), st.booleans(), st.booleans()),
           st.tuples(*[st.integers(-1, 1)] * 3), st.tuples(*[st.integers(1, 3)] * 3))
    def test_translate_sets_match_scalar_clipping(self, points, closed, periodic, anchor, dims):
        frac = np.array(points, dtype=float)
        box = UnfoldingBox(anchor, dims)
        ranges = [range(int(np.floor(box.lo[ax] - frac[:, ax].max())) - 3,
                        int(np.ceil(box.hi[ax] - frac[:, ax].min())) + 4)
                  if periodic[ax] else range(1) for ax in range(3)]
        expected = [v for v in product(*ranges)
                    if scalar_box_presence(frac + np.array(v, dtype=float), closed,
                                           box.lo, box.hi) > pbc.PRESENCE_TOL]
        assert present_translates(Cell(np.eye(3), periodic), frac, closed, box) == expected
