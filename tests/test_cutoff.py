"""Cutoff construction and the factorization identities.

The chainmail fixture gives a single closed generating chain, periodic
along x, whose minimal link has two cells and periodic self-linking 2.
The frozen direction below keeps the projection sign-coherent (every
copy-to-copy crossing pair has equal signs), which is where the oriented
state is the unique disconnecting one.
"""

import importlib
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from oracles import oriented_smooth, reference_pieces

from pbcjones.bracket import bracket, writhe_prefactor
from pbcjones.cutoff import (_shared_states, build_cutoff, split_bracket,
                             verify_cutoff_factorization)
from pbcjones.diagram import Diagram
from pbcjones.errors import PbcJonesError
from pbcjones.fixtures import chainmail_system, melt_system, trefoil
from pbcjones.geometry import Curve, sample_directions
from pbcjones.jones3d import project_generic
from pbcjones.laurent import LaurentPoly, d_power
from pbcjones.pbc import GeneratingChain, PBCSystem

# the package attribute ``pbcjones.bracket`` is the function, not the module
bracket_mod = importlib.import_module("pbcjones.bracket")

COHERENT_XI = np.array([-0.632398, -0.322856, -0.704156])
COHERENT_XI = COHERENT_XI / np.linalg.norm(COHERENT_XI)

# brackets of large cutoffs along COHERENT_XI: N = 32 and 64 recorded by the
# DP that keyed its states by every live port rather than by the frontier, and
# N = 16, with its work counters, by the dict merge DP that
# oracles.reference_state_sum keeps
RECORDED = json.loads(Path(__file__).with_name("data")
                      .joinpath("chainmail_cutoff_brackets.json").read_text())


class TestBuildCutoff:
    def test_copy_layout(self):
        cut = build_cutoff(chainmail_system(), 3)
        assert cut.axis == 0
        assert cut.period_cells == 3
        assert len(cut.copies) == 3
        # each copy is the 3-image minimal link shifted whole
        assert all(len(c) == 3 for c in cut.copies)
        translates = {im.translate for c in cut.copies for im in c}
        assert translates == {(v, 0, 0) for v in (-1, 0, 1, 2, 3, 4, 5, 6, 7)}

    def test_cell_count_formula(self):
        m = 2  # cells in the minimal unfolding along the axis
        for n in (1, 2, 3):
            cut = build_cutoff(chainmail_system(), n)
            assert cut.cell_count == (2 * n - 1) * m - (n - 1)

    def test_rejects_bad_copy_count(self):
        with pytest.raises(PbcJonesError, match="need at least one copy, got 0"):
            build_cutoff(chainmail_system(), 0)
        with pytest.raises(PbcJonesError, match="need at least one copy, got -1"):
            verify_cutoff_factorization(chainmail_system(), -1)

    @pytest.mark.parametrize("count", [2.5, "2", True])
    def test_rejects_non_integer_copy_count(self, count):
        with pytest.raises(PbcJonesError, match="copy count must be an integer"):
            build_cutoff(chainmail_system(), count)

    def test_requires_single_closed_chain(self):
        with pytest.raises(PbcJonesError, match="single closed chain"):
            build_cutoff(melt_system(), 2)
        system = chainmail_system()
        ring = system.chains[0]
        twin = GeneratingChain("ring2", ring.arcs, ring.topology, ring.basepoint)
        doubled = PBCSystem(system.cell, (system.chains[0], twin))
        with pytest.raises(PbcJonesError, match="single closed chain"):
            build_cutoff(doubled, 2)


class TestSplitBracket:
    def test_disjoint_union_multiplies_with_loop_factor(self):
        a = trefoil()
        b = Curve("far", a.vertices + np.array([40.0, 0, 0]), True)
        both, xi_used, _ = project_generic([a, b], COHERENT_XI, 1e-9)
        one, _, _ = project_generic([a], xi_used, 1e-9)
        expected = bracket(one).poly ** 2 * d_power(1)
        assert split_bracket(both.pieces()) == expected

    def test_connected_diagram_matches_plain_bracket(self):
        diagram, _, _ = project_generic([trefoil()], COHERENT_XI, 1e-9)
        assert split_bracket(diagram.pieces()) == bracket(diagram).poly


class TestCoherentDirection:
    @pytest.mark.parametrize("n,cells,shared", [(1, 2, 0), (2, 5, 2), (3, 8, 4)])
    def test_all_identities_hold(self, n, cells, shared):
        rep = verify_cutoff_factorization(chainmail_system(), n, xi=COHERENT_XI)
        assert rep.cell_count == cells
        assert rep.shared_crossings == shared
        assert rep.slk == 2
        assert rep.shared_sign_total == 2 * (n - 1)
        assert rep.writhe_identity_ok
        assert rep.state_oracle_ok
        assert rep.sum_identity_ok
        assert rep.factorization_ok
        assert rep.states_enumerated == 2 ** shared

    def test_single_copy_is_the_base_link(self):
        rep = verify_cutoff_factorization(chainmail_system(), 1, xi=COHERENT_XI)
        assert rep.v_cutoff == rep.v_base
        assert rep.state_term == rep.v_base
        assert rep.lambda_tilde == LaurentPoly.zero()
        assert rep.disconnecting_unique_ok

    def test_state_term_recomputes_from_base(self):
        rep = verify_cutoff_factorization(chainmail_system(), 2, xi=COHERENT_XI)
        m = -int(rep.slk)  # (n-1) * slk with n = 2
        closed_form = (LaurentPoly.monomial(-1 if m % 2 else 1, 2 * m)
                       * d_power(1) * rep.v_base ** 2)
        assert rep.state_term == closed_form
        assert rep.state_term + rep.lambda_tilde == rep.v_cutoff

    def test_oriented_state_unique_when_signs_coherent(self):
        rep = verify_cutoff_factorization(chainmail_system(), 2, xi=COHERENT_XI)
        assert rep.disconnecting_unique_ok


class TestLargeCutoffs:
    """Cutoffs far past the enumeration, bracketed whole by the frontier DP.

    Their greedy crossing order is close to the least possible work, so it
    is not searched, and the DP expands about 1.25 states per crossing.
    """

    @pytest.mark.parametrize("n,states", [(32, 480), (64, 960)])
    def test_bracket_matches_the_recorded_one(self, n, states):
        curves = build_cutoff(chainmail_system(), n).all_curves()
        diagram, _, _ = project_generic(curves, COHERENT_XI, 1e-9)
        recorded = RECORDED[str(n)]
        assert len(diagram.crossings) == recorded["crossings"]
        res = bracket(diagram, crossing_cap=len(diagram.crossings))
        assert res.states_expanded == states
        assert res.poly == LaurentPoly.from_json_obj(recorded["bracket"])
        # V(A = 1) = (-2)^(c - 1) for a link of c components, summed exactly
        jones = writhe_prefactor(diagram.writhe) * res.poly
        assert sum(c for _, c in jones.terms()) == (-2) ** (len(curves) - 1)

    def test_bracket_and_counters_match_the_recorded_n16(self):
        # 190 crossings and coefficients of up to 44 bits: merges of
        # polynomials this large occur in no golden report
        curves = build_cutoff(chainmail_system(), 16).all_curves()
        diagram, _, _ = project_generic(curves, COHERENT_XI, 1e-9)
        recorded = RECORDED["16"]
        assert len(diagram.crossings) == recorded["crossings"] == 190
        res = bracket(diagram, crossing_cap=190)
        assert res.poly == LaurentPoly.from_json_obj(recorded["bracket"])
        assert res.states_expanded == recorded["states_expanded"] == 240
        assert res.peak_frontier == recorded["peak_frontier"] == 4

    def test_greedy_order_is_kept_past_search_work(self, monkeypatch):
        # at N = 86 the greedy's excess over 2n - 1, 6N + 2, passes
        # SEARCH_WORK, but the search would cost about 2n greedy runs and is
        # only tried past twice the least work
        greedy, runs = bracket_mod._greedy_order, []

        def counted(*args):
            runs.append(greedy(*args))
            return runs[-1]

        monkeypatch.setattr(bracket_mod, "_greedy_order", counted)
        curves = build_cutoff(chainmail_system(), 86).all_curves()
        diagram, _, _ = project_generic(curves, COHERENT_XI, 1e-9)
        n = len(diagram.crossings)
        assert n == 1030
        res = bracket(diagram, crossing_cap=n)
        assert len(runs) == 1
        (_, (_, work)), = runs
        assert work - (2 * n - 1) == 6 * 86 + 2 > bracket_mod.SEARCH_WORK
        assert res.states_expanded == 1290
        jones = writhe_prefactor(diagram.writhe) * res.poly
        assert sum(c for _, c in jones.terms()) == (-2) ** (len(curves) - 1)


class TestObliqueDirection:
    def test_identities_survive_cancelling_pairs(self):
        # the default direction picks up two extra shared crossings of
        # opposite sign; here the factorization still holds exactly, though
        # the disconnecting state is no longer unique.  Cancelling pairs do
        # not always leave it intact: along (0.05, 0.1, 1) the oriented
        # state leaves extra loops and state_oracle_ok and factorization_ok
        # are False (tests/golden/chainmail_cutoff_oblique.json)
        rep = verify_cutoff_factorization(chainmail_system(), 2)
        assert rep.shared_crossings == 4
        assert rep.shared_sign_total == 2
        assert rep.writhe_identity_ok
        assert rep.state_oracle_ok
        assert rep.sum_identity_ok
        assert rep.factorization_ok
        assert not rep.disconnecting_unique_ok


class TestStateEnumeration:
    def test_states_come_in_lexicographic_order(self):
        diagram, _, _ = project_generic([trefoil()], COHERENT_XI, 1e-9)
        shared = sorted(diagram.crossings)[:3]
        walked = list(_shared_states(diagram, shared))
        assert [kinds for kinds, _, _ in walked] == list(product("AB", repeat=3))
        for kinds, exp, d_state in walked:
            assert exp == kinds.count("A") - kinds.count("B")
            expected = diagram
            for cid, kind in zip(shared, kinds):
                expected = expected.smooth(cid, kind)
            assert d_state.components == expected.components
            assert d_state.crossings == expected.crossings

    @pytest.mark.parametrize("n", [2, 3])
    def test_oriented_word_is_the_sequential_oriented_smoothing(self, n):
        # the check reads the oriented state off the enumeration; smoothing
        # each shared crossing in turn along its current sign is the reference
        curves = build_cutoff(chainmail_system(), n).all_curves()
        checked = 0
        for xi in sample_directions(100, "fibonacci"):
            diagram, _, _ = project_generic(curves, xi, 1e-9)
            owner = diagram.passage_owner()
            shared = sorted(c for c in diagram.crossings
                            if owner[(c, "o")].split("|")[0] != owner[(c, "u")].split("|")[0])
            if len(shared) > 10:
                continue
            expected = diagram
            for cid in shared:
                expected = oriented_smooth(expected, cid)
            word = tuple("A" if diagram.crossings[c] > 0 else "B" for c in shared)
            (d_state,) = [d for kinds, _, d in _shared_states(diagram, shared) if kinds == word]
            assert d_state.components == expected.components
            assert d_state.crossings == expected.crossings
            checked += 1
        assert checked > 50

    def test_each_prefix_is_smoothed_once(self, monkeypatch):
        calls = []
        smooth = Diagram.smooth
        monkeypatch.setattr(Diagram, "smooth",
                            lambda d, cid, kind: calls.append(cid) or smooth(d, cid, kind))
        rep = verify_cutoff_factorization(chainmail_system(), 3, xi=COHERENT_XI)
        s = rep.shared_crossings
        assert s == 4 and rep.states_enumerated == 2 ** s
        # the walk's tree, which holds the oriented state
        assert len(calls) == 2 ** (s + 1) - 2

    def test_each_state_is_split_once_into_valid_pieces(self, monkeypatch):
        split = []
        pieces = Diagram.pieces

        def counted(d):
            out = pieces(d)
            split.append(out)
            return out

        monkeypatch.setattr(Diagram, "pieces", counted)
        rep = verify_cutoff_factorization(chainmail_system(), 3, xi=COHERENT_XI)
        # every enumerated state, the oriented one among them
        assert len(split) == rep.states_enumerated == 16
        for piece in (p for out in split for p in out):
            piece._validate()  # pieces are built with Diagram.trusted

    def test_every_state_splits_as_the_per_piece_scan(self, monkeypatch):
        states = []
        pieces = Diagram.pieces
        monkeypatch.setattr(Diagram, "pieces", lambda d: states.append(d) or pieces(d))
        rep = verify_cutoff_factorization(chainmail_system(), 3, xi=COHERENT_XI)
        assert len(states) == rep.states_enumerated == 16
        for d in states:
            assert [([c.id for c in p.components], list(p.crossings.items()))
                    for p in pieces(d)] == reference_pieces(d)


class TestLimits:
    def test_enumeration_cap(self):
        with pytest.raises(PbcJonesError, match="enumeration cap"):
            verify_cutoff_factorization(chainmail_system(), 2, xi=COHERENT_XI,
                                        enumerate_cap=1)

    @pytest.mark.parametrize("cap, message", [
        ({"enumerate_cap": -3}, "^enumerate_cap must be at least 0, got -3$"),
        ({"crossing_cap": -1}, "^crossing_cap must be at least 0, got -1$"),
        ({"enumerate_cap": 2.5}, "^enumerate_cap must be an integer, got 2.5$"),
    ])
    def test_bad_caps_rejected_up_front(self, cap, message):
        with pytest.raises(PbcJonesError, match=message):
            verify_cutoff_factorization(chainmail_system(), 2, xi=COHERENT_XI, **cap)

    def test_report_serializes(self):
        rep = verify_cutoff_factorization(chainmail_system(), 1, xi=COHERENT_XI)
        obj = rep.to_json_obj()
        assert obj["slk"] == "2"
        assert obj["factorization_ok"] is True
        assert obj["v_base"]["mode"] == "exact"
