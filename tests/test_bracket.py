import importlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import brute_bracket

from pbcjones.bracket import bracket, jones_of_diagram
from pbcjones.cutoff import build_cutoff, split_bracket
from pbcjones.diagram import Component, Diagram, terminal_graph
from pbcjones.errors import PbcJonesError, StateSumTooLargeError
from pbcjones.fixtures import (chainmail_system, figure_eight, hopf_link, jersey_system,
                               trefoil)
from pbcjones.geometry import Curve, sample_directions
from pbcjones.jones3d import project_generic
from pbcjones.laurent import LaurentPoly, d_power
from pbcjones.pbc import link_curves, minimal_periodic_link

# the package attribute ``pbcjones.bracket`` is the function, not the module
bracket_mod = importlib.import_module("pbcjones.bracket")


def project(curves, seed):
    xi = sample_directions(1, "random", seed=seed)[0]
    diagram, _, _ = project_generic(list(curves), xi, 1e-9, 100)
    return diagram


def random_open_tangle(seed, n_curves=2, n_pts=6):
    rng = np.random.default_rng(seed)
    return [Curve(f"w{i}", rng.uniform(-1.0, 1.0, (n_pts, 3)), False)
            for i in range(n_curves)]


class TestBaseCases:
    def test_empty_diagram(self):
        res = bracket(Diagram([], {}))
        assert res.poly == LaurentPoly.one()

    @pytest.mark.parametrize("loops", [1, 2, 3])
    def test_crossingless_loops(self, loops):
        comps = [Component(f"a{i}", True, ()) for i in range(loops)]
        assert bracket(Diagram(comps, {})).poly == d_power(loops - 1)

    def test_single_open_strand(self):
        d = Diagram([Component("s", False, ())], {})
        assert bracket(d).poly == LaurentPoly.one()

    def test_split_curve_chains_through_closures_to_one_loop(self):
        # a curve cut in two: pieces and closures chain into a single cycle
        comps = [
            Component("x", False, (), ends=(("p", "tail"), ("q", "tail"))),
            Component("y", False, (), ends=(("p", "head"), ("q", "head"))),
        ]
        assert bracket(Diagram(comps, {})).poly == LaurentPoly.one()

    @pytest.mark.parametrize("free", [0, 1, 2])
    def test_last_crossing_empties_frontier_beside_free_loops(self, free):
        # the frontier key shrinks to () at the last crossing, which counts
        # one loop fewer in place of a division by the loop value; the
        # crossingless loops still multiply in afterwards
        loops = [Component(f"f{i}", True, ()) for i in range(free)]
        for sign in (1, -1):
            for closed in (True, False):  # a kink on a loop, then on an open strand
                kink = Component("k", closed, (("c", "o"), ("c", "u")))
                d = Diagram([kink] + loops, {"c": sign})
                res = bracket(d)
                assert res.poly == brute_bracket(d)
                assert res.poly == bracket(Diagram([kink], {"c": sign})).poly * d_power(free)


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(4))
    def test_hopf_projection(self, seed):
        d = project(hopf_link(), seed)
        assert bracket(d).poly == brute_bracket(d)

    @pytest.mark.parametrize("seed", range(4))
    def test_trefoil_projection(self, seed):
        d = project([trefoil()], seed)
        assert bracket(d).poly == brute_bracket(d)

    def test_figure_eight_projection(self, seed=3):
        d = project([figure_eight()], seed)
        assert len(d.crossings) >= 8
        assert bracket(d).poly == brute_bracket(d)

    def test_chainmail_base_projection(self):
        link = minimal_periodic_link(chainmail_system())
        d = project(link_curves(link), 7)
        assert bracket(d).poly == brute_bracket(d)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_open_tangles(self, seed):
        d = project(random_open_tangle(seed), seed)
        if len(d.crossings) > 12:
            pytest.skip("tangle too big for the enumeration oracle")
        assert bracket(d).poly == brute_bracket(d)

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_mixed_open_closed(self, seed):
        curves = random_open_tangle(seed, n_curves=1, n_pts=5) + [trefoil()]
        d = project(curves, seed + 10)
        if len(d.crossings) > 12:
            pytest.skip("tangle too big for the enumeration oracle")
        assert bracket(d).poly == brute_bracket(d)


class TestCapAndAccounting:
    def test_cap_raises_with_counts(self):
        d = project([figure_eight()], 0)
        with pytest.raises(StateSumTooLargeError):
            bracket(d, crossing_cap=len(d.crossings) - 1)

    def test_cap_boundary_is_inclusive(self):
        d = project(hopf_link(), 0)
        bracket(d, crossing_cap=len(d.crossings))  # no raise

    @pytest.mark.parametrize("cap, message", [
        (-1, "crossing_cap must be at least 0, got -1"),
        (True, "crossing_cap must be an integer, got True"),
        (2.5, "crossing_cap must be an integer, got 2.5"),
    ])
    @pytest.mark.parametrize("solve", [bracket, jones_of_diagram,
                                       lambda d, cap: split_bracket(d.pieces(), cap)],
                             ids=["bracket", "jones_of_diagram", "split_bracket"])
    def test_bad_cap_rejected(self, cap, message, solve):
        d = project(hopf_link(), 0)
        with pytest.raises(PbcJonesError, match=f"^{re.escape(message)}$"):
            solve(d, cap)

    def test_merging_reports_cache_hits(self):
        d = project([figure_eight()], 3)
        res = bracket(d)
        assert res.states_expanded > 0
        assert res.cache_hits > 0

    # counts of the kernel under the current crossing order; a kernel rewrite
    # must reproduce them, an order change must re-pin them.  The first three
    # stay below SEARCH_WORK and keep the greedy order's counts; the jersey
    # diagram is searched and needed 20060 states under the greedy order.
    @pytest.mark.parametrize("make,seed,crossings,states,hits", [
        (lambda: [trefoil()], 1, 4, 8, 7),
        (lambda: [figure_eight()], 3, 14, 54, 53),
        (lambda: link_curves(minimal_periodic_link(chainmail_system())), 7, 14, 22, 21),
        (lambda: link_curves(minimal_periodic_link(jersey_system())), 23, 63, 2886, 2885),
    ], ids=["trefoil", "figure_eight", "chainmail_base", "jersey"])
    def test_work_counters_are_pinned(self, make, seed, crossings, states, hits):
        d = project(make(), seed)
        assert len(d.crossings) == crossings
        res = bracket(d, crossing_cap=crossings)
        assert (res.states_expanded, res.cache_hits) == (states, hits)
        assert res.states_expanded < 20060

    def test_deterministic_across_calls(self):
        d = project([trefoil()], 1)
        r1, r2 = bracket(d), bracket(d)
        assert r1.poly == r2.poly
        assert r1.states_expanded == r2.states_expanded


def jersey_diagram(seed):
    return project(link_curves(minimal_periodic_link(jersey_system())), seed)


def chainmail_cutoff_diagram(copies):
    return project(build_cutoff(chainmail_system(), copies).all_curves(), 0)


def strand_of(d):
    tg = terminal_graph(d)
    n = len(tg.crossing_ids)
    return n, tuple(tg.strand[p] for p in range(4 * n))


def predicted_work(strand, order):
    """(peak, sum of 2^(cut/2)) over the strand edges leaving the solved set after each step."""
    solved, cuts = set(), []
    for c in order:
        solved.add(c)
        cuts.append(sum(p // 4 in solved and q // 4 not in solved for p, q in enumerate(strand)))
    return max(cuts), sum(2 ** (k // 2) for k in cuts)


class TestCrossingOrder:
    # the greedy work of jersey seed 23 exceeds twice the least work,
    # 2 * (2n - 1), by more than SEARCH_WORK; seeds 3, 5 and 26 stay within it
    @pytest.mark.parametrize("seed", [23, 3, 5, 26])
    def test_order_is_a_permutation_no_worse_than_greedy(self, seed, monkeypatch):
        n, strand = strand_of(jersey_diagram(seed))
        chosen = bracket_mod._crossing_order(n, strand)
        limit = bracket_mod.SEARCH_WORK
        monkeypatch.setattr(bracket_mod, "SEARCH_WORK", float("inf"))
        greedy = bracket_mod._crossing_order(n, strand)
        assert sorted(chosen) == sorted(greedy) == list(range(n))
        work = predicted_work(strand, greedy)
        assert predicted_work(strand, chosen) <= work
        assert (chosen == greedy) == (work[1] - 2 * (2 * n - 1) <= limit)

    @pytest.mark.parametrize("make,arg", [
        *[(jersey_diagram, seed) for seed in (23, 3, 5, 26)],
        (chainmail_cutoff_diagram, 8),
    ], ids=["jersey23", "jersey3", "jersey5", "jersey26", "chainmail_cutoff8"])
    def test_peak_frontier_is_the_peak_cut_of_the_order(self, make, arg):
        # states are keyed by frontier ports alone, so the longest key is
        # the widest cut that the chosen order passes through
        d = make(arg)
        n, strand = strand_of(d)
        peak, _ = predicted_work(strand, bracket_mod._crossing_order(n, strand))
        assert bracket(d, crossing_cap=n).peak_frontier == peak

    def test_min_delta_runs_are_part_of_the_search(self):
        # a 70-crossing view of jersey: the score tie-break alone reaches
        # (12, 1897), only a min-delta run reaches (12, 1881)
        xi = sample_directions(200, "fibonacci")[100]
        d, _, _ = project_generic(link_curves(minimal_periodic_link(jersey_system())),
                                  xi, 1e-9, 100)
        n, strand = strand_of(d)
        assert n == 70
        assert predicted_work(strand, bracket_mod._crossing_order(n, strand)) == (12, 1881)

    def test_searching_every_diagram_keeps_the_jersey_bracket(self, monkeypatch):
        d = jersey_diagram(5)
        n, strand = strand_of(d)
        greedy, ref = bracket_mod._crossing_order(n, strand), bracket(d, crossing_cap=64)
        monkeypatch.setattr(bracket_mod, "SEARCH_WORK", float("-inf"))
        assert bracket_mod._crossing_order(n, strand) != greedy
        assert bracket(d, crossing_cap=64).poly == ref.poly

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(4, 7), st.booleans())
    def test_searched_order_matches_enumeration(self, seed, n_curves, n_pts, closed):
        curves = [Curve(c.id, c.vertices, closed)
                  for c in random_open_tangle(seed, n_curves, n_pts)]
        d = project(curves, seed)
        assume(1 <= len(d.crossings) <= 8)
        old = bracket_mod.SEARCH_WORK
        bracket_mod.SEARCH_WORK = float("-inf")  # the excess over 2n - 1 may be <= 0
        try:
            res = bracket(d)
        finally:
            bracket_mod.SEARCH_WORK = old
        assert res.poly == brute_bracket(d)


class TestSkeinRelation:
    """<D> = A <D_A> + A^-1 <D_B> at every crossing: ``Diagram.smooth``
    makes the two states and ``bracket`` reads them through
    ``terminal_graph``, so each walk checks the other."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(3, 6), st.booleans())
    def test_every_crossing_satisfies_the_skein_relation(self, seed, n_curves, n_pts, closed):
        curves = [Curve(c.id, c.vertices, closed)
                  for c in random_open_tangle(seed, n_curves, n_pts)]
        d = project(curves, seed)
        assume(1 <= len(d.crossings) <= 12)
        whole = bracket(d).poly
        a, a_inv = LaurentPoly.monomial(1, 1), LaurentPoly.monomial(1, -1)
        for cid in d.crossings:
            assert (a * bracket(d.smooth(cid, "A")).poly
                    + a_inv * bracket(d.smooth(cid, "B")).poly) == whole, cid


class TestWritheNormalization:
    def test_jones_of_diagram_matches_manual_prefactor(self):
        d = project(hopf_link(), 2)
        w = d.writhe
        pref = LaurentPoly.monomial((-1) ** (w % 2), -3 * w)
        assert jones_of_diagram(d) == pref * bracket(d).poly

    def test_projection_independent_for_closed_curves(self):
        values = {jones_of_diagram(project([trefoil()], s)) for s in range(5)}
        assert len(values) == 1


def fields(res):
    return res.poly, res.states_expanded, res.cache_hits


def renamed(d):
    """The same closed-curve diagram under new component ids."""
    return Diagram([Component("r" + c.id, c.closed, c.passages) for c in d.components],
                   d.crossings)


def tg_key(d):
    tg = terminal_graph(d)
    return (tg.strand, tuple(d.crossings[c] for c in tg.crossing_ids), tg.free_loops)


def given_key(d):
    return (d.components, tuple(d.crossings.items()))


def memo_pool():
    """Diagrams of up to 7 crossings, repeats of one another under new
    names, new objects or flipped signs, one crossingless diagram and two
    that a cap of 7 refuses."""
    base = [project([trefoil()], 1), project(hopf_link(), 0), project([figure_eight()], 0),
            project(random_open_tangle(0), 0)]
    assert all(0 < len(d.crossings) <= 7 for d in base)
    first = sorted(base[0].crossings)[0]
    return base + [
        Diagram(base[0].components, base[0].crossings),  # equal, a new object
        renamed(base[0]),
        renamed(base[1]),
        Diagram(base[0].components, {c: -s if c == first else s
                                     for c, s in base[0].crossings.items()}),
        Diagram([Component("loop", True, ())], {}),
        project([figure_eight()], 3),  # 14 crossings
        chainmail_cutoff_diagram(1),  # 17 crossings
    ]


class TestMemo:
    CAP = 7

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_sequence_matches_memo_less_bracket(self, seed, monkeypatch):
        pool = memo_pool()
        rng = np.random.default_rng(seed)
        sequence = [pool[i] for i in rng.integers(0, len(pool), 40)] + pool + pool
        fresh = {id(d): None if len(d.crossings) > self.CAP else fields(bracket(d))
                 for d in pool}
        keys = {id(d): tg_key(d) for d in pool if d.crossings}
        calls = []
        graph = bracket_mod.terminal_graph
        monkeypatch.setattr(bracket_mod, "terminal_graph", lambda d: calls.append(d) or graph(d))
        memo, stored = {}, set()
        for d in sequence:
            before = len(calls)
            if fresh[id(d)] is None:
                with pytest.raises(StateSumTooLargeError):
                    bracket(d, self.CAP, memo=memo)
                assert len(calls) == before  # the cap is checked first
                continue
            assert fields(bracket(d, self.CAP, memo=memo)) == fresh[id(d)]
            if given_key(d) in stored:
                assert len(calls) == before
                continue
            assert len(calls) == before + 1
            if d.crossings:
                stored.add(given_key(d))
        # each miss stored its terminal-graph key beside its as-given key
        assert set(memo) == {keys[id(d)] for d in pool if id(d) in keys
                             and fresh[id(d)] is not None} | stored

    def test_repeat_builds_no_terminal_graph(self, monkeypatch):
        d = project([trefoil()], 1)
        calls = []
        graph = bracket_mod.terminal_graph
        monkeypatch.setattr(bracket_mod, "terminal_graph", lambda d: calls.append(d) or graph(d))
        memo = {}
        results = [bracket(d, memo=memo) for _ in range(4)]
        assert len(calls) == 1
        assert all(r is results[0] for r in results)
        assert memo == {tg_key(d): results[0], given_key(d): results[0]}

    def test_distinct_diagrams_store_both_keys(self):
        pool = memo_pool()[:4]
        memo = {}
        for d in pool:
            bracket(d, memo=memo)
        assert set(memo) == {tg_key(d) for d in pool} | {given_key(d) for d in pool}

    def test_both_kinds_of_key_count_toward_the_limit(self, monkeypatch):
        monkeypatch.setattr(bracket_mod, "MEMO_LIMIT", 5)
        pool = memo_pool()[:4]
        memo = {}
        for d in pool[:2] + pool[:2] + pool + pool:
            assert fields(bracket(d, memo=memo)) == fields(bracket(d))
            assert len(memo) <= 5
        # two misses store two keys each; a third pair would pass the limit
        assert set(memo) == {tg_key(pool[0]), given_key(pool[0]),
                             tg_key(pool[1]), given_key(pool[1])}

    @pytest.mark.parametrize("make,seed", [
        (lambda: [trefoil()], 1),
        (lambda: link_curves(minimal_periodic_link(jersey_system())), 5),
    ], ids=["trefoil", "jersey"])
    def test_hit_equals_fresh_bracket(self, make, seed):
        d = project(make(), seed)
        memo = {}
        first = bracket(d, crossing_cap=64, memo=memo)
        r = renamed(d)
        hit = bracket(r, crossing_cap=64, memo=memo)
        # the renamed repeat misses the as-given key, hits the terminal-graph
        # key, and stores its own as-given key beside the first one
        assert memo == {tg_key(d): first, given_key(d): first, given_key(r): first}
        assert hit is first
        assert fields(hit) == fields(bracket(d, crossing_cap=64))

    def test_sign_and_free_loops_are_part_of_the_key(self):
        d = project([figure_eight()], 3)
        flip = sorted(d.crossings)[0]
        flipped = Diagram(d.components, {c: -s if c == flip else s
                                         for c, s in d.crossings.items()})
        looser = Diagram(d.components + (Component("loose", True, ()),), d.crossings)
        memo = {}
        results = [bracket(x, memo=memo) for x in (d, flipped, looser)]
        assert len({tg_key(x) for x in (d, flipped, looser)}) == 3
        assert len(memo) == 6
        for x, res in zip((d, flipped, looser), results):
            assert fields(res) == fields(bracket(x))
        assert results[2].poly == results[0].poly * d_power(1)
        assert results[1].poly != results[0].poly

    def test_memo_stops_storing_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(bracket_mod, "MEMO_LIMIT", 2)
        diagrams = [project([trefoil()], 1), project([figure_eight()], 3),
                    project(hopf_link(), 0), project([figure_eight()], 0)]
        memo = {}
        for _ in range(2):
            for d in diagrams:
                assert fields(bracket(d, memo=memo)) == fields(bracket(d))
                assert len(memo) <= 2
        assert len(memo) == 2
