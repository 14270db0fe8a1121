import builtins
import importlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import brute_bracket, reference_crossing_order, reference_state_sum

from pbcjones.bracket import bracket, jones_of_diagram
from pbcjones.cutoff import _shared_states, build_cutoff, split_bracket
from pbcjones.diagram import Component, Diagram, reidemeister_reduce, terminal_graph
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
    diagram, _, _ = project_generic(list(curves), xi, 1e-9)
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

    # counts of the kernel on the reduced diagram, its crossings named in
    # walk order, under the current crossing order; a kernel rewrite must
    # reproduce them, a change to the reduction, its names or the order must
    # re-pin them.  The first three stay below SEARCH_WORK and keep the
    # greedy order's counts; the reduced jersey diagram is searched and
    # needed 11712 states under the greedy order.
    @pytest.mark.parametrize("make,seed,crossings,reduced,states,hits", [
        (lambda: [trefoil()], 1, 4, 4, 8, 7),
        (lambda: [figure_eight()], 3, 14, 5, 10, 9),
        (lambda: link_curves(minimal_periodic_link(chainmail_system())), 7, 14, 5, 8, 7),
        (lambda: link_curves(minimal_periodic_link(jersey_system())), 23, 63, 43, 1007, 1006),
    ], ids=["trefoil", "figure_eight", "chainmail_base", "jersey"])
    def test_work_counters_are_pinned(self, make, seed, crossings, reduced, states, hits):
        d = project(make(), seed)
        assert len(d.crossings) == crossings
        assert len(reidemeister_reduce(d).crossings) == reduced
        res = bracket(d, crossing_cap=crossings)
        assert (res.states_expanded, res.cache_hits) == (states, hits)
        assert res.states_expanded < 11712

    def test_reduction_is_no_wider_than_the_projected_diagram(self):
        # under the projection's crossing names, this view's reduction took
        # 312 states at a peak cut of 10; named in walk order it takes fewer
        # than the diagram as projected
        d = jersey_diagram(26)
        assert (len(d.crossings), len(reidemeister_reduce(d).crossings)) == (24, 18)
        res = bracket(d, crossing_cap=24)
        assert (res.states_expanded, res.peak_frontier) == (187, 6)
        whole = bracket_mod._state_sum(*state_sum_args(d))
        assert (whole.states_expanded, whole.peak_frontier) == (237, 6)
        assert whole.poly == res.poly

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
        # the widest cut that the chosen order of the reduced diagram passes
        # through
        d = make(arg)
        n, strand = strand_of(reidemeister_reduce(d))
        assert n < len(d.crossings)
        peak, _ = predicted_work(strand, bracket_mod._crossing_order(n, strand))
        assert bracket(d, crossing_cap=len(d.crossings)).peak_frontier == peak

    def test_min_delta_runs_are_part_of_the_search(self):
        # a 70-crossing view of jersey: the score tie-break alone reaches
        # (12, 1897), only a min-delta run reaches (12, 1881)
        xi = sample_directions(200, "fibonacci")[100]
        d, _, _ = project_generic(link_curves(minimal_periodic_link(jersey_system())),
                                  xi, 1e-9)
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


@st.composite
def strand_matchings(draw, max_n=60):
    """(strand, signs, free loops) of n <= ``max_n`` crossings.

    ``strand`` is a perfect matching of the 4n ports, as a terminal graph
    holds it.  Kinks pair two ports of one crossing, and the crossings
    split into up to four parts that share no strand.  Every other port
    pairs with one of the next ``window`` unpaired ports of its part, so
    the frontier stays narrow enough for 60 crossings; the crossing
    indices are shuffled afterwards.
    """
    n = draw(st.integers(1, max_n))
    window = draw(st.integers(1, 16))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    strand = [-1] * (4 * n)
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n // 3 + 1)):
        a, b = draw(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
        strand[4 * c + a], strand[4 * c + b] = 4 * c + b, 4 * c + a
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        free = [p for p in range(4 * lo, 4 * hi) if strand[p] < 0]
        while free:
            p = free.pop(0)
            q = free.pop(draw(st.integers(0, min(window, len(free)) - 1)))
            strand[p], strand[q] = q, p
    label = draw(st.permutations(range(n)))
    moved = [0] * (4 * n)
    for p, q in enumerate(strand):
        moved[4 * label[p // 4] + p % 4] = 4 * label[q // 4] + q % 4
    signs = tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    return tuple(moved), signs, draw(st.integers(0, 2))


class TestAgainstDictDP:
    """The DP against ``oracles.reference_state_sum``, the dict merge loop
    that it replaced, and the crossing order against the tuple-keyed heap."""

    @settings(max_examples=150, deadline=None)
    @given(strand_matchings())
    def test_searched_order_matches_tuple_keyed_heap(self, case):
        strand, signs, _ = case
        n = len(signs)
        # a search work of 0 searches every diagram whose greedy sum exceeds
        # twice the least work, so both tie-breaks run from every start
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bracket_mod, "SEARCH_WORK", 0)
            assert bracket_mod._crossing_order(n, strand) == reference_crossing_order(n, strand, 0)

    @settings(max_examples=80, deadline=None)
    @given(strand_matchings())
    def test_state_sum_matches_dict_dp(self, case):
        res = bracket_mod._state_sum(*case)
        ref = reference_state_sum(*case, bracket_mod.SEARCH_WORK)
        assert (res.poly, res.states_expanded, res.peak_frontier) == ref

    @pytest.mark.parametrize("make", [
        # the Hopf link's strand with opposite signs, an unlink of two loops:
        # the last crossing's first successor closes no loop and shares its
        # parent's dict, and the next one merges into it
        lambda: ((7, 6, 5, 4, 3, 2, 1, 0), (1, -1), 0),
        lambda: state_sum_args(jersey_diagram(5)),
    ], ids=["unlink", "jersey5"])
    def test_shared_dicts_are_copied_before_a_merge(self, make, monkeypatch):
        case = make()
        copies = []

        def counting(*args):
            copies.extend(args)
            return builtins.dict(*args)

        monkeypatch.setattr(bracket_mod, "dict", counting, raising=False)
        res = bracket_mod._state_sum(*case)
        monkeypatch.undo()
        assert copies
        ref = reference_state_sum(*case, bracket_mod.SEARCH_WORK)
        assert (res.poly, res.states_expanded, res.peak_frontier) == ref


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
    return res.poly, res.states_expanded, res.peak_frontier


def renamed(d):
    """The same diagram under new component ids; end labels keep their owners."""
    return Diagram([Component("r" + c.id, c.closed, c.passages, c.ends) for c in d.components],
                   d.crossings)


def state_sum_args(d):
    tg = terminal_graph(d)
    return (tg.strand, tuple(d.crossings[c] for c in tg.crossing_ids), tg.free_loops)


def memo_key(d):
    """The bracket memo's key: the diagram less its component ids."""
    return (tuple((c.closed, c.passages, c.ends) for c in d.components),
            tuple(d.crossings.items()))


def counted_terminal_graphs(monkeypatch):
    """The diagrams that ``bracket`` builds a terminal graph of from now on."""
    calls = []
    graph = bracket_mod.terminal_graph
    monkeypatch.setattr(bracket_mod, "terminal_graph", lambda d: calls.append(d) or graph(d))
    return calls


def contents(diagrams):
    return [(x.components, x.crossings) for x in diagrams]


def memo_pool():
    """Diagrams of up to 7 crossings, repeats of one another under new
    names or as new objects, one with a flipped sign, one crossingless
    diagram and two that a cap of 7 refuses."""
    base = [project([trefoil()], 1), project(hopf_link(), 0), project([figure_eight()], 0),
            project(random_open_tangle(0), 0)]
    assert all(0 < len(d.crossings) <= 7 for d in base)
    first = sorted(base[0].crossings)[0]
    return base + [
        Diagram(base[0].components, base[0].crossings),  # equal, a new object
        renamed(base[0]),
        renamed(base[1]),
        renamed(base[3]),
        Diagram(base[0].components, {c: -s if c == first else s
                                     for c, s in base[0].crossings.items()}),
        Diagram([Component("loop", True, ())], {}),
        project([figure_eight()], 3),  # 14 crossings
        chainmail_cutoff_diagram(1),  # 17 crossings
    ]


def sign_flipped(d):
    """``d`` with the sign of its first crossing in sorted order flipped."""
    flip = sorted(d.crossings)[0]
    return Diagram(d.components, {c: -s if c == flip else s for c, s in d.crossings.items()})


def with_loose(d, is_closed):
    """``d`` and a component without passages: a free loop, closed or open."""
    return Diagram(d.components + (Component("loose", is_closed, ()),), d.crossings)


def heads_swapped(d):
    """Two open strands whose heads swap owners: the same passages close
    through other virtual closures."""
    x, y = d.components
    return Diagram([Component(x.id, False, x.passages, (x.ends[0], y.ends[1])),
                    Component(y.id, False, y.passages, (y.ends[0], x.ends[1]))], d.crossings)


class TestMemo:
    CAP = 7

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_sequence_matches_memo_less_bracket(self, seed, monkeypatch):
        pool = memo_pool()
        rng = np.random.default_rng(seed)
        sequence = [pool[i] for i in rng.integers(0, len(pool), 40)] + pool + pool
        fresh = {id(d): None if len(d.crossings) > self.CAP else fields(bracket(d))
                 for d in pool}
        calls = counted_terminal_graphs(monkeypatch)
        memo = {}
        for d in sequence:
            before = len(calls)
            if fresh[id(d)] is None:
                with pytest.raises(StateSumTooLargeError):
                    bracket(d, self.CAP, memo=memo)
                assert len(calls) == before  # the cap is checked first
                continue
            hit = memo_key(d) in memo
            assert fields(bracket(d, self.CAP, memo=memo)) == fresh[id(d)]
            # a miss builds one terminal graph, a hit none
            assert len(calls) == before + (not hit)
        solved = [d for d in pool if fresh[id(d)] is not None]
        # one key per diagram up to component ids, the crossingless one included
        assert set(memo) == {memo_key(d) for d in solved}
        assert len(memo) == len(solved) - 4

    def test_repeat_builds_no_terminal_graph(self, monkeypatch):
        d = project([trefoil()], 1)
        calls = counted_terminal_graphs(monkeypatch)
        memo = {}
        results = [bracket(x, memo=memo) for x in (d, d, Diagram(d.components, d.crossings), d)]
        assert contents(calls) == contents([reidemeister_reduce(d)])
        assert all(r is results[0] for r in results)
        assert memo == {memo_key(d): results[0]}

    def test_distinct_diagrams_store_one_key_each(self):
        pool = memo_pool()[:4] + [Diagram([Component("loop", True, ())], {})]
        memo = {}
        results = [bracket(d, memo=memo) for d in pool]
        assert memo == {memo_key(d): res for d, res in zip(pool, results)}

    @pytest.mark.parametrize("make,seed", [
        (lambda: [trefoil()], 1),
        (lambda: link_curves(minimal_periodic_link(jersey_system())), 5),
        (lambda: random_open_tangle(0), 0),
    ], ids=["trefoil", "jersey", "open"])
    def test_hit_equals_fresh_bracket(self, make, seed, monkeypatch):
        d = project(make(), seed)
        expected = fields(bracket(d, crossing_cap=64))
        calls = counted_terminal_graphs(monkeypatch)
        memo = {}
        first = bracket(d, crossing_cap=64, memo=memo)
        r = renamed(d)
        assert [c.id for c in r.components] != [c.id for c in d.components]
        hit = bracket(r, crossing_cap=64, memo=memo)
        # the renamed repeat hits the first diagram's key without a terminal graph
        assert contents(calls) == contents([reidemeister_reduce(d)])
        assert memo == {memo_key(d): first} and memo_key(r) == memo_key(d)
        assert hit is first
        assert fields(hit) == expected

    def test_sign_and_free_loops_are_part_of_the_key(self):
        d = project([figure_eight()], 3)
        flipped, looser = sign_flipped(d), with_loose(d, True)
        memo = {}
        results = [bracket(x, memo=memo) for x in (d, flipped, looser)]
        assert len(memo) == 3
        for x, res in zip((d, flipped, looser), results):
            assert fields(res) == fields(bracket(x))
        assert results[2].poly == results[0].poly * d_power(1)
        assert results[1].poly != results[0].poly

    def test_end_label_pairing_is_part_of_the_key(self):
        d = project(random_open_tangle(0), 0)
        swapped = heads_swapped(d)
        memo = {}
        results = [bracket(z, memo=memo) for z in (d, swapped)]
        assert len(memo) == 2
        for z, res in zip((d, swapped), results):
            assert fields(res) == fields(bracket(z))
        assert results[0].poly != results[1].poly

    def test_sign_ends_and_closedness_split_reduced_diagrams(self):
        # the direction average keys its memo on reductions: diagrams whose
        # reductions differ in a sign, an end label or closedness stay apart
        d, tangle = project([figure_eight()], 3), project(random_open_tangle(0), 0)
        variants = [reidemeister_reduce(x) for x in (
            d, sign_flipped(d), with_loose(d, True), with_loose(d, False),
            tangle, heads_swapped(tangle))]
        memo = {}
        results = [bracket(x, memo=memo) for x in variants]
        assert len(memo) == len(variants)
        for x, res in zip(variants, results):
            assert fields(res) == fields(bracket(x))
        plain, flipped, closed_loop, open_loop, untouched, swapped = (r.poly for r in results)
        assert closed_loop == open_loop == plain * d_power(1)
        assert flipped != plain and swapped != untouched

    def test_equal_keys_give_equal_results_over_cutoff_pieces(self):
        # every piece of every shared-crossing state of the N = 3 chainmail cutoff
        diagram = chainmail_cutoff_diagram(3)
        owner = diagram.passage_owner()
        copy = {cid: (owner[(cid, "o")].split("|")[0], owner[(cid, "u")].split("|")[0])
                for cid in diagram.crossings}
        shared = sorted(cid for cid, (over, under) in copy.items() if over != under)
        assert len(shared) == 8
        by_key = {}
        for _, _, d_state in _shared_states(diagram, shared):
            for piece in d_state.pieces():
                by_key.setdefault(memo_key(piece), []).append(piece)
        renames = 0
        for pieces in by_key.values():
            assert len({fields(bracket(p, 64)) for p in pieces}) == 1
            renames += len({tuple(c.id for c in p.components) for p in pieces}) > 1
        assert renames  # some key is met under more than one set of component ids

    def test_crossingless_diagrams_count_toward_the_limit(self, monkeypatch):
        monkeypatch.setattr(bracket_mod, "MEMO_LIMIT", 3)
        loops = [Diagram([Component(f"a{j}", True, ()) for j in range(k)], {}) for k in (1, 2)]
        pool = loops + memo_pool()[:3]
        memo = {}
        for d in pool + pool:
            assert fields(bracket(d, memo=memo)) == fields(bracket(d))
            assert len(memo) <= 3
        assert set(memo) == {memo_key(d) for d in pool[:3]}

    def test_memo_stops_storing_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(bracket_mod, "MEMO_LIMIT", 2)
        diagrams = [project([trefoil()], 1), project([figure_eight()], 3),
                    project(hopf_link(), 0), project([figure_eight()], 0)]
        expected = [fields(bracket(d)) for d in diagrams]
        calls = counted_terminal_graphs(monkeypatch)
        memo = {}
        for _ in range(2):
            for d, fresh in zip(diagrams, expected):
                assert fields(bracket(d, memo=memo)) == fresh
                assert len(memo) <= 2
        assert set(memo) == {memo_key(d) for d in diagrams[:2]}
        # the two stored diagrams hit on the second round; the others are solved again
        assert contents(calls) == contents(map(reidemeister_reduce, diagrams + diagrams[2:]))
