import importlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (brute_bracket, gauss_code, insert_moves, mirror, oriented_smooth, port,
                     reference_pieces, reverse_component, scale_exponents)

from pbcjones.bracket import bracket, jones_of_diagram, writhe_prefactor
from pbcjones.diagram import (OI, OO, UI, UO, Component, Diagram, reidemeister_reduce,
                              smoothing_joins, terminal_graph)
from pbcjones.errors import PbcJonesError
from pbcjones.fixtures import figure_eight, hopf_link, open_trefoil, trefoil
from pbcjones.geometry import Curve, sample_directions
from pbcjones.jones3d import project_generic
from pbcjones.laurent import LaurentPoly, d_poly, d_power

# the package attribute ``pbcjones.bracket`` is the function, not the module
bracket_mod = importlib.import_module("pbcjones.bracket")


def closed(cid, *passages):
    return Component(cid, True, tuple(passages))


def strand(cid, *passages):
    return Component(cid, False, tuple(passages))


def shape(d):
    return [(c.id, c.closed, c.passages, c.ends) for c in d.components]


def kink(sign):
    return Diagram([closed("k", ("c", "o"), ("c", "u"))], {"c": sign})


def hopf_diagram(sign=1):
    return Diagram(
        [closed("a", ("c1", "o"), ("c2", "o")),
         closed("b", ("c1", "u"), ("c2", "u"))],
        {"c1": sign, "c2": sign},
    )


def poke_diagram():
    """Two loops crossing twice with cancelling signs; an unlink in disguise."""
    return Diagram(
        [closed("a", ("c1", "o"), ("c2", "o")),
         closed("b", ("c1", "u"), ("c2", "u"))],
        {"c1": 1, "c2": -1},
    )


def trefoil_diagram(sign=-1):
    comp = closed("k", ("c1", "o"), ("c2", "u"), ("c3", "o"),
                  ("c1", "u"), ("c2", "o"), ("c3", "u"))
    return Diagram([comp], {"c1": sign, "c2": sign, "c3": sign})


class TestConstruction:
    def test_duplicate_component_ids_rejected(self):
        with pytest.raises(PbcJonesError, match="duplicate"):
            Diagram([closed("a"), closed("a")], {})

    def test_unknown_crossing_rejected(self):
        with pytest.raises(PbcJonesError, match="unknown crossing"):
            Diagram([closed("a", ("zz", "o"))], {})

    def test_unbalanced_crossing_rejected(self):
        with pytest.raises(PbcJonesError, match="over and once under"):
            Diagram([closed("a", ("c", "o"), ("c", "o"))], {"c": 1})

    def test_bad_sign_rejected(self):
        with pytest.raises(PbcJonesError, match="sign"):
            Diagram([closed("a", ("c", "o"), ("c", "u"))], {"c": 2})

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, np.float64(1), "1", None])
    def test_bool_and_non_integer_signs_rejected(self, sign):
        with pytest.raises(PbcJonesError, match="sign"):
            Diagram([closed("a", ("c", "o"), ("c", "u"))], {"c": sign})

    @pytest.mark.parametrize("sign", [1, -1, np.int64(1), np.int8(-1)])
    def test_integer_signs_accepted(self, sign):
        d = Diagram([closed("a", ("c", "o"), ("c", "u"))], {"c": sign})
        assert jones_of_diagram(d) == LaurentPoly.one()
        assert d.writhe == sign

    @pytest.mark.parametrize("flag", ["yes", 1, 0, None, np.bool_(True)])
    def test_closed_flag_must_be_a_bool(self, flag):
        with pytest.raises(PbcJonesError, match="closed must be a bool"):
            Component("x", flag, ())

    def test_closed_component_rejects_end_labels(self):
        with pytest.raises(ValueError):
            Component("a", True, (), ends=(("a", "tail"), ("a", "head")))

    def test_open_component_defaults_own_ends(self):
        c = strand("s")
        assert c.ends == (("s", "tail"), ("s", "head"))

    def test_writhe_sums_signs(self):
        assert hopf_diagram(1).writhe == 2
        assert hopf_diagram(-1).writhe == -2
        assert poke_diagram().writhe == 0


class TestSmoothingJoins:
    def test_oriented_for_positive_is_a(self):
        assert smoothing_joins(1, "A") == ((OI, UO), (UI, OO))
        assert smoothing_joins(1, "B") == ((OI, UI), (OO, UO))

    def test_sign_flip_swaps_kinds(self):
        assert smoothing_joins(-1, "B") == smoothing_joins(1, "A")
        assert smoothing_joins(-1, "A") == smoothing_joins(1, "B")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            smoothing_joins(1, "X")


class TestSmoothing:
    def test_smooth_removes_the_crossing(self):
        d = hopf_diagram()
        s = d.smooth("c1", "A")
        assert set(s.crossings) == {"c2"}

    def test_oriented_smooth_of_hopf_merges_then_splits(self):
        d = hopf_diagram()
        once = oriented_smooth(d, "c1")
        assert len(once.components) == 1
        twice = oriented_smooth(once, "c2")
        assert len(twice.components) == 2
        assert all(c.closed for c in twice.components)

    def test_open_strand_smoothing_keeps_end_labels(self):
        d = Diagram([strand("a", ("x", "o")), strand("b", ("x", "u"))], {"x": 1})
        s = d.smooth("x", "A")
        labels = sorted(lbl for c in s.components for lbl in c.ends)
        assert labels == [("a", "head"), ("a", "tail"), ("b", "head"), ("b", "tail")]

    def test_smoothing_is_independent_of_order(self):
        d = trefoil_diagram()
        ab = d.smooth("c1", "A").smooth("c2", "B")
        ba = d.smooth("c2", "B").smooth("c1", "A")
        assert bracket(ab).poly == bracket(ba).poly

    def test_backward_span_flips_crossings_passed_once(self):
        # the disoriented smoothing of kink c walks the span (x, y, y) backwards:
        # x, passed once there, changes sign; y, passed twice, keeps it
        d = Diagram([closed("k", ("c", "o"), ("c", "u"), ("x", "o"), ("y", "o"), ("y", "u")),
                     closed("m", ("x", "u"))], {"c": 1, "x": 1, "y": -1})
        s = d.smooth("c", "B")
        assert shape(s) == [("m", True, (("x", "u"),), None),
                            ("s0", True, (("y", "u"), ("y", "o"), ("x", "o")), None)]
        assert list(s.crossings.items()) == [("x", -1), ("y", -1)]

    def test_closed_component_passing_twice(self):
        d = Diagram([closed("k", ("c", "o"), ("z", "o"), ("c", "u")),
                     closed("m", ("z", "u"))], {"c": 1, "z": 1})
        oriented = d.smooth("c", "A")
        assert shape(oriented) == [("m", True, (("z", "u"),), None),
                                   ("s0", True, (("z", "o"),), None),
                                   ("s1", True, (), None)]
        assert oriented.crossings == {"z": 1}
        # the disoriented smoothing walks the empty span backwards: no sign changes
        assert shape(d.smooth("c", "B")) == [("m", True, (("z", "u"),), None),
                                             ("s0", True, (("z", "o"),), None)]
        assert d.smooth("c", "B").crossings == {"z": 1}

    def test_open_component_passing_twice(self):
        d = Diagram([strand("w", ("c", "o"), ("z", "o"), ("c", "u")),
                     closed("s0", ("z", "u"))], {"c": 1, "z": 1})
        ends = (("w", "tail"), ("w", "head"))
        # new ids skip the survivor's: the open strand comes first, then the loop
        oriented = d.smooth("c", "A")
        assert shape(oriented) == [("s0", True, (("z", "u"),), None),
                                   ("s1", False, (), ends),
                                   ("s2", True, (("z", "o"),), None)]
        assert oriented.crossings == {"z": 1}
        disoriented = d.smooth("c", "B")
        assert shape(disoriented) == [("s0", True, (("z", "u"),), None),
                                      ("s1", False, (("z", "o"),), ends)]
        assert disoriented.crossings == {"z": -1}


class TestInterLinking:
    def test_hopf_linking_is_one(self):
        assert hopf_diagram(1).inter_linking(["a"], ["b"]) == 1
        assert hopf_diagram(-1).inter_linking(["a"], ["b"]) == -1

    def test_poke_has_zero_linking(self):
        assert poke_diagram().inter_linking(["a"], ["b"]) == 0

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            hopf_diagram().inter_linking(["a"], ["a"])

    def test_unknown_ids_rejected(self):
        with pytest.raises(KeyError):
            hopf_diagram().inter_linking(["a"], ["zz"])


class TestInvariance:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_kink_normalizes_to_unknot(self, sign):
        assert jones_of_diagram(kink(sign)) == LaurentPoly.one()

    def test_poke_normalizes_to_two_component_unlink(self):
        assert jones_of_diagram(poke_diagram()) == d_poly()

    def test_hopf_values(self):
        assert jones_of_diagram(hopf_diagram(1)) == LaurentPoly({-2: -1, -10: -1})
        assert jones_of_diagram(hopf_diagram(-1)) == LaurentPoly({2: -1, 10: -1})

    def test_trefoil_values_are_mirror_pair(self):
        left = jones_of_diagram(trefoil_diagram(-1))
        right = jones_of_diagram(trefoil_diagram(1))
        assert left == LaurentPoly({4: 1, 12: 1, 16: -1})
        assert right == scale_exponents(left, -1)

    def test_mirror_inverts_the_variable(self):
        for d in (hopf_diagram(), trefoil_diagram(), poke_diagram()):
            assert jones_of_diagram(mirror(d)) == scale_exponents(jones_of_diagram(d), -1)

    def test_reversing_a_knot_component_changes_nothing(self):
        d = trefoil_diagram()
        assert jones_of_diagram(reverse_component(d, "k")) == jones_of_diagram(d)

    def test_reversing_one_hopf_component_mirrors_it(self):
        d = hopf_diagram(1)
        r = reverse_component(d, "b")
        assert r.writhe == -2
        assert jones_of_diagram(r) == jones_of_diagram(hopf_diagram(-1))

    @pytest.mark.parametrize("sign,expected", [
        (1, LaurentPoly({-2: -1, -4: -1})),
        (-1, LaurentPoly({2: -1, 4: -1})),
    ])
    def test_single_crossing_two_strand_values(self, sign, expected):
        d = Diagram([strand("a", ("x", "o")), strand("b", ("x", "u"))], {"x": sign})
        assert jones_of_diagram(d) == expected


class TestPieces:
    @staticmethod
    def shape(diagram):
        pieces = diagram.pieces()
        for p in pieces:
            p._validate()  # pieces are built with Diagram.trusted
        return [([c.id for c in p.components], p.crossings) for p in pieces]

    def test_shared_crossings_tie_components(self):
        d = Diagram([closed("a", ("c1", "o"), ("c2", "o")),
                     closed("k", ("c3", "o"), ("c3", "u")),
                     closed("b", ("c1", "u"), ("c2", "u"))],
                    {"c1": 1, "c2": -1, "c3": -1})
        assert self.shape(d) == [(["a", "b"], {"c1": 1, "c2": -1}), (["k"], {"c3": -1})]

    def test_shared_end_owners_tie_components(self):
        # p and q carry the two ends of owners "a" and "b"; s reaches q
        # through a crossing, r owns both of its own ends
        p = Component("p", False, (), (("a", "tail"), ("b", "head")))
        q = Component("q", False, (("x", "o"),), (("b", "tail"), ("a", "head")))
        d = Diagram([p, strand("r"), closed("s", ("x", "u")), q], {"x": 1})
        assert self.shape(d) == [(["p", "s", "q"], {"x": 1}), (["r"], {})]

    def test_crossingless_loops_are_separate_pieces(self):
        d = Diagram([closed("a"), closed("b")], {})
        assert self.shape(d) == [(["a"], {}), (["b"], {})]
        assert Diagram([], {}).pieces() == []

    @given(st.integers(0, 12), st.integers(0, 4), st.integers(0, 5),
           st.randoms(use_true_random=False))
    def test_matches_the_per_piece_scan(self, n_crossings, n_closed, n_open, rnd):
        d = random_diagram(n_crossings, n_closed, n_open, rnd)
        pieces = d.pieces()
        for p in pieces:
            p._validate()
        assert [([c.id for c in p.components], list(p.crossings.items()))
                for p in pieces] == reference_pieces(d)


def random_diagram(n_crossings, n_closed, n_open, rnd):
    """A valid diagram: passages dealt to components at random, open strand
    j running from the tail of owner j to the head of a random owner, so
    that strands share owners, and crossings and components in random order."""
    if n_crossings and not n_closed + n_open:
        n_closed = 1
    cids = [f"c{i}" for i in range(n_crossings)]
    rnd.shuffle(cids)
    passages = [(c, r) for c in cids for r in "ou"]
    rnd.shuffle(passages)
    held = [[] for _ in range(n_closed + n_open)]
    for p in passages:
        held[rnd.randrange(len(held))].append(p)
    heads = list(range(n_open))
    rnd.shuffle(heads)
    comps = [closed(f"k{i}", *held[i]) for i in range(n_closed)]
    comps += [Component(f"w{j}", False, tuple(held[n_closed + j]),
                        ((f"o{j}", "tail"), (f"o{heads[j]}", "head"))) for j in range(n_open)]
    rnd.shuffle(comps)
    return Diagram(comps, {c: rnd.choice((1, -1)) for c in cids})


class TestTerminalGraph:
    def test_crossing_free_closed_loops_counted(self):
        g = terminal_graph(Diagram([closed("a"), closed("b")], {}))
        assert g.free_loops == 2
        assert not g.strand

    def test_single_open_strand_closes_to_one_loop(self):
        g = terminal_graph(Diagram([strand("a")], {}))
        assert g.free_loops == 1

    def test_kink_ports_pair_up(self):
        g = terminal_graph(kink(1))
        # following the loop away from the over-out port reaches under-in
        assert g.strand[port(g, "c", OO)] == port(g, "c", UI)
        assert g.strand[port(g, "c", UO)] == port(g, "c", OI)

    @staticmethod
    def chain(*owners, passages=((),)):
        """Open strands from each owner's tail to the next owner's head."""
        k = len(owners)
        return [Component(f"w{owners[i]}", False, passages[i] if i < len(passages) else (),
                          ((owners[i], "tail"), (owners[(i + 1) % k], "head")))
                for i in range(k)]

    @pytest.mark.parametrize("owners", ["ab", "abc"])
    def test_strands_chained_through_closures_are_one_ring(self, owners):
        g = terminal_graph(Diagram(self.chain(*owners), {}))
        assert g.free_loops == 1
        assert not g.strand

    def test_each_ring_is_one_free_loop(self):
        comps = (self.chain("a", "b") + self.chain("c", "d", "e") + [strand("f"), closed("g")]
                 + list(kink(1).components))
        g = terminal_graph(Diagram(comps, {"c": 1}))
        assert g.free_loops == 4
        assert g.strand[port(g, "c", OO)] == port(g, "c", UI)

    def test_port_walk_crosses_two_closures(self):
        # the kink's strand runs a-tail -> b-head; the bare strand b-tail -> a-head
        # closes it, so the kink's outer ports are partners and no ring is left
        comps = self.chain("a", "b", passages=((("c", "o"), ("c", "u")),))
        g = terminal_graph(Diagram(comps, {"c": -1}))
        assert g.free_loops == 0
        assert g.strand[port(g, "c", UO)] == port(g, "c", OI)
        assert g.strand[port(g, "c", OO)] == port(g, "c", UI)


def projected(curves, seed):
    xi = sample_directions(1, "random", seed=seed)[0]
    return project_generic(list(curves), xi, 1e-9)[0]


def random_polylines(seed, n_curves, n_pts, closed):
    rng = np.random.default_rng(seed)
    return [Curve(f"w{i}", rng.uniform(-1.0, 1.0, (n_pts, 3)), closed) for i in range(n_curves)]


def dp_bracket(d):
    """The frontier DP's bracket of ``d`` as given, without the reduction."""
    tg = terminal_graph(d)
    if not tg.crossing_ids:
        return d_power(max(tg.free_loops - 1, 0))
    signs = tuple(d.crossings[c] for c in tg.crossing_ids)
    return bracket_mod._state_sum(tg.strand, signs, tg.free_loops).poly


def moves_left(d):
    """Kinks and opposite-sign bigons of ``d``, each as a tuple of its
    crossings, by a scan of every crossing and every pair of crossings."""
    nexts = set()
    for c in d.components:
        ps = c.passages
        nexts.update(zip(ps, ps[1:] + ps[:1] if c.closed else ps[1:]))

    def adjacent(p, q):
        return (p, q) in nexts or (q, p) in nexts

    kinks = [(c,) for c in d.crossings if adjacent((c, "o"), (c, "u"))]
    bigons = [(a, b) for a, b in combinations(d.crossings, 2)
              if d.crossings[a] != d.crossings[b]
              and adjacent((a, "o"), (b, "o")) and adjacent((a, "u"), (b, "u"))]
    return kinks + bigons


def without(d, gone):
    """``d`` less the crossings in ``gone``, the others keeping their names."""
    comps = [Component(c.id, c.closed, tuple(p for p in c.passages if p[0] not in gone), c.ends)
             for c in d.components]
    return Diagram(comps, {c: s for c, s in d.crossings.items() if c not in gone})


def reduce_by_scan(d):
    """``d`` less the first move ``moves_left`` finds, again and again: a
    reduction that keeps crossing names and shares no code with
    ``reidemeister_reduce``."""
    while True:
        moves = moves_left(d)
        if not moves:
            return d
        d = without(d, set(moves[0]))


def canonical(d):
    """Everything of ``d``, its crossing order included: equal for equal reductions."""
    return shape(d), list(d.crossings.items())


def renamed(d):
    """``d`` with its crossings renamed so that they sort in reverse, and listed in reverse."""
    names = {c: f"x{len(d.crossings) - k:04d}" for k, c in enumerate(d.crossings)}
    comps = [Component(c.id, c.closed, tuple((names[x], r) for x, r in c.passages), c.ends)
             for c in d.components]
    return Diagram(comps, {names[c]: s for c, s in reversed(d.crossings.items())})


def check_reduction(d, brute_limit=10, scan_limit=30):
    """The reduction of ``d`` is valid, has no move left, is its own
    reduction, names its crossings in walk order, does not depend on the
    names or order of the crossings of ``d``, is ``d`` less some of its
    crossings up to names, and keeps the Jones polynomial; returns it."""
    r = reidemeister_reduce(d)
    plain = Diagram(r.components, r.crossings)  # validates
    assert [c.id for c in r.components] == [c.id for c in d.components]
    met = list(dict.fromkeys(x for c in r.components for x, _ in c.passages))
    assert met == list(r.crossings) == sorted(r.crossings)
    assert not moves_left(r)
    # a reduction is returned as is; the same diagram built anew runs the moves
    assert reidemeister_reduce(r) is r
    assert canonical(reidemeister_reduce(plain)) == canonical(r)
    assert canonical(reidemeister_reduce(renamed(d))) == canonical(r)
    if len(d.crossings) <= scan_limit:
        # any order of the moves leaves the same code up to crossing names
        assert gauss_code(r) == gauss_code(reduce_by_scan(d))
    factor = writhe_prefactor(r.writhe - d.writhe)  # (-A^3)^(w - w')
    whole = dp_bracket(d)
    assert factor * dp_bracket(r) == whole == bracket(d, 10 ** 6).poly
    if d.components and len(d.crossings) <= brute_limit:  # the oracle needs a loop
        assert brute_bracket(d) == whole
        assert factor * brute_bracket(r) == whole
    return r


def torus_diagram(n, sign=1):
    """The (2, n) torus knot for odd n: one loop O1 U2 O3 ... U1 O2 ..., no moves."""
    walk = [(f"t{k % n}", "ou"[k % 2]) for k in range(2 * n)]
    return Diagram([closed("k", *walk)], {f"t{k}": sign for k in range(n)})


class TestReidemeisterReduce:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("is_closed", [True, False])
    def test_kink_leaves_a_bare_component(self, sign, is_closed):
        d = Diagram([Component("k", is_closed, (("c", "u"), ("c", "o")))], {"c": sign})
        r = check_reduction(d)
        ends = None if is_closed else (("k", "tail"), ("k", "head"))
        assert shape(r) == [("k", is_closed, (), ends)]
        assert r.crossings == {}
        # a kink of sign s carries (-A^3)^s
        assert bracket(d).poly == LaurentPoly.monomial(-1, 3 * sign)

    def test_adjacency_does_not_wrap_across_open_ends(self):
        # c's passages meet only across the ends of strand a, which closes
        # virtually through strand e and its passage d: the loop reads
        # c d c d, and a kink of c cut across the ends changes the bracket
        passages = (("c", "o"), ("d", "o"), ("c", "u"))
        e = Component("e", False, (("d", "u"),), (("q", "tail"), ("p", "head")))
        opened = Diagram([Component("a", False, passages, (("p", "tail"), ("q", "head"))), e],
                         {"c": 1, "d": 1})
        assert gauss_code(check_reduction(opened)) == gauss_code(opened)
        cut = Diagram([Component("a", False, passages[1:2], (("p", "tail"), ("q", "head"))), e],
                      {"d": 1})
        assert bracket(opened).poly != writhe_prefactor(-1) * bracket(cut).poly
        # on a closed component the same passages wrap into a kink
        looped = Diagram([closed("a", *passages), closed("b", ("d", "u"))], {"c": 1, "d": 1})
        assert gauss_code(check_reduction(looped)) == gauss_code(without(looped, {"c"}))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_same_sign_pair_is_no_bigon(self, sign):
        d = hopf_diagram(sign)
        assert gauss_code(check_reduction(d)) == gauss_code(d)

    @pytest.mark.parametrize("unders, tail", [
        ([closed("b", ("c1", "u"), ("c2", "u"))], ()),  # parallel, on another loop
        ([closed("b", ("c2", "u"), ("c1", "u"))], ()),  # antiparallel, on another loop
        ([strand("b", ("c2", "u"), ("c1", "u"))], ()),  # antiparallel, on an open strand
        ([], (("c1", "u"), ("c2", "u"))),  # parallel, further along the same loop
        ([], (("c2", "u"), ("c1", "u"))),  # antiparallel, further along the same loop
    ], ids=["parallel", "antiparallel", "open", "same_loop_parallel", "same_loop_antiparallel"])
    def test_bigon_of_opposite_signs_is_removed(self, unders, tail):
        loop = closed("a", ("x", "o"), ("c1", "o"), ("c2", "o"), ("x", "u"),
                      ("y", "o"), *tail, ("y", "u"))
        d = Diagram([loop] + unders, {"c1": 1, "c2": -1, "x": 1, "y": -1})
        # without the bigon, x and y are kinks
        assert gauss_code(check_reduction(d)) == gauss_code(without(d, {"c1", "c2", "x", "y"}))

    def test_a_diagram_without_moves_keeps_its_code(self):
        for d in (trefoil_diagram(), hopf_diagram(), Diagram([closed("a")], {}), Diagram([], {})):
            assert gauss_code(reidemeister_reduce(d)) == gauss_code(d)

    def test_poke_leaves_two_bare_loops(self):
        r = check_reduction(poke_diagram())
        assert shape(r) == [("a", True, (), None), ("b", True, (), None)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(3, 7), st.booleans())
    def test_projected_polylines_keep_their_jones_polynomial(self, seed, n_curves, n_pts,
                                                              is_closed):
        d = projected(random_polylines(seed, n_curves, n_pts, is_closed), seed)
        assume(len(d.crossings) <= 24)
        check_reduction(d)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 3), st.integers(0, 3),
           st.randoms(use_true_random=False))
    def test_gauss_codes_keep_their_bracket(self, n_crossings, n_closed, n_open, rnd):
        # passages dealt at random: codes that no plane curve draws, and open
        # strands that end on other strands' owners
        check_reduction(random_diagram(n_crossings, n_closed, n_open, rnd))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 3), st.integers(0, 3),
           st.randoms(use_true_random=False))
    def test_renaming_and_reordering_crossings_keeps_the_reduction(self, n_crossings, n_closed,
                                                                    n_open, rnd):
        d = random_diagram(n_crossings, n_closed, n_open, rnd)
        new_names = [f"q{k}" for k in range(len(d.crossings))]
        rnd.shuffle(new_names)
        names = dict(zip(d.crossings, new_names))
        items = [(names[c], s) for c, s in d.crossings.items()]
        rnd.shuffle(items)
        other = Diagram([Component(c.id, c.closed, tuple((names[x], r) for x, r in c.passages),
                                   c.ends) for c in d.components], dict(items))
        assert canonical(reidemeister_reduce(other)) == canonical(reidemeister_reduce(d))

    def test_names_sort_in_walk_order_past_ten_and_a_hundred(self):
        d = torus_diagram(101)
        assert not moves_left(d)
        r = reidemeister_reduce(renamed(d))
        names = list(r.crossings)
        assert names[:11] == [f"a{k}" for k in range(10)] + ["b10"]
        assert names[99:] == ["b99", "c100"]
        assert [x for x, _ in r.components[0].passages[:101]] == names == sorted(names)
        assert terminal_graph(r).crossing_ids == tuple(names)
        assert gauss_code(r) == gauss_code(d)


SMALL_DIAGRAMS = {
    "trefoil": lambda: projected([trefoil()], 1),
    "figure_eight": lambda: projected([figure_eight()], 0),
    "hopf": lambda: projected(hopf_link(), 0),
    "open_trefoil": lambda: projected([open_trefoil(0.5)], 2),
    "loop": lambda: Diagram([closed("a")], {}),
    "two_strands": lambda: Diagram([strand("a", ("x", "o")), strand("b", ("x", "u"))],
                                   {"x": -1}),
}


class TestInsertedMoves:
    """Small diagrams padded with kinks and bigons by ``oracles.insert_moves``:
    the enumeration oracle gives the bracket of the small diagram, and the
    padded one must have it times (-A^3)^(added writhe), at widths that the
    enumeration cannot reach."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(SMALL_DIAGRAMS)), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_padded_bracket_and_its_reduction(self, name, count, seed):
        small = SMALL_DIAGRAMS[name]()
        padded, added = insert_moves(small, np.random.default_rng(seed), count)
        Diagram(padded.components, padded.crossings)  # validates
        want = writhe_prefactor(-added) * brute_bracket(small)
        assert dp_bracket(padded) == want
        r = check_reduction(padded, brute_limit=0)
        # the reduction undoes every insertion, up to crossing names
        assert gauss_code(r) == gauss_code(reidemeister_reduce(small))

    def test_padding_reaches_past_the_enumeration(self):
        small = SMALL_DIAGRAMS["figure_eight"]()
        assert not moves_left(small)
        padded, added = insert_moves(small, np.random.default_rng(7), 70)
        assert len(padded.crossings) >= 100
        assert dp_bracket(padded) == writhe_prefactor(-added) * brute_bracket(small)
        assert gauss_code(reidemeister_reduce(padded)) == gauss_code(small)
