import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (mirror, oriented_smooth, port, reference_pieces, reverse_component,
                     scale_exponents)

from pbcjones.bracket import bracket, jones_of_diagram
from pbcjones.diagram import (OI, OO, UI, UO, Component, Diagram,
                              smoothing_joins, terminal_graph)
from pbcjones.errors import PbcJonesError
from pbcjones.laurent import LaurentPoly, d_poly


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
