"""Combinatorial crossing diagrams.

A diagram is a set of components, each a sequence of passages through
crossings, plus a sign per crossing.  Components are closed loops or open
strands; open strands remember which original curve endpoints their two
ends carry, so that strand merges under smoothing keep enough information
to close strands virtually head-to-tail when loops are counted.

Crossing ports are numbered 0..3 in the order over-in, over-out,
under-in, under-out.  Smoothings reconnect ports pairwise; the oriented
reconnection joins in-ports to out-ports, the disoriented one joins the
two in-ports and the two out-ports.

Two strand walks read this structure.  ``terminal_graph`` links each port
and end label to the one its strand meets next, then follows those links
from every port to its partner port, crossing an owner's virtual
head-tail closure at each end label; end labels that no port reaches lie
on rings, one free loop each.  ``Diagram.smooth`` cuts the components
through the smoothed crossing into spans between terms (end labels and
that crossing's ports) and joins spans through the new port bonds: open
strands first, from their end labels in component order, then closed
loops from the crossing's out-ports in span order.  A crossing that a
span walked backwards passes exactly once changes sign.

The walks share no code on purpose.  The brute-force oracle in the tests
builds its states with ``smooth`` and checks ``bracket``, which reads
``terminal_graph``; a common helper would let one fault pass both sides.

``reidemeister_reduce`` reads the passages too, removes kinks and
bigons and names the crossings left in walk order, before ``bracket``
builds its terminal graph.  The brute-force oracle never calls it: it
smooths every crossing of the diagram as given, so a fault in the
reduction shows as a bracket that differs from it.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import PbcJonesError

Passage = Tuple[str, str]  # (crossing id, "o" or "u")
EndLabel = Tuple[str, str]  # (owner curve id, "tail" or "head")
Term = Union[int, EndLabel]  # where a strand walk stops: a port code or an end label

OI, OO, UI, UO = 0, 1, 2, 3
_PORTS = {"o": (OI, OO), "u": (UI, UO)}  # (in-port, out-port) of a passage role
_OTHER_END = {"tail": "head", "head": "tail"}


def smoothing_joins(sign: int, kind: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Port pairs joined by an A- or B-smoothing of a crossing of given sign."""
    if kind not in ("A", "B"):
        raise ValueError(f"smoothing kind must be 'A' or 'B', got {kind!r}")
    oriented = (kind == "A") == (sign > 0)
    if oriented:
        return ((OI, UO), (UI, OO))
    return ((OI, UI), (OO, UO))


@dataclass(frozen=True)
class Component:
    id: str
    closed: bool
    passages: Tuple[Passage, ...]
    ends: Optional[Tuple[EndLabel, EndLabel]] = None

    def __post_init__(self):
        if not isinstance(self.closed, bool):
            raise PbcJonesError(f"component {self.id!r}: closed must be a bool, "
                                f"got {self.closed!r}")
        if self.closed and self.ends is not None:
            raise ValueError(f"closed component {self.id} must not carry end labels")
        if not self.closed and self.ends is None:
            object.__setattr__(self, "ends", ((self.id, "tail"), (self.id, "head")))
        for p in self.passages:
            if p[1] not in ("o", "u"):
                raise ValueError(f"bad passage role {p[1]!r}")


class Diagram:
    def __init__(self, components: Sequence[Component], crossings: Mapping[str, int]):
        self.components: Tuple[Component, ...] = tuple(components)
        self.crossings: Dict[str, int] = dict(crossings)
        self._validate()

    @classmethod
    def trusted(cls, components: Sequence[Component],
                crossings: Mapping[str, int]) -> "Diagram":
        """A diagram its builder makes valid by construction, not checked again.

        Input read from files or given by users goes through ``Diagram(...)``.
        """
        self = cls.__new__(cls)
        self.components = tuple(components)
        self.crossings = dict(crossings)
        return self

    def _validate(self) -> None:
        seen_ids = set()
        for comp in self.components:
            if comp.id in seen_ids:
                raise PbcJonesError(f"duplicate component id {comp.id!r}")
            seen_ids.add(comp.id)
        usage: Dict[str, List[str]] = {c: [] for c in self.crossings}
        for comp in self.components:
            for cid, role in comp.passages:
                if cid not in usage:
                    raise PbcJonesError(f"passage references unknown crossing {cid!r}")
                usage[cid].append(role)
        for cid, roles in usage.items():
            if sorted(roles) != ["o", "u"]:
                raise PbcJonesError(
                    f"crossing {cid!r} must be passed exactly once over and once under, got {roles}"
                )
        for cid, s in self.crossings.items():
            if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s not in (-1, 1):
                raise PbcJonesError(f"crossing {cid!r} has sign {s!r}, expected +1 or -1")
        ends = [lbl for comp in self.components if not comp.closed for lbl in comp.ends]
        owners = {o for o, _ in ends}
        expected = sorted((o, w) for o in owners for w in ("tail", "head"))
        if sorted(ends) != expected:
            raise PbcJonesError("open-component end labels must pair up head/tail per owner")

    # -- basic queries --------------------------------------------------

    @property
    def writhe(self) -> int:
        return sum(self.crossings.values())

    def passage_owner(self) -> Dict[Tuple[str, str], str]:
        """Map (crossing id, role) to the id of the component carrying it."""
        owner: Dict[Tuple[str, str], str] = {}
        for comp in self.components:
            for p in comp.passages:
                owner[p] = comp.id
        return owner

    def pieces(self) -> List["Diagram"]:
        """Split into independent sub-diagrams, in order of first component.

        Two components share a piece when they pass through a common
        crossing or carry ends of the same owner curve, which virtual
        closures tie together.  A piece of a valid diagram therefore holds
        both passages of each of its crossings and both ends of each of its
        owners, so pieces skip validation.
        """
        root = {comp.id: comp.id for comp in self.components}

        def find(x: str) -> str:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        owner = self.passage_owner()
        # each distinct (over owner, under owner) pair is tied once; the
        # pieces, and their order, do not depend on the order of the ties
        ties = {(owner[(cid, "o")], owner[(cid, "u")]) for cid in self.crossings}
        first_with_owner: Dict[str, str] = {}
        for comp in self.components:
            if not comp.closed:
                for o, _ in comp.ends:
                    ties.add((first_with_owner.setdefault(o, comp.id), comp.id))
        for a, b in ties:
            root[find(b)] = find(a)
        groups: Dict[str, Tuple[List[Component], Dict[str, int]]] = {}
        piece_of: Dict[str, Tuple[List[Component], Dict[str, int]]] = {}
        for comp in self.components:
            piece = piece_of[comp.id] = groups.setdefault(find(comp.id), ([], {}))
            piece[0].append(comp)
        for cid, s in self.crossings.items():
            piece_of[owner[(cid, "o")]][1][cid] = s
        return [Diagram.trusted(comps, signs) for comps, signs in groups.values()]

    def inter_linking(self, group_a: Iterable[str], group_b: Iterable[str]) -> Fraction:
        """Half the signed count of crossings between two disjoint component groups."""
        a, b = set(group_a), set(group_b)
        if a & b:
            raise ValueError("component groups overlap")
        known = {c.id for c in self.components}
        missing = (a | b) - known
        if missing:
            raise KeyError(f"unknown component ids {sorted(missing)}")
        owner = self.passage_owner()
        total = 0
        for cid, sign in self.crossings.items():
            co, cu = owner[(cid, "o")], owner[(cid, "u")]
            if (co in a and cu in b) or (co in b and cu in a):
                total += sign
        return Fraction(total, 2)

    # -- surgery --------------------------------------------------------

    def smooth(self, cid: str, kind: str) -> "Diagram":
        """Replace one crossing by the chosen reconnection of its four ports."""
        bond: Dict[int, int] = {}
        for x, y in smoothing_joins(self.crossings[cid], kind):
            bond[x], bond[y] = y, x
        # span_from[term] = (passages walked away from term, far term, walked backwards)
        span_from: Dict[Term, Tuple[Tuple[Passage, ...], Term, bool]] = {}
        starts: List[Term] = []  # the forward end of each span, in span order

        def add_span(a: Term, seg: List[Passage], b: Term) -> None:
            span_from[a] = (tuple(seg), b, False)
            span_from[b] = (tuple(reversed(seg)), a, True)
            starts.append(a)

        survivors: List[Component] = []
        open_ends: List[EndLabel] = []
        for comp in self.components:
            ps = comp.passages
            hits = [i for i, (c, _) in enumerate(ps) if c == cid]
            if not hits:
                survivors.append(comp)
                continue
            if comp.closed:
                ps = ps[hits[0] + 1:] + ps[:hits[0] + 1]  # ends at its first hit
                term: Term = _PORTS[ps[-1][1]][1]
            else:
                term = comp.ends[0]
                open_ends.extend(comp.ends)
            seg: List[Passage] = []
            for p in ps:
                if p[0] != cid:
                    seg.append(p)
                    continue
                add_span(term, seg, _PORTS[p[1]][0])
                term, seg = _PORTS[p[1]][1], []
            if not comp.closed:
                add_span(term, seg, comp.ends[1])

        backwards: Counter = Counter()

        def walk(start: Term) -> Tuple[List[Passage], Optional[EndLabel]]:
            """Passages from start to an end label, or round to start (then None)."""
            passages: List[Passage] = []
            term = start
            while True:
                seg, far, back = span_from.pop(term)
                del span_from[far]
                passages.extend(seg)
                if back:
                    backwards.update(c for c, _ in seg)
                if not isinstance(far, int):
                    return passages, far
                term = bond[far]
                if term == start:
                    return passages, None

        walked = [(walk(t), t) for t in open_ends if t in span_from]
        walked += [(walk(t), None) for t in starts if t in span_from]

        taken = {c.id for c in survivors}
        new_comps = list(survivors)
        counter = 0
        for (passages, far), start in walked:
            while f"s{counter}" in taken:
                counter += 1
            taken.add(f"s{counter}")
            ends = None if start is None else (start, far)
            new_comps.append(Component(f"s{counter}", start is None, tuple(passages), ends))
        # a smoothing of a valid diagram is valid by construction
        return Diagram.trusted(new_comps, {c: -s if backwards.get(c) == 1 else s
                                           for c, s in self.crossings.items() if c != cid})


# _CANONICAL[k] = (under passage, over passage) of the k-th crossing that a
# reduced diagram's walk meets, shared by every reduced diagram and grown on
# demand; see ``reidemeister_reduce``
_CANONICAL: List[Tuple[Passage, Passage]] = []


class _Reduced(Diagram):
    """A diagram that ``reidemeister_reduce`` returned: its own reduction."""


def reidemeister_reduce(diagram: Diagram) -> Diagram:
    """The diagram less every kink (RI) and bigon (RII) of its signed Gauss
    code, with its crossings renamed in walk order.

    A kink is a crossing whose two passages are adjacent on one strand.  A
    bigon is two crossings of opposite sign whose over passages are
    adjacent on one strand and whose under passages are adjacent on a
    strand, in either order.  Adjacency wraps on closed components, never
    across the ends of an open one.  Removing a bigon keeps the bracket and
    removing a kink of sign s divides it by (-A^3)^s, for any Gauss code,
    planar or not.

    The passages, in component order, are int slots of doubly linked
    lists; -1 stands for an open end and for a removed slot.  A worklist
    holds the slots whose pair with the next slot is to be checked: every
    slot at the start, and then only the slots that a removal makes
    adjacent to a new next slot.

    The surviving crossings are renamed in the order a walk over the
    components, each from its first passage, first meets them.  The k-th
    is named by a letter for the number of digits of k, then k ("a0" to
    "a9", "b10" to "b99", "c100", ...), so the names sort in walk order,
    and the crossing dict lists them in that order.  Component ids,
    closedness and end labels stay.  So two diagrams whose reduced codes
    differ only in crossing names, or in the order of their crossing
    dicts, reduce to equal components and equal crossing items, and
    ``terminal_graph``, which sorts crossing names, numbers the crossings
    in walk order.

    The result is a ``_Reduced`` diagram, and a ``_Reduced`` diagram is
    returned as is: it has no move left and its names are in walk order,
    so reducing it again would only copy it.  ``bracket`` reduces what it
    is given, and the direction average gives it reductions.
    """
    if type(diagram) is _Reduced:
        return diagram
    signs = diagram.crossings
    flat = [p for comp in diagram.components for p in comp.passages]
    n = len(flat)
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    first = 0
    for comp in diagram.components:
        if comp.passages:
            last = first + len(comp.passages) - 1
            if comp.closed:
                nxt[last], prv[first] = first, last
            else:
                nxt[last] = prv[first] = -1
            first = last + 1
    mate = [0] * n  # the slot of the crossing's other passage
    unmatched: Dict[str, int] = {}  # crossing id -> its first slot, until the second comes
    for i, (c, _) in enumerate(flat):
        j = unmatched.pop(c, -1)
        if j < 0:
            unmatched[c] = i
        else:
            mate[i], mate[j] = j, i
    over = [r == "o" for _, r in flat]
    sign = [signs[c] for c, _ in flat]
    work = list(range(n))
    while work:
        p = work.pop()
        q = nxt[p]
        if q < 0:
            continue
        if mate[p] == q:
            gone: Tuple[int, ...] = (p, q)
        elif over[p] != over[q] or sign[p] == sign[q]:
            continue
        else:
            pa, pb = mate[p], mate[q]
            if nxt[pa] != pb and nxt[pb] != pa:
                continue
            gone = (p, q, pa, pb)
        for x in gone:
            before, after = prv[x], nxt[x]
            prv[x] = nxt[x] = -1
            sign[x] = 0
            if before == x:  # the last passage of a closed component
                continue
            if before >= 0:
                nxt[before] = after
                work.append(before)
            if after >= 0:
                prv[after] = before

    named = [-1] * n  # the walk-order index of each surviving slot's crossing
    kept: List[int] = []  # the signs of the surviving crossings, in walk order
    for i in range(n):
        if sign[i] and named[i] < 0:
            named[i] = named[mate[i]] = len(kept)
            kept.append(sign[i])
    while len(_CANONICAL) < len(kept):
        digits = str(len(_CANONICAL))
        name = chr(ord("a") + len(digits) - 1) + digits
        _CANONICAL.append(((name, "u"), (name, "o")))
    comps = []
    first = 0
    for comp in diagram.components:
        end = first + len(comp.passages)
        comps.append(Component(comp.id, comp.closed, tuple(
            [_CANONICAL[named[i]][over[i]] for i in range(first, end) if sign[i]]), comp.ends))
        first = end
    return _Reduced.trusted(comps, {_CANONICAL[k][0][0]: s for k, s in enumerate(kept)})


@dataclass(frozen=True)
class TerminalGraph:
    """Strand structure of a diagram with open ends virtually closed.

    ``strand`` is a perfect matching on global port numbers (4 * crossing
    index + port code, crossings sorted by id), indexed by port: following
    the strand away from a port, through any virtual head-tail closures,
    one reaches its partner port.  ``free_loops`` counts cycles that meet
    no crossing.
    """

    crossing_ids: Tuple[str, ...]
    strand: Tuple[int, ...]
    free_loops: int


def terminal_graph(diagram: Diagram) -> TerminalGraph:
    ids = tuple(sorted(diagram.crossings))
    base = {c: 4 * i for i, c in enumerate(ids)}
    # link[t] = what the strand leaving port or end label t meets first
    link: Dict[Term, Term] = {}
    free_loops = 0
    for comp in diagram.components:
        ps = comp.passages
        if comp.closed and not ps:
            free_loops += 1
            continue
        ins = [base[c] + _PORTS[r][0] for c, r in ps]
        outs = [base[c] + _PORTS[r][1] for c, r in ps]
        if comp.closed:
            pairs = zip(outs, ins[1:] + ins[:1])
        else:
            pairs = zip([comp.ends[0]] + outs, ins + [comp.ends[1]])
        for a, b in pairs:
            link[a], link[b] = b, a

    reached = set()

    def close(label: EndLabel) -> Term:
        """Cross the virtual closure at an end label and follow the next strand."""
        other = (label[0], _OTHER_END[label[1]])
        reached.update((label, other))
        return link[other]

    strand = [-1] * (4 * len(ids))
    for p in range(len(strand)):
        if strand[p] < 0:
            q = link[p]
            while not isinstance(q, int):
                q = close(q)
            strand[p], strand[q] = q, p
    # End labels no port reaches lie on rings of strands and closures.
    for label in link:
        if not isinstance(label, int) and label not in reached:
            free_loops += 1
            while label not in reached:
                label = close(label)
    return TerminalGraph(ids, tuple(strand), free_loops)
