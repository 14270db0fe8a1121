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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import PbcJonesError

Passage = Tuple[str, str]  # (crossing id, "o" or "u")
EndLabel = Tuple[str, str]  # (owner curve id, "tail" or "head")

OI, OO, UI, UO = 0, 1, 2, 3


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
            if s not in (-1, 1):
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

    def component(self, comp_id: str) -> Component:
        for comp in self.components:
            if comp.id == comp_id:
                return comp
        raise KeyError(comp_id)

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
        closures tie together.
        """
        root = {comp.id: comp.id for comp in self.components}

        def find(x: str) -> str:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        owner = self.passage_owner()
        ties = [(owner[(cid, "o")], owner[(cid, "u")]) for cid in self.crossings]
        first_with_owner: Dict[str, str] = {}
        for comp in self.components:
            if not comp.closed:
                ties.extend((first_with_owner.setdefault(o, comp.id), comp.id)
                            for o, _ in comp.ends)
        for a, b in ties:
            root[find(b)] = find(a)
        groups: Dict[str, List[Component]] = {}
        for comp in self.components:
            groups.setdefault(find(comp.id), []).append(comp)
        out = []
        for comps in groups.values():
            present = {p[0] for comp in comps for p in comp.passages}
            out.append(Diagram(comps, {c: s for c, s in self.crossings.items() if c in present}))
        return out

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
        sign = self.crossings[cid]
        joins = smoothing_joins(sign, kind)

        # Cut components at the two passages of cid into fragments whose
        # ends are either original endpoint labels or the crossing's ports.
        fragments: List[Tuple[List[Passage], Tuple, Tuple]] = []
        survivors: List[Component] = []
        for comp in self.components:
            hits = [i for i, (c, _) in enumerate(comp.passages) if c == cid]
            if not hits:
                survivors.append(comp)
                continue
            ps = comp.passages

            def pin(i):
                return ("p", OI if ps[i][1] == "o" else UI)

            def pout(i):
                return ("p", OO if ps[i][1] == "o" else UO)

            if comp.closed:
                if len(hits) == 1:
                    i = hits[0]
                    seg = list(ps[i + 1:]) + list(ps[:i])
                    fragments.append((seg, pout(i), pin(i)))
                else:
                    i, j = hits
                    fragments.append((list(ps[i + 1:j]), pout(i), pin(j)))
                    fragments.append((list(ps[j + 1:]) + list(ps[:i]), pout(j), pin(i)))
            else:
                e0, e1 = comp.ends
                if len(hits) == 1:
                    i = hits[0]
                    fragments.append((list(ps[:i]), ("e", e0), pin(i)))
                    fragments.append((list(ps[i + 1:]), pout(i), ("e", e1)))
                else:
                    i, j = hits
                    fragments.append((list(ps[:i]), ("e", e0), pin(i)))
                    fragments.append((list(ps[i + 1:j]), pout(i), pin(j)))
                    fragments.append((list(ps[j + 1:]), pout(j), ("e", e1)))

        bond: Dict[Tuple, Tuple] = {}
        for x, y in joins:
            bond[("p", x)] = ("p", y)
            bond[("p", y)] = ("p", x)

        frag_at: Dict[Tuple, Tuple[int, int]] = {}
        for fi, (_, s, e) in enumerate(fragments):
            frag_at[s] = (fi, 0)
            frag_at[e] = (fi, 1)

        used = [False] * len(fragments)
        reversed_count: Dict[str, int] = {}
        walked: List[Tuple[List[Passage], Optional[Tuple[EndLabel, EndLabel]]]] = []

        def traverse(fi: int, entry_side: int) -> Tuple[List[Passage], Tuple]:
            """Walk one fragment from the given side; return passages and exit term."""
            used[fi] = True
            seg, s, e = fragments[fi]
            if entry_side == 0:
                return list(seg), e
            for c, _ in seg:
                reversed_count[c] = reversed_count.get(c, 0) + 1
            return list(reversed(seg)), s

        def walk(start_term: Tuple) -> Tuple[List[Passage], Tuple]:
            passages: List[Passage] = []
            term = start_term
            while True:
                fi, side = frag_at[term]
                seg, exit_term = traverse(fi, side)
                passages.extend(seg)
                if exit_term[0] == "e":
                    return passages, exit_term
                nxt = bond[exit_term]
                if nxt == start_term:
                    return passages, nxt
                term = nxt

        # Open walks first, anchored at endpoint labels in fragment order.
        endpoint_terms = []
        for seg, s, e in fragments:
            for t in (s, e):
                if t[0] == "e":
                    endpoint_terms.append(t)
        for t in endpoint_terms:
            fi, _ = frag_at[t]
            if used[fi]:
                continue
            passages, exit_term = walk(t)
            walked.append((passages, (t[1], exit_term[1])))
        # Remaining fragments close into loops.
        for fi in range(len(fragments)):
            if used[fi]:
                continue
            seg, s, e = fragments[fi]
            passages, _ = walk(s)
            walked.append((passages, None))

        new_signs = {}
        for c, s in self.crossings.items():
            if c == cid:
                continue
            new_signs[c] = -s if reversed_count.get(c, 0) == 1 else s

        taken = {c.id for c in survivors}
        new_comps = list(survivors)
        counter = 0
        for passages, ends in walked:
            while f"s{counter}" in taken:
                counter += 1
            nid = f"s{counter}"
            taken.add(nid)
            if ends is None:
                new_comps.append(Component(nid, True, tuple(passages)))
            else:
                new_comps.append(Component(nid, False, tuple(passages), ends))
        return Diagram(new_comps, new_signs)

    def oriented_smooth(self, cid: str) -> "Diagram":
        """Smooth a crossing the way that respects both strand orientations."""
        return self.smooth(cid, "A" if self.crossings[cid] > 0 else "B")

    def mirror(self) -> "Diagram":
        comps = []
        for comp in self.components:
            ps = tuple((c, "u" if r == "o" else "o") for c, r in comp.passages)
            comps.append(Component(comp.id, comp.closed, ps, comp.ends))
        return Diagram(comps, {c: -s for c, s in self.crossings.items()})

    def reverse_component(self, comp_id: str) -> "Diagram":
        comps = []
        counts: Dict[str, int] = {}
        for comp in self.components:
            if comp.id != comp_id:
                comps.append(comp)
                continue
            for c, _ in comp.passages:
                counts[c] = counts.get(c, 0) + 1
            ends = (comp.ends[1], comp.ends[0]) if comp.ends else None
            comps.append(Component(comp.id, comp.closed, tuple(reversed(comp.passages)), ends))
        signs = {c: (-s if counts.get(c, 0) == 1 else s) for c, s in self.crossings.items()}
        return Diagram(comps, signs)


@dataclass(frozen=True)
class TerminalGraph:
    """Strand structure of a diagram with open ends virtually closed.

    ``strand`` is a perfect matching on global port numbers (4 * crossing
    index + port code, crossings sorted by id): following the strand away
    from a port, through any virtual head-tail closures, one reaches its
    partner port.  ``free_loops`` counts cycles that meet no crossing.
    """

    crossing_ids: Tuple[str, ...]
    strand: Mapping[int, int]
    free_loops: int

    def port(self, cid: str, code: int) -> int:
        return 4 * self.crossing_ids.index(cid) + code


def terminal_graph(diagram: Diagram) -> TerminalGraph:
    ids = tuple(sorted(diagram.crossings))
    idx = {c: i for i, c in enumerate(ids)}

    def gp(passage: Passage, incoming: bool) -> int:
        c, r = passage
        if r == "o":
            code = OI if incoming else OO
        else:
            code = UI if incoming else UO
        return 4 * idx[c] + code

    edges: List[Tuple] = []
    free_loops = 0
    owners = set()
    for comp in diagram.components:
        ps = comp.passages
        if comp.closed:
            if not ps:
                free_loops += 1
                continue
            for k in range(len(ps)):
                edges.append((gp(ps[k], False), gp(ps[(k + 1) % len(ps)], True)))
        else:
            e0 = ("e",) + comp.ends[0]
            e1 = ("e",) + comp.ends[1]
            owners.update(o for o, _ in comp.ends)
            if not ps:
                edges.append((e0, e1))
            else:
                edges.append((e0, gp(ps[0], True)))
                for k in range(len(ps) - 1):
                    edges.append((gp(ps[k], False), gp(ps[k + 1], True)))
                edges.append((gp(ps[-1], False), e1))
    for o in sorted(owners):
        edges.append((("e", o, "head"), ("e", o, "tail")))

    incident: Dict[object, List[int]] = {}
    for ei, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(ei)
        incident.setdefault(v, []).append(ei)

    strand: Dict[int, int] = {}
    visited_edges = set()
    for start in range(4 * len(ids)):
        if start in strand:
            continue
        node: object = start
        prev_edge = -1
        while True:
            cands = [ei for ei in incident[node] if ei != prev_edge]
            ei = cands[0]
            visited_edges.add(ei)
            u, v = edges[ei]
            node = v if node == u else u
            prev_edge = ei
            if isinstance(node, int):
                strand[start] = node
                strand[node] = start
                break
    # Anything untouched is a closed ring of virtual closures and strands.
    remaining = set(range(len(edges))) - visited_edges
    while remaining:
        ei = min(remaining)
        u, _ = edges[ei]
        node = u
        prev_edge = -1
        while True:
            cands = [e for e in incident[node] if e != prev_edge and e in remaining]
            if not cands:
                break
            e = cands[0]
            remaining.discard(e)
            a, b = edges[e]
            node = b if node == a else a
            prev_edge = e
        free_loops += 1
    return TerminalGraph(ids, strand, free_loops)
