"""Bracket state sums over diagrams.

The sum over smoothing states is organized as a frontier dynamic program:
crossings are resolved one at a time in a fixed order, and partial states
that induce the same pairing of still-unresolved crossing ports are
merged by adding their polynomials.  Loop closures multiply by the loop
value -A^2 - A^-2; open strands count through their virtual head-tail
closures, which the terminal graph has already folded in.  A state's key
is the tuple of partner ports, one per live port in ascending order, so a
smoothing rewrites it by position: two slot writes per bond, then one
itemgetter that drops the resolved crossing's four slots.

Each state yields two successor keys per crossing, and each is either a
new state (counted in ``states_expanded``) or a merge into one already
made.  The DP starts and ends with one state, so merges always number
``states_expanded - 1``; ``cache_hits`` reports that rather than
counting it.

The crossing order sets how wide the frontier gets.  ``_crossing_order``
runs a greedy that takes the crossing with the most strand connections
into the solved set, ties to the lowest index, starting at crossing 0; a
heap with lazy deletion makes it O(n log n).  The same pass tracks the
cut, the strand edges between solved and unsolved crossings after each
step, and predicts the order's work as ``(peak cut, sum of 2^(cut/2))``.
When the greedy sum exceeds ``SEARCH_WORK``, the greedy runs again from
every start crossing, once with its own tie-break and once taking the
smallest change in the cut first, and the order with the least predicted
work wins.  The greedy order is the first candidate, so the search never
picks an order predicted to be worse.  The constant keeps the search off
diagrams where it cannot pay: searching every diagram costs about 0.9 s
of order search per melt pass of the benchmark to save 0.08 s of DP,
and the greedy work peaks at 438 on melt, 147 on chainmail and 51 on the
open trefoil.  On jersey the 13 diagrams above 300 hold 44,068 of the
46,544 states of a pass; the search runs on the 7 above 512 and brings
the pass to 22,262 states.

A caller that solves many diagrams can pass ``bracket`` a memo dict.  Its
key is the complete input of the state sum: ``tg.strand`` of the terminal
graph as it stands (a tuple holding one partner port per global port),
the crossing signs in crossing-index order, and the count of free loops.
The crossing order, searched or not, reads only the strand matching, so
it, the polynomial and ``states_expanded`` are functions of that key
alone, and a hit returns the stored ``BracketResult`` exact down to the
counters.
Diagrams that differ only in component ids, or in crossing names that
sort alike, share an entry.  The caller owns the memo and
keeps it for one call (one direction chunk, one cutoff check): there is
no cache across calls.  Past ``MEMO_LIMIT`` entries a memo stops storing,
which holds it near 8 MB on 25-crossing diagrams.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .diagram import Diagram, smoothing_joins, terminal_graph
from .errors import StateSumTooLargeError
from .laurent import LaurentPoly

DEFAULT_CROSSING_CAP = 48
# entries past which a bracket memo stops storing (about 2 KB each at 25 crossings)
MEMO_LIMIT = 4096
# predicted work (sum of 2^(cut/2)) above which the crossing order is searched
SEARCH_WORK = 512

MemoKey = Tuple[Tuple[int, ...], Tuple[int, ...], int]


@dataclass(frozen=True)
class BracketResult:
    poly: LaurentPoly
    states_expanded: int

    @property
    def cache_hits(self) -> int:
        """States merged into an existing key: always states_expanded - 1."""
        return self.states_expanded - 1


def _mul_d(poly: Dict[int, int], times: int) -> Dict[int, int]:
    for _ in range(times):
        out: Dict[int, int] = {}
        for e, c in poly.items():
            out[e + 2] = out.get(e + 2, 0) - c
            out[e - 2] = out.get(e - 2, 0) - c
        poly = {e: c for e, c in out.items() if c}
    return poly


def _div_d(poly: Dict[int, int]) -> Dict[int, int]:
    """Exact division by -A^2 - A^-2; raises if the division is not exact."""
    if not poly:
        return {}
    floor = min(poly)
    q: Dict[int, int] = {}
    r = dict(poly)
    while r:
        e = max(r)
        if e < floor:
            raise ArithmeticError("state sum not divisible by the loop value")
        c = r.pop(e)
        q[e - 2] = q.get(e - 2, 0) - c
        low = r.get(e - 4, 0) - c
        if low:
            r[e - 4] = low
        else:
            r.pop(e - 4, None)
    return q


def _greedy_order(nbrs: List[Dict[int, int]], deg: List[int], start: int, min_delta: bool,
                  bound: Optional[Tuple[int, int]]) -> Optional[Tuple[List[int], Tuple[int, int]]]:
    """One greedy crossing order from ``start`` and its predicted work.

    Each later step takes the unsolved crossing with the most strand
    connections into the solved set; with ``min_delta`` it first takes the
    smallest change in the cut, then the most connections.  Ties go to the
    lowest index.  A heap with lazy deletion serves the picks: a crossing's
    key strictly falls as its connections grow, so its newest entry pops
    first and older ones find it done.  Returns None as soon as the
    order's work reaches ``bound``, since it can no longer beat it.
    """
    n = len(nbrs)
    score = [0] * n
    done = [False] * n
    heap = [(deg[i] if min_delta else 0, 0, i) for i in range(n)]
    heapq.heapify(heap)
    order: List[int] = []
    cut = peak = work = 0
    c = start
    while True:
        done[c] = True
        order.append(c)
        cut += deg[c] - 2 * score[c]  # degrees are even, so is the cut
        peak = max(peak, cut)
        work += 1 << (cut // 2)
        if bound is not None and (peak, work) >= bound:
            return None
        if len(order) == n:
            return order, (peak, work)
        for b, w in nbrs[c].items():
            if not done[b]:
                s = score[b] = score[b] + w
                heapq.heappush(heap, (deg[b] - 2 * s if min_delta else -s, -s, b))
        while True:
            c = heapq.heappop(heap)[2]
            if not done[c]:
                break


def _crossing_order(n: int, strand: Tuple[int, ...]) -> List[int]:
    """Order of ``n >= 1`` crossings: the greedy from crossing 0, searched
    over start crossings and tie-breaks when its predicted work exceeds
    ``SEARCH_WORK`` (see the module docstring).  Only a strictly smaller
    ``(peak, sum)`` replaces the greedy order.
    """
    nbrs: List[Dict[int, int]] = [dict() for _ in range(n)]
    for p, q in enumerate(strand):
        a, b = p // 4, q // 4
        if a != b:
            nbrs[a][b] = nbrs[a].get(b, 0) + 1
    deg = [sum(d.values()) for d in nbrs]
    order, work = _greedy_order(nbrs, deg, 0, False, None)
    if work[1] <= SEARCH_WORK:
        return order
    for start in range(n):
        for min_delta in (False, True):
            found = _greedy_order(nbrs, deg, start, min_delta, work)
            if found is not None:
                order, work = found
    return order


def bracket(diagram: Diagram, crossing_cap: int = DEFAULT_CROSSING_CAP,
            memo: Optional[Dict[MemoKey, BracketResult]] = None) -> BracketResult:
    tg = terminal_graph(diagram)
    n = len(tg.crossing_ids)
    if n > crossing_cap:
        raise StateSumTooLargeError(n, crossing_cap)

    if n == 0:
        if tg.free_loops == 0:
            return BracketResult(LaurentPoly.one(), 1)
        return BracketResult(LaurentPoly(_mul_d({0: 1}, tg.free_loops - 1)), 1)

    key = (tg.strand, tuple(diagram.crossings[c] for c in tg.crossing_ids), tg.free_loops)
    if memo is None:
        return _state_sum(*key)
    res = memo.get(key)
    if res is None:
        res = _state_sum(*key)
        if len(memo) < MEMO_LIMIT:
            memo[key] = res
    return res


def _state_sum(strand: Tuple[int, ...], signs: Tuple[int, ...], free_loops: int) -> BracketResult:
    """Frontier DP over the crossings of a terminal graph with at least one crossing."""
    n = len(signs)
    order = _crossing_order(n, strand)

    live: List[int] = list(range(4 * n))
    states: Dict[Tuple[int, ...], Dict[int, int]] = {strand: {0: 1}}
    states_expanded = 1

    for ci in order:
        sign = signs[ci]
        base = 4 * ci
        pos = {p: i for i, p in enumerate(live)}
        choices = []
        for kind, shift in (("A", 1), ("B", -1)):
            joins = smoothing_joins(sign, kind)
            choices.append((shift, tuple((pos[base + x], pos[base + y], base + y)
                                         for x, y in joins)))
        keep = [i for i, p in enumerate(live) if p // 4 != ci]
        # itemgetter needs an index; the last crossing leaves no live port
        take = operator.itemgetter(*keep) if keep else (lambda m: ())
        nxt: Dict[Tuple[int, ...], Dict[int, int]] = {}
        for key, poly in states.items():
            for shift, bonds in choices:
                m = list(key)
                loops = 0
                for ix, iy, y in bonds:
                    px = m[ix]
                    if px == y:
                        loops += 1
                    else:
                        py = m[iy]
                        m[pos[px]] = py
                        m[pos[py]] = px
                contrib = {e + shift: c for e, c in poly.items()}
                if loops:
                    contrib = _mul_d(contrib, loops)
                key2 = take(m)
                slot = nxt.get(key2)
                if slot is None:
                    nxt[key2] = contrib
                    states_expanded += 1
                else:
                    for e, c in contrib.items():
                        nc = slot.get(e, 0) + c
                        if nc:
                            slot[e] = nc
                        else:
                            del slot[e]
        states = nxt
        live = [live[i] for i in keep]

    total = states.get((), {})
    if free_loops:
        total = _mul_d(total, free_loops - 1)
    else:
        total = _div_d(total)
    return BracketResult(LaurentPoly(total), states_expanded)


def writhe_prefactor(writhe: int) -> LaurentPoly:
    """(-A^3)^(-writhe), the factor that turns a bracket into a Jones polynomial."""
    return LaurentPoly.monomial(-1 if writhe % 2 else 1, -3 * writhe)


def jones_of_diagram(diagram: Diagram, crossing_cap: int = DEFAULT_CROSSING_CAP) -> LaurentPoly:
    """Writhe-corrected bracket: (-A^3)^(-writhe) times the bracket."""
    return writhe_prefactor(diagram.writhe) * bracket(diagram, crossing_cap).poly
