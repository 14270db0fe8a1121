"""Bracket state sums over diagrams.

The sum over smoothing states is organized as a frontier dynamic program:
crossings are resolved one at a time in a fixed order, and partial states
that induce the same pairing of still-unresolved crossing ports are
merged by adding their polynomials.  Loop closures multiply by the loop
value d = -A^2 - A^-2; open strands count through their virtual head-tail
closures, which the terminal graph has already folded in.

The polynomial arithmetic of the DP is one merge loop.  ``_SMOOTHINGS``
holds, for each crossing sign and smoothing, the port joins, the
exponent of its factor A^(+-1) and the terms of d^k for k = 0, 1 and 2
closed loops, built once at import from ``laurent.d_power``.  A state's
polynomial is A^offset times a coefficient dict, and the state records
whether it owns the dict.  A successor that closes no loop has the bare
factor A^(+-1) (84% of the successors of a jersey pass of the benchmark,
71% of a melt pass); as a new state it shares its parent's dict and only
moves the offset.  A new state that closes loops starts from an empty
dict of its own, and the merge loop adds the parent's polynomial times
d^k into it.  A merge into a state that shares its dict first copies the
dict, so a shared dict never changes and every state holding it keeps
its polynomial.  The merge loop moves each exponent by the difference of
the two states' offsets plus the exponent of the d^k term.  Building new d^k
states by one dict comprehension over the product's exponents measured
slower (the chainmail cutoff N = 64 took about twice as long), and a
comprehension for the first term of d^k with the merge loop for the rest
was no faster.  The last crossing of the order leaves an empty frontier,
so each of its smoothings closes at least one loop; it counts one loop
fewer, which divides the sum by d, and the bracket is that sum times d
to the number of free loops.  A crossingless diagram is
d^(free loops - 1), or 1 when it has none.

A state is keyed by its frontier alone.  The frontier ports are the
unsolved ports whose strand partner lies in a solved crossing, in
ascending port order; a state's key holds the port that each of them is
paired with through the solved crossings.  Every other unsolved port is
still paired with its static ``strand`` partner in every state, so it
needs no entry.  A step builds its working list as the key, then the
solved crossing's ports off the frontier and the ports that the cut
gains, both at their static partners; two writes per bond smooth it, and
one itemgetter takes the next frontier.  The key is as long as the cut,
so ``peak_frontier`` is the peak cut of the order.  Keying by every live
port instead, four per unsolved crossing, gives the same states in the
same order, but copies 6.7 times as many entries per jersey pass of the
benchmark and 7.8 times as many per melt pass.

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
No order of a connected diagram does less than 2n - 1, a cut of 2 at
every step but the last, so the excess of the greedy sum over 2n - 1
bounds what any order can save.  The search runs the greedy again from
every start crossing, once with its own tie-break and once taking the
smallest change in the cut first, and the order with the least predicted
work wins.  The greedy order is the first candidate, so the search never
picks an order predicted to be worse.  The search itself costs 2n greedy
runs, which grow with n as the least work does, so it runs only when the
greedy sum exceeds twice the least work, 2(2n - 1), by more than
``SEARCH_WORK``.  The constant keeps the search off diagrams where it
cannot pay: searching every diagram costs about 1.1 s of order search per
melt pass of the benchmark and saves no DP time, and the greedy excess
over 2n - 1 peaks at 341 on melt, 32 on chainmail and 34 on the open
trefoil.  On jersey
the search runs on 7 of the 27 distinct diagrams of a pass (each has at
most 59 crossings and an excess of at least 630) and brings the pass
from 46,544 states to 22,262.  A chainmail cutoff of N >= 2 copies along
the tests' coherent direction has 12N - 2 crossings and a greedy order
of peak cut 4 and excess 6N + 2, far below 2n - 1 + ``SEARCH_WORK``, so
it is never searched.  Weighing the excess alone against ``SEARCH_WORK``
would search it from N = 86 on, where the search takes the bracket from
about 0.2 s to 0.7 s.

The cutoff check passes ``bracket`` a memo dict, because it meets the
same smoothed pieces state after state (978 bracket calls on 85
distinct diagrams per chainmail pass of the benchmark).  Its key is the
diagram less its component ids: each component's closedness, passages
and end labels, in component order, and the crossing items.  That is
all ``terminal_graph`` reads, and the state sum reads only the terminal
graph and the signs, so a key gives one polynomial and one pair of
counters, and a hit returns the stored ``BracketResult`` without
building a terminal graph.  Diagrams that differ only in component ids
share an entry; diagrams that differ in crossing names, or list their
crossings in another order, do not.  A miss stores its result while the
memo holds fewer than ``MEMO_LIMIT`` entries.  The caller owns the memo
and keeps it for one check: there is no cache across calls.  Full of
distinct 25-crossing diagrams a memo holds about 9 MB, 2.2 KB per entry
(tracemalloc over 300 projected random closed 15-gons).  A chainmail
cutoff check of the benchmark stores at most 18 entries.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .diagram import Diagram, smoothing_joins, terminal_graph
from .errors import StateSumTooLargeError, require_count
from .laurent import LaurentPoly, d_power

DEFAULT_CROSSING_CAP = 48
# entries at which a bracket memo stops storing (see the module docstring)
MEMO_LIMIT = 4096
# excess of the greedy's predicted work (sum of 2^(cut/2)) over twice the least
# work, 2 * (2n - 1), above which the crossing order is searched
SEARCH_WORK = 512
# (port joins, exponent of A^(+-1), terms of d^k for k = 0, 1, 2 closed loops) of
# the A- and B-smoothing of a crossing of each sign
_SMOOTHINGS = {sign: tuple((smoothing_joins(sign, kind), shift,
                            tuple(tuple(d_power(k).terms()) for k in range(3)))
                           for kind, shift in (("A", 1), ("B", -1)))
               for sign in (1, -1)}


@dataclass(frozen=True)
class BracketResult:
    poly: LaurentPoly
    states_expanded: int
    peak_frontier: int  # ports in the longest state key, the peak cut of the order

    @property
    def cache_hits(self) -> int:
        """States merged into an existing key: always states_expanded - 1."""
        return self.states_expanded - 1


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

    A heap entry is one int, ``(k * 5 - s) * n + b`` for crossing ``b`` with
    ``s`` connections, where ``k`` is the change in the cut, ``deg[b] - 2s``,
    with ``min_delta`` and ``-s`` without.  It sorts exactly as the tuple
    ``(k, -s, b)``: a crossing has four ports, so ``s <= deg[b] <= 4`` and
    ``-s`` takes one of 5 values, which makes ``k * 5 - s`` order as
    ``(k, -s)``; and ``0 <= b < n`` does the same for the final ``* n + b``.
    Expanded, an entry is the crossing's entry at ``s = 0`` less ``s``
    times ``step``, 11n with ``min_delta`` and 6n without.  Ints compare
    faster than tuples, and the heap compares them often.
    """
    n = len(nbrs)
    score = [0] * n
    done = [False] * n
    step = 11 * n if min_delta else 6 * n
    key = [deg[i] * 5 * n + i if min_delta else i for i in range(n)]
    heap = key[:]
    heapq.heapify(heap)
    order: List[int] = []
    cut = peak = work = 0
    c = start
    while True:
        done[c] = True
        order.append(c)
        cut += deg[c] - 2 * score[c]  # degrees are even, so is the cut
        if cut > peak:
            peak = cut
        work += 1 << (cut // 2)
        if bound is not None and (peak, work) >= bound:
            return None
        if len(order) == n:
            return order, (peak, work)
        for b, w in nbrs[c].items():
            if not done[b]:
                s = score[b] = score[b] + w
                heapq.heappush(heap, key[b] - s * step)
        while True:
            c = heapq.heappop(heap) % n
            if not done[c]:
                break


def _crossing_order(n: int, strand: Tuple[int, ...]) -> List[int]:
    """Order of ``n >= 1`` crossings: the greedy from crossing 0, searched
    over start crossings and tie-breaks when its predicted work exceeds
    twice the least work, 2 * (2n - 1), by more than ``SEARCH_WORK`` (see the
    module docstring).  Only a strictly smaller ``(peak, sum)`` replaces the
    greedy order.
    """
    nbrs: List[Dict[int, int]] = [dict() for _ in range(n)]
    for p, q in enumerate(strand):
        a, b = p // 4, q // 4
        if a != b:
            nbrs[a][b] = nbrs[a].get(b, 0) + 1
    deg = [sum(d.values()) for d in nbrs]
    order, work = _greedy_order(nbrs, deg, 0, False, None)
    # a search can save at most the excess over 2n - 1, and costs about 2n greedy runs
    if work[1] - 2 * (2 * n - 1) <= SEARCH_WORK:
        return order
    for start in range(n):
        for min_delta in (False, True):
            found = _greedy_order(nbrs, deg, start, min_delta, work)
            if found is not None:
                order, work = found
    return order


def bracket(diagram: Diagram, crossing_cap: int = DEFAULT_CROSSING_CAP,
            memo: Optional[dict] = None) -> BracketResult:
    require_count("crossing_cap", crossing_cap, 0)
    n = len(diagram.crossings)
    if n > crossing_cap:
        raise StateSumTooLargeError(n, crossing_cap)
    if memo is not None:
        key = (tuple((c.closed, c.passages, c.ends) for c in diagram.components),
               tuple(diagram.crossings.items()))
        res = memo.get(key)
        if res is not None:
            return res

    tg = terminal_graph(diagram)
    if n == 0:
        res = BracketResult(d_power(max(tg.free_loops - 1, 0)), 1, 0)
    else:
        res = _state_sum(tg.strand, tuple(diagram.crossings[c] for c in tg.crossing_ids),
                         tg.free_loops)
    if memo is not None and len(memo) < MEMO_LIMIT:
        memo[key] = res
    return res


def _state_sum(strand: Tuple[int, ...], signs: Tuple[int, ...], free_loops: int) -> BracketResult:
    """Frontier DP over the crossings of a terminal graph with at least one crossing."""
    n = len(signs)
    order = _crossing_order(n, strand)

    solved = [False] * n
    at = [0] * (4 * n)  # index of a port in the step's working list, for its ports only
    frontier: List[int] = []
    # key -> (offset, coefficients, owned): the polynomial is A^offset times the
    # coefficient dict, which only an owned state may change
    states: Dict[Tuple[int, ...], Tuple[int, Dict[int, int], bool]] = {(): (0, {0: 1}, True)}
    states_expanded = 1
    peak = 0

    for ci in order:
        base = 4 * ci
        # the working list: the frontier, then the crossing's ports off it and
        # the ports the cut gains, both at their static strand partners
        off = [p for p in range(base, base + 4) if not solved[strand[p] // 4]]
        gained = [strand[p] for p in off if strand[p] // 4 != ci]
        extra = off + gained
        ext = tuple(strand[p] for p in extra)
        for i, p in enumerate(frontier + extra):
            at[p] = i
        # the last crossing closes at least one loop; counting one fewer there
        # divides the sum by the loop value
        counted = -1 if ci == order[-1] else 0
        choices = [(at[base + x1], at[base + y1], base + y1, at[base + x2], at[base + y2],
                     base + y2, shift, factors)
                   for ((x1, y1), (x2, y2)), shift, factors in _SMOOTHINGS[signs[ci]]]
        solved[ci] = True
        frontier = sorted([p for p in frontier if p // 4 != ci] + gained)
        peak = max(peak, len(frontier))
        # itemgetter needs an index; the last crossing leaves an empty frontier
        take = operator.itemgetter(*[at[p] for p in frontier]) if frontier else (lambda m: ())
        nxt: Dict[Tuple[int, ...], Tuple[int, Dict[int, int], bool]] = {}
        for key, (offset, poly, _) in states.items():
            for ix, iy, y, jx, jy, z, shift, factors in choices:
                m = [*key, *ext]
                loops = counted
                px = m[ix]
                if px == y:
                    loops += 1
                else:
                    py = m[iy]
                    m[at[px]] = py
                    m[at[py]] = px
                px = m[jx]
                if px == z:
                    loops += 1
                else:
                    py = m[jy]
                    m[at[px]] = py
                    m[at[py]] = px
                key2 = take(m)
                slot = nxt.get(key2)
                if slot is None:
                    states_expanded += 1
                    if not loops:
                        nxt[key2] = (offset + shift, poly, False)
                        continue
                    slot = nxt[key2] = (offset + shift, {}, True)
                slot_offset, coeffs, owned = slot
                if not owned:
                    coeffs = dict(coeffs)
                    nxt[key2] = (slot_offset, coeffs, True)
                delta = offset + shift - slot_offset
                for fe, fc in factors[loops]:
                    fe += delta
                    for e, c in poly.items():
                        e += fe
                        nc = coeffs.get(e, 0) + fc * c
                        if nc:
                            coeffs[e] = nc
                        else:
                            del coeffs[e]
        states = nxt

    offset, poly, _ = states[()]
    poly = LaurentPoly({e + offset: c for e, c in poly.items()})
    return BracketResult(poly * d_power(free_loops), states_expanded, peak)


def writhe_prefactor(writhe: int) -> LaurentPoly:
    """(-A^3)^(-writhe), the factor that turns a bracket into a Jones polynomial."""
    return LaurentPoly.monomial(-1 if writhe % 2 else 1, -3 * writhe)


def jones_of_diagram(diagram: Diagram, crossing_cap: int = DEFAULT_CROSSING_CAP) -> LaurentPoly:
    """Writhe-corrected bracket: (-A^3)^(-writhe) times the bracket."""
    return writhe_prefactor(diagram.writhe) * bracket(diagram, crossing_cap).poly
