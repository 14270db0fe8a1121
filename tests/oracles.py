"""Slow reference implementations the tests compare against.

Everything here trades efficiency for obviousness: full state
enumeration instead of the contraction order, quadratic pair scans
instead of sort-and-sweep, and the Gauss integral instead of signed
crossing counts.  The diagram and polynomial operations that only tests
need (mirror, component reversal, the oriented smoothing, A -> A^k and
port numbers of a terminal graph) live here too.  So does the frontier
DP as it stood before its states shared their polynomials: every
successor merged its parent's polynomial times its factor into a fresh
or existing dict, and the greedy crossing order keyed its heap on
tuples.  ``insert_moves`` pads a diagram with Reidemeister I and II moves
without the reduction that removes them.  None of it imports the
production bracket evaluator.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from pbcjones.diagram import Component, Diagram, TerminalGraph, smoothing_joins
from pbcjones.errors import NonGenericDirectionError
from pbcjones.geometry import CHECKS, Curve, project
from pbcjones.laurent import LaurentPoly, d_power


def count_loops(diagram: Diagram) -> int:
    """Loops of a crossing-free diagram, virtual head-tail closures included."""
    if diagram.crossings:
        raise ValueError("diagram still has crossings")
    loops = sum(1 for c in diagram.components if c.closed)
    parent: Dict[object, object] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    owners = set()
    for comp in diagram.components:
        if comp.closed:
            continue
        union(comp.ends[0], comp.ends[1])
        owners.update(o for o, _ in comp.ends)
    for o in owners:
        union((o, "head"), (o, "tail"))
    roots = {find(x) for x in list(parent)}
    return loops + len(roots)


def brute_bracket(diagram: Diagram) -> LaurentPoly:
    """Bracket by expanding all 2^k smoothing states one crossing at a time.

    ``Diagram.smooth`` skips validation, so every smoothed diagram is
    rebuilt through ``Diagram(...)``, which checks it.
    """
    cids = sorted(diagram.crossings)
    total = LaurentPoly.zero()
    for kinds in product("AB", repeat=len(cids)):
        d = diagram
        exp = 0
        for cid, kind in zip(cids, kinds):
            d = d.smooth(cid, kind)
            d = Diagram(d.components, d.crossings)
            exp += 1 if kind == "A" else -1
        term = LaurentPoly.monomial(1, exp) * d_power(count_loops(d) - 1)
        total = total + term
    return total


# (port joins, terms of A^(+-1) * d^k for k = 0, 1, 2 closed loops) of the A- and
# B-smoothing of a crossing of each sign
_SMOOTHINGS = {sign: tuple((smoothing_joins(sign, kind),
                            tuple(tuple((LaurentPoly.monomial(1, shift) * d_power(k)).terms())
                                  for k in range(3)))
                           for kind, shift in (("A", 1), ("B", -1)))
               for sign in (1, -1)}


def reference_greedy_order(nbrs: List[Dict[int, int]], deg: List[int], start: int,
                           min_delta: bool, bound: Optional[Tuple[int, int]]
                           ) -> Optional[Tuple[List[int], Tuple[int, int]]]:
    """``bracket._greedy_order`` with its heap keyed on (key, -score, crossing) tuples."""
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
        cut += deg[c] - 2 * score[c]
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


def reference_crossing_order(n: int, strand: Sequence[int], search_work: float) -> List[int]:
    """``bracket._crossing_order`` over ``reference_greedy_order``, searched
    past the excess ``search_work``."""
    nbrs: List[Dict[int, int]] = [dict() for _ in range(n)]
    for p, q in enumerate(strand):
        a, b = p // 4, q // 4
        if a != b:
            nbrs[a][b] = nbrs[a].get(b, 0) + 1
    deg = [sum(d.values()) for d in nbrs]
    order, work = reference_greedy_order(nbrs, deg, 0, False, None)
    if work[1] - 2 * (2 * n - 1) <= search_work:
        return order
    for start in range(n):
        for min_delta in (False, True):
            found = reference_greedy_order(nbrs, deg, start, min_delta, work)
            if found is not None:
                order, work = found
    return order


def reference_state_sum(strand: Tuple[int, ...], signs: Tuple[int, ...], free_loops: int,
                        search_work: float) -> Tuple[LaurentPoly, int, int]:
    """(bracket, states_expanded, peak_frontier) of ``bracket._state_sum``,
    with every successor merged term by term into its own dict."""
    n = len(signs)
    order = reference_crossing_order(n, strand, search_work)

    solved = [False] * n
    at = [0] * (4 * n)
    frontier: List[int] = []
    states: Dict[Tuple[int, ...], Dict[int, int]] = {(): {0: 1}}
    states_expanded = 1
    peak = 0

    for ci in order:
        base = 4 * ci
        off = [p for p in range(base, base + 4) if not solved[strand[p] // 4]]
        gained = [strand[p] for p in off if strand[p] // 4 != ci]
        extra = off + gained
        ext = tuple(strand[p] for p in extra)
        for i, p in enumerate(frontier + extra):
            at[p] = i
        counted = -1 if ci == order[-1] else 0
        choices = [(tuple((at[base + x], at[base + y], base + y) for x, y in joins), factors)
                   for joins, factors in _SMOOTHINGS[signs[ci]]]
        solved[ci] = True
        frontier = sorted([p for p in frontier if p // 4 != ci] + gained)
        peak = max(peak, len(frontier))
        take = operator.itemgetter(*[at[p] for p in frontier]) if frontier else (lambda m: ())
        nxt: Dict[Tuple[int, ...], Dict[int, int]] = {}
        for key, poly in states.items():
            for bonds, factors in choices:
                m = [*key, *ext]
                loops = counted
                for ix, iy, y in bonds:
                    px = m[ix]
                    if px == y:
                        loops += 1
                    else:
                        py = m[iy]
                        m[at[px]] = py
                        m[at[py]] = px
                key2 = take(m)
                slot = nxt.get(key2)
                if slot is None:
                    slot = nxt[key2] = {}
                    states_expanded += 1
                for fe, fc in factors[loops]:
                    for e, c in poly.items():
                        e += fe
                        nc = slot.get(e, 0) + fc * c
                        if nc:
                            slot[e] = nc
                        else:
                            del slot[e]
        states = nxt

    return LaurentPoly(states[()]) * d_power(free_loops), states_expanded, peak


def reference_pieces(diagram: Diagram) -> List[Tuple[List[str], List[Tuple[str, int]]]]:
    """``Diagram.pieces`` as (component ids, crossing items) per piece.

    Unions the two owners of every crossing, repeats included, and the
    components that carry ends of one owner, then scans every crossing
    once per piece.
    """
    root = {c.id: c.id for c in diagram.components}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    def union(a, b):
        root[find(b)] = find(a)

    owner = {}
    for comp in diagram.components:
        for cid, role in comp.passages:
            owner[(cid, role)] = comp.id
    for cid in diagram.crossings:
        union(owner[(cid, "o")], owner[(cid, "u")])
    carriers: Dict[str, List[str]] = {}
    for comp in diagram.components:
        if not comp.closed:
            for o, _ in comp.ends:
                carriers.setdefault(o, []).append(comp.id)
    for ids in carriers.values():
        for other in ids[1:]:
            union(ids[0], other)
    groups: Dict[str, List[str]] = {}
    for comp in diagram.components:
        groups.setdefault(find(comp.id), []).append(comp.id)
    out = []
    for ids in groups.values():
        members = set(ids)
        out.append((ids, [(cid, s) for cid, s in diagram.crossings.items()
                          if owner[(cid, "o")] in members]))
    return out


def oriented_smooth(diagram: Diagram, cid: str) -> Diagram:
    """Smooth a crossing the way that respects both strand orientations."""
    return diagram.smooth(cid, "A" if diagram.crossings[cid] > 0 else "B")


def mirror(diagram: Diagram) -> Diagram:
    """Swap over and under at every crossing, which flips every sign."""
    comps = []
    for comp in diagram.components:
        ps = tuple((c, "u" if r == "o" else "o") for c, r in comp.passages)
        comps.append(Component(comp.id, comp.closed, ps, comp.ends))
    return Diagram(comps, {c: -s for c, s in diagram.crossings.items()})


def reverse_component(diagram: Diagram, comp_id: str) -> Diagram:
    """Walk one component backwards; crossings it passes once change sign."""
    comps = []
    counts: Dict[str, int] = {}
    for comp in diagram.components:
        if comp.id != comp_id:
            comps.append(comp)
            continue
        for c, _ in comp.passages:
            counts[c] = counts.get(c, 0) + 1
        ends = (comp.ends[1], comp.ends[0]) if comp.ends else None
        comps.append(Component(comp.id, comp.closed, tuple(reversed(comp.passages)), ends))
    signs = {c: (-s if counts.get(c, 0) == 1 else s) for c, s in diagram.crossings.items()}
    return Diagram(comps, signs)


def scale_exponents(p: LaurentPoly, factor: int) -> LaurentPoly:
    """Substitute A -> A**factor."""
    return LaurentPoly({e * factor: v for e, v in p.terms()}, p.mode)


def insert_moves(diagram: Diagram, rng: np.random.Generator,
                 count: int) -> Tuple[Diagram, int]:
    """``diagram`` with ``count`` kinks (RI) and bigons (RII) inserted into
    its signed Gauss code, and the writhe that they add.

    Each move goes next to a passage drawn at random, before or after it.
    A kink is two adjacent passages of a new crossing of random sign.  A
    bigon puts the first roles of two new crossings of opposite sign there,
    and their other roles, in either order, next to the other passage of
    the drawn passage's crossing.  The new crossings sit by an old one, so
    the frontier of a padded diagram stays narrow.  A diagram without
    passages takes its first move on a component drawn at random.  The
    bracket of the result is (-A^3)^(added writhe) times that of ``diagram``.
    """
    comps = [list(c.passages) for c in diagram.components]
    signs = dict(diagram.crossings)
    added = 0

    def gap_by(passage):
        """A component list and the gap just before or after a passage in it."""
        for ps in comps:
            if passage in ps:
                return ps, ps.index(passage) + int(rng.integers(2))

    for k in range(count):
        a, b = f"r{k}a", f"r{k}b"
        while a in signs or b in signs:
            a, b = "_" + a, "_" + b
        sign = int(rng.choice([1, -1]))
        first, second = ("o", "u") if rng.random() < 0.5 else ("u", "o")
        held = [p for ps in comps for p in ps]
        anchor = held[rng.integers(len(held))] if held else None
        ps, i = gap_by(anchor) if anchor else (comps[rng.integers(len(comps))], 0)
        if rng.random() < 0.5:
            ps[i:i] = [(a, first), (a, second)]
            signs[a] = sign
            added += sign
            continue
        ps[i:i] = [(a, first), (b, first)]
        if anchor:
            ps, j = gap_by((anchor[0], "u" if anchor[1] == "o" else "o"))
        else:
            j = i + 2 * int(rng.integers(2))  # not between the two new passages
        pair = [(a, second), (b, second)]
        ps[j:j] = pair if rng.random() < 0.5 else pair[::-1]
        signs[a], signs[b] = sign, -sign
    return Diagram([Component(c.id, c.closed, tuple(ps), c.ends)
                    for c, ps in zip(diagram.components, comps)], signs), added


def gauss_code(diagram: Diagram):
    """The signed Gauss code with crossings named in the order a walk over
    the components first meets them, each closed component read from the
    start that gives the least code.  Diagrams that differ only in crossing
    names and in where their closed components start get equal codes.
    Tries every start, so it is for small diagrams.
    """
    starts = [range(len(c.passages)) if c.closed and c.passages else [0]
              for c in diagram.components]
    codes = []
    for shift in product(*starts):
        names: Dict[str, int] = {}
        walks = tuple(tuple((names.setdefault(x, len(names)), r)
                            for x, r in c.passages[k:] + c.passages[:k])
                      for c, k in zip(diagram.components, shift))
        codes.append((walks, tuple(sorted((names[x], s) for x, s in diagram.crossings.items()))))
    return [(c.id, c.closed, c.ends) for c in diagram.components], min(codes)


def port(graph: TerminalGraph, cid: str, code: int) -> int:
    """Global port number of a crossing's port in a terminal graph."""
    return 4 * graph.crossing_ids.index(cid) + code


def brute_segment_crossings(flat: np.ndarray, segments: Sequence[Tuple[int, int]],
                            skip_pairs=()) -> List[Tuple[int, int]]:
    """All transversally intersecting segment pairs in the plane, by direct scan.

    ``flat`` holds 2d endpoints; ``segments`` lists (start index, end index)
    pairs into it.  Pairs sharing an endpoint and pairs in ``skip_pairs``
    are ignored, mirroring what a projection treats as adjacency.
    """
    skip = {tuple(sorted(p)) for p in skip_pairs}
    out = []
    for i in range(len(segments)):
        a0, a1 = segments[i]
        for j in range(i + 1, len(segments)):
            if (i, j) in skip:
                continue
            b0, b1 = segments[j]
            if {a0, a1} & {b0, b1}:
                continue
            p, r = flat[a0], flat[a1] - flat[a0]
            q, s = flat[b0], flat[b1] - flat[b0]
            denom = r[0] * s[1] - r[1] * s[0]
            if denom == 0.0:
                continue
            t = ((q - p)[0] * s[1] - (q - p)[1] * s[0]) / denom
            u = ((q - p)[0] * r[1] - (q - p)[1] * r[0]) / denom
            if 0.0 < t < 1.0 and 0.0 < u < 1.0:
                out.append((i, j))
    return out


def brute_overlaps(lo: np.ndarray, hi: np.ndarray) -> List[Tuple[int, int]]:
    """Flat index pairs (i < j) of the closed intervals [lo, hi] of one row
    that overlap, by comparing every two intervals of each row.

    ``lo`` and ``hi`` have shape (rows, m); interval k of row r has the flat
    index r * m + k, and an interval with a NaN end is padding, which
    overlaps nothing.
    """
    rows, m = lo.shape
    out = []
    for r in range(rows):
        for k in range(m):
            for l in range(k + 1, m):
                ends = (lo[r, k], hi[r, k], lo[r, l], hi[r, l])
                if any(math.isnan(e) for e in ends):
                    continue
                if lo[r, k] <= hi[r, l] and lo[r, l] <= hi[r, k]:
                    out.append((r * m + k, r * m + l))
    return out


def brute_separation(code: np.ndarray, cross_row: np.ndarray, px: np.ndarray,
                     py: np.ndarray, pos: np.ndarray, tol: float) -> List[int]:
    """The code of each row after the near-vertex and separation checks, by
    comparing every crossing of a row with every other crossing and every
    vertex of that row.

    Crossing k lies at (px[k], py[k]) in row cross_row[k]; the vertices of
    row r lie at (pos[0, r], pos[1, r]).  Two points are close when their
    windows [x - tol, x + tol] overlap and sqrt(dx^2 + dy^2) <= tol.  A row
    with two close crossings gets crossing_separation, else a row with a
    crossing close to a vertex gets crossing_near_vertex, else it keeps its
    code.  A NaN coordinate is close to nothing.
    """
    near_vertex = CHECKS.index("crossing_near_vertex") + 1
    separation = CHECKS.index("crossing_separation") + 1

    def close(a, b) -> bool:
        (xa, ya), (xb, yb) = a, b
        dx, dy = xa - xb, ya - yb
        return bool(xb - tol <= xa + tol and xa - tol <= xb + tol
                    and math.sqrt(dx * dx + dy * dy) <= tol)

    out = code.tolist()
    for r in range(len(out)):
        cross = [(x, y) for x, y, row in zip(px.tolist(), py.tolist(), cross_row.tolist())
                 if row == r]
        verts = list(zip(pos[0, r].tolist(), pos[1, r].tolist()))
        if any(close(a, b) for k, a in enumerate(cross) for b in cross[k + 1:]):
            out[r] = separation
        elif any(close(a, v) for a in cross for v in verts):
            out[r] = near_vertex
    return out


def gauss_linking(a: np.ndarray, b: np.ndarray) -> float:
    """Gauss linking integral of two closed polylines, segment pair by
    segment pair via the signed solid angle of the connecting tetrahedron."""
    total = 0.0
    na, nb = len(a), len(b)
    for i in range(na):
        p1, p2 = a[i], a[(i + 1) % na]
        for j in range(nb):
            q1, q2 = b[j], b[(j + 1) % nb]
            total += _pair_solid_angle(p1, p2, q1, q2)
    return total / (4.0 * math.pi)


def _unit(v: np.ndarray):
    n = np.linalg.norm(v)
    if n < 1e-12:
        return None
    return v / n


def _pair_solid_angle(p1, p2, q1, q2) -> float:
    r13 = q1 - p1
    r14 = q2 - p1
    r23 = q1 - p2
    r24 = q2 - p2
    n1 = _unit(np.cross(r13, r14))
    n2 = _unit(np.cross(r14, r24))
    n3 = _unit(np.cross(r24, r23))
    n4 = _unit(np.cross(r23, r13))
    if n1 is None or n2 is None or n3 is None or n4 is None:
        # coplanar segment pair; the spanned solid angle collapses
        return 0.0

    def asin_clip(x):
        return math.asin(max(-1.0, min(1.0, x)))

    star = (asin_clip(np.dot(n1, n2)) + asin_clip(np.dot(n2, n3))
            + asin_clip(np.dot(n3, n4)) + asin_clip(np.dot(n4, n1)))
    sign = np.dot(np.cross(q2 - q1, p2 - p1), r13)
    return star if sign > 0 else -star


def outcome(result):
    """A projection result as plain data: the failed check, or the diagram's parts."""
    if isinstance(result, NonGenericDirectionError):
        return result.feature
    return result.components, list(result.crossings.items())


def projected_alone(curves, xi):
    """``outcome`` of projecting curves along xi in a call of their own."""
    try:
        return outcome(project(curves, xi))
    except NonGenericDirectionError as err:
        return err.feature


def slk_by_translate(system, link, xi, axes, project) -> Fraction:
    """Periodic self-linking with one projection per translate.

    Every nonzero combination of copy periods (2 * dims - 1 cells) along
    ``axes``, up to the link's span plus one period each way, moves a
    copy of the link.  ``project(curves, xi)`` draws the link and that
    copy together, and half the signed crossings between them count.
    """
    frac = np.concatenate([system.cell.to_fractional(im.polyline) for im in link.images])
    periods = [2 * link.mcu.dims[ax] - 1 for ax in axes]
    reach = [math.ceil((frac[:, ax].max() - frac[:, ax].min()) / p) + 1
             for ax, p in zip(axes, periods)]
    base = [Curve(f"L|{im.curve_id}", im.polyline, im.closed) for im in link.images]
    total = Fraction(0)
    for combo in product(*(range(-r, r + 1) for r in reach)):
        if not any(combo):
            continue
        cells = np.zeros(3)
        for ax, p, k in zip(axes, periods, combo):
            cells[ax] = k * p
        offset = cells @ system.cell.basis
        moved = [Curve(f"T|{im.curve_id}", im.polyline + offset, im.closed)
                 for im in link.images]
        diagram = project(base + moved, xi)
        total += diagram.inter_linking([c.id for c in base], [c.id for c in moved])
    return total


def scalar_box_presence(frac_poly: np.ndarray, closed: bool, lo, hi) -> float:
    """Fractional length of a polyline inside the box [lo, hi], clipping
    one segment at a time with the Liang-Barsky parameter interval."""
    m = frac_poly.shape[0]
    total = 0.0
    for i in range(m if closed else m - 1):
        a, b = frac_poly[i], frac_poly[(i + 1) % m]
        d = b - a
        t0, t1 = 0.0, 1.0
        for ax in range(3):
            if abs(d[ax]) < 1e-15:
                if a[ax] < lo[ax] or a[ax] > hi[ax]:
                    t0, t1 = 1.0, 0.0
                continue
            ta, tb = sorted(((lo[ax] - a[ax]) / d[ax], (hi[ax] - a[ax]) / d[ax]))
            t0, t1 = max(t0, ta), min(t1, tb)
        if t1 > t0:
            total += float(np.linalg.norm(d)) * (t1 - t0)
    return total


def point_segment_distance(p, s0, s1) -> float:
    """Distance from p to the segment s0-s1 in the plane; points are (x, y) floats."""
    dx, dy = s1[0] - s0[0], s1[1] - s0[1]
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(p[0] - s0[0], p[1] - s0[1])
    t = min(max(((p[0] - s0[0]) * dx + (p[1] - s0[1]) * dy) / L2, 0.0), 1.0)
    return math.hypot(p[0] - (s0[0] + t * dx), p[1] - (s0[1] + t * dy))


def segment_distance(a0, a1, b0, b1) -> float:
    """Distance between two plane segments that do not cross: the least
    distance from an end of one to the other."""
    return min(point_segment_distance(a0, b0, b1), point_segment_distance(a1, b0, b1),
               point_segment_distance(b0, a0, a1), point_segment_distance(b1, a0, a1))
