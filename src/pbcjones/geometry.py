"""Projection of polygonal space curves to crossing diagrams.

A projection direction is generic when every projected segment has
positive length, all intersections are transversal, away from vertices,
separated from each other, and with distinct depths.  Any violation
raises NonGenericDirectionError naming the failed check; callers retry
with a deterministically perturbed direction.

``project`` works on whole arrays.  Candidate segment pairs come from a
sort-and-sweep: the tol-padded boxes are sorted by their low x, each
box's x-window is found with ``searchsorted`` on its high x, and the
windows are expanded into pairs and filtered on y overlap, same-curve
neighbors and end-to-end contacts.  The crossing tests then run on all
pairs at once.  Checks run in a fixed order, and pairs are taken in
lexicographic (a < b) order: when several pairs fail, the error names
the check of the first failing pair.  The separation and near-vertex
checks sweep crossings and vertices on x with a 2 tol window.  A
direction that is not finite and nonzero, or a tolerance that is not
finite and at least 0, raises PbcJonesError: no nudge can repair it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .diagram import Component, Diagram
from .errors import NonGenericDirectionError, PbcJonesError, require_nonnegative

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class Curve:
    """A polygonal curve in 3-space, closed or open.

    Closed curves do not repeat the first vertex; the closing segment is
    implied.
    """

    __slots__ = ("id", "vertices", "closed")

    def __init__(self, id: str, vertices, closed: bool):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise PbcJonesError(f"curve {id!r}: vertices must have shape (n, 3)")
        if not np.all(np.isfinite(v)):
            raise PbcJonesError(f"curve {id!r}: vertices must be finite")
        need = 3 if closed else 2
        if v.shape[0] < need:
            raise PbcJonesError(f"curve {id!r}: needs at least {need} vertices")
        diffs = np.diff(v, axis=0)
        if np.any(np.linalg.norm(diffs, axis=1) == 0.0):
            raise PbcJonesError(f"curve {id!r}: repeated consecutive vertex")
        if closed and np.linalg.norm(v[0] - v[-1]) == 0.0:
            raise PbcJonesError(f"curve {id!r}: closed curves must not repeat the first vertex")
        self.id = id
        self.vertices = v
        self.closed = closed

    @property
    def segment_count(self) -> int:
        n = self.vertices.shape[0]
        return n if self.closed else n - 1

    def reversed(self) -> "Curve":
        return Curve(self.id, self.vertices[::-1].copy(), self.closed)

    def translated(self, offset) -> "Curve":
        return Curve(self.id, self.vertices + np.asarray(offset, dtype=float), self.closed)


def check_unique_ids(curves: Sequence[Curve]) -> None:
    ids = [c.id for c in curves]
    if len(set(ids)) != len(ids):
        raise PbcJonesError("curve ids must be unique")


def sample_directions(n: int, mode: str = "fibonacci", seed: int = 0) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one direction")
    if mode == "fibonacci":
        i = np.arange(n)
        z = 1.0 - (2.0 * i + 1.0) / n
        theta = GOLDEN_ANGLE * i
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    if mode == "random":
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, 3))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        # resample the (measure-zero) degenerate rows instead of dividing by ~0
        while np.any(norms < 1e-12):
            bad = norms[:, 0] < 1e-12
            v[bad] = rng.normal(size=(int(bad.sum()), 3))
            norms = np.linalg.norm(v, axis=1, keepdims=True)
        return v / norms
    raise ValueError(f"unknown direction mode {mode!r}")


def projection_frame(xi) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame (u, v, xi); u x v = xi."""
    xi = np.asarray(xi, dtype=float)
    norm = np.linalg.norm(xi)
    if not (np.isfinite(norm) and norm > 0.0):
        raise PbcJonesError(f"projection direction must be finite and nonzero, got {xi}")
    xi = xi / norm
    axis = int(np.argmin(np.abs(xi)))
    e = np.zeros(3)
    e[axis] = 1.0
    u = e - np.dot(e, xi) * xi
    u = u / np.linalg.norm(u)
    v = np.cross(xi, u)
    return u, v, xi


def rotate_about(vec, axis, angle: float) -> np.ndarray:
    """Rodrigues rotation of vec around a unit axis."""
    vec = np.asarray(vec, dtype=float)
    axis = np.asarray(axis, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    return vec * c + np.cross(axis, vec) * s + axis * np.dot(axis, vec) * (1.0 - c)


def perturbed_direction(xi, attempt: int) -> np.ndarray:
    """Deterministic rotation used to escape non-generic directions.

    The tilt grows geometrically (flat planes of vertices need more than
    an epsilon nudge) while the tilt axis walks around the frame at the
    golden angle so no plane through xi traps the whole sequence.
    """
    u, v, xi = projection_frame(xi)
    phi = 2.399963229728653 * attempt
    tilt = min(1e-6 * 2.0 ** attempt, 0.2)
    axis = math.cos(phi) * u + math.sin(phi) * v
    out = rotate_about(xi, axis, tilt)
    return out / np.linalg.norm(out)


def _touching_terminal_pairs(curves: Sequence[Curve], seg_first) -> Set[Tuple[int, int]]:
    """Terminal segment pairs (a < b) of open curves whose endpoints coincide in 3D.

    Components that continue each other (periodic images of one thread)
    meet end to end; the contact is structural, not a crossing, so those
    segment pairs are exempt from intersection checks.  Segments are
    numbered globally, curve ``ci`` starting at ``seg_first[ci]``.
    """
    slots, ends = [], []
    for ci, c in enumerate(curves):
        if not c.closed:
            first = int(seg_first[ci])
            slots += [first, first + c.segment_count - 1]
            ends += [c.vertices[0], c.vertices[-1]]
    if not slots:
        return set()
    by_pos: Dict[Tuple[int, ...], List[int]] = {}
    for key, k in zip(np.round(np.array(ends) / 1e-6).astype(np.int64).tolist(), slots):
        by_pos.setdefault(tuple(key), []).append(k)
    return {(min(a, b), max(a, b)) for ks in by_pos.values()
            for i, a in enumerate(ks) for b in ks[i + 1:]}


def _overlaps(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of the closed intervals [lo, hi] that overlap.

    Sort-and-sweep: in lo order, the later partners of an interval are
    the run of intervals whose lo does not exceed its hi.  Each pair is
    returned once, in no particular orientation.
    """
    order = np.argsort(lo, kind="stable")
    n = order.shape[0]
    counts = np.searchsorted(lo[order], hi[order], side="right") - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), counts)
    step = np.arange(first.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    return order[first], order[first + 1 + step]


def _candidate_pairs(starts, ends, seg_curve, seg_index, seg_count, seg_closed, tol,
                     excluded):
    """Segment pairs (a < b) in lexicographic order whose tol-padded boxes overlap.

    Neighbors on one curve and the global index pairs in ``excluded``
    are dropped.  Segments that cross or come within tol of each other
    always have overlapping padded boxes.
    """
    lo = np.minimum(starts, ends) - tol
    hi = np.maximum(starts, ends) + tol
    i, j = _overlaps(lo[:, 0], hi[:, 0])
    keep = (lo[j, 1] <= hi[i, 1]) & (lo[i, 1] <= hi[j, 1])
    i, j = i[keep], j[keep]
    a, b = np.minimum(i, j), np.maximum(i, j)
    d = np.abs(seg_index[a] - seg_index[b])
    # neighbors share a vertex, not a crossing
    keep = ~((seg_curve[a] == seg_curve[b])
             & ((d <= 1) | (seg_closed[a] & (d == seg_count[a] - 1))))
    if excluded:
        # curves meeting end to end touch, not cross
        n = starts.shape[0]
        keep &= ~np.isin(a * n + b, [x * n + y for x, y in excluded])
    a, b = a[keep], b[keep]
    order = np.lexsort((b, a))
    return a[order], b[order]


def project(curves: Sequence[Curve], xi, tol: float = 1e-9) -> Diagram:
    """Project curves along xi and read off the crossing diagram.

    Larger depth along xi means nearer the viewer, i.e. the over strand.
    """
    require_nonnegative("tolerance", tol)
    check_unique_ids(curves)
    u, v, xi = projection_frame(xi)
    uv = np.column_stack([u, v])
    flat = np.concatenate([c.vertices @ uv for c in curves])
    depth = np.concatenate([c.vertices @ xi for c in curves])

    # segment k of the concatenated curves runs from vertex v0[k] to v1[k]
    closed = np.array([c.closed for c in curves])
    n_vert = np.array([c.vertices.shape[0] for c in curves])
    n_seg = np.where(closed, n_vert, n_vert - 1)
    seg_curve = np.repeat(np.arange(len(curves)), n_seg)
    seg_first = np.cumsum(n_seg) - n_seg
    seg_index = np.arange(seg_curve.shape[0]) - seg_first[seg_curve]
    seg_count = n_seg[seg_curve]
    seg_closed = closed[seg_curve]
    last = seg_index == seg_count - 1
    v0 = (np.cumsum(n_vert) - n_vert)[seg_curve] + seg_index
    v1 = np.where(last & seg_closed, v0 - seg_index, v0 + 1)
    starts, ends = flat[v0], flat[v1]
    d0, d1 = depth[v0], depth[v1]

    deltas = ends - starts
    lens = np.linalg.norm(deltas, axis=1)
    if np.any(lens <= tol):
        raise NonGenericDirectionError("degenerate_segment")

    # consecutive segments folding straight back overlap in projection
    k = np.flatnonzero(~last | seg_closed)
    nxt = np.where(last[k], k - seg_index[k], k + 1)
    d, dn = deltas[k], deltas[nxt]
    crossz = d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0]
    dots = np.einsum("ij,ij->i", d, dn)
    if np.any((np.abs(crossz) <= tol * (lens[k] * lens[nxt])) & (dots < 0)):
        raise NonGenericDirectionError("fold_back")

    pa_all, pb_all = _candidate_pairs(starts, ends, seg_curve, seg_index, seg_count,
                                      seg_closed, tol,
                                      _touching_terminal_pairs(curves, seg_first))
    da, db = deltas[pa_all], deltas[pb_all]
    denom = da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]
    parallel = np.abs(denom) <= tol * (lens[pa_all] * lens[pb_all])

    q = np.flatnonzero(~parallel)
    a, b, da, db, denom = pa_all[q], pb_all[q], da[q], db[q], denom[q]
    w = starts[b] - starts[a]
    s = (w[:, 0] * db[:, 1] - w[:, 1] * db[:, 0]) / denom
    t = (w[:, 0] * da[:, 1] - w[:, 1] * da[:, 0]) / denom
    fa, fb = tol / lens[a], tol / lens[b]
    inside = (0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0)
    near = (-fa <= s) & (s <= 1.0 + fa) & (-fb <= t) & (t <= 1.0 + fb)
    za = d0[a] * (1.0 - s) + d1[a] * s
    zb = d0[b] * (1.0 - t) + d1[b] * t
    failed = np.flatnonzero(near & (~inside | (np.abs(za - zb) <= tol)))

    # the first failing pair in pair order names the error; parallel
    # pairs before it are tested one by one
    stop = q[failed[0]] if failed.shape[0] else parallel.shape[0]
    for p in np.flatnonzero(parallel[:stop]).tolist():
        pa, pb = starts[pa_all[p]], starts[pb_all[p]]
        if _segments_too_close(pa.tolist(), (pa + deltas[pa_all[p]]).tolist(),
                               pb.tolist(), (pb + deltas[pb_all[p]]).tolist(), tol):
            raise NonGenericDirectionError("tangency")
    if failed.shape[0]:
        if not inside[failed[0]]:
            raise NonGenericDirectionError("crossing_near_vertex")
        raise NonGenericDirectionError("depth_coincidence")

    a, b, s, t, za, zb, denom = (x[near] for x in (a, b, s, t, za, zb, denom))
    pts = starts[a] + s[:, None] * deltas[a]
    n_cross = pts.shape[0]
    if n_cross:
        # crossings closer than tol to each other or to a vertex, found
        # by an x-sweep with a 2 tol window
        both = np.concatenate([pts, flat])
        i, j = _overlaps(both[:, 0] - tol, both[:, 0] + tol)
        dx = both[i, 0] - both[j, 0]
        dy = both[i, 1] - both[j, 1]
        close = np.sqrt(dx * dx + dy * dy) <= tol
        if np.any(close & (i < n_cross) & (j < n_cross)):
            raise NonGenericDirectionError("crossing_separation")
        if np.any(close & ((i < n_cross) != (j < n_cross))):
            raise NonGenericDirectionError("crossing_near_vertex")

    # names follow the sorted (curve, segment, parameter) slots of each crossing
    a_over = za > zb
    rank = np.empty(n_cross, dtype=np.int64)
    rank[np.lexsort((t, b, s, a))] = np.arange(n_cross)
    names = [f"c{r}" for r in rank.tolist()]
    # cross(over, under) is denom when a is over and -denom otherwise
    signs = dict(zip(names, np.where(a_over == (denom > 0), 1, -1).tolist()))

    seg = np.concatenate([a, b])
    order = np.lexsort((np.concatenate([s, t]), seg))
    over = np.concatenate([a_over, ~a_over])[order].tolist()
    passages: List[List[Tuple[str, str]]] = [[] for _ in curves]
    for e, ci, o in zip(order.tolist(), seg_curve[seg[order]].tolist(), over):
        passages[ci].append((names[e % n_cross], "o" if o else "u"))
    comps = [Component(c.id, c.closed, tuple(p)) for c, p in zip(curves, passages)]
    return Diagram(comps, signs)


def _segments_too_close(a0, a1, b0, b1, tol: float) -> bool:
    return _seg_dist(a0, a1, b0, b1) <= tol


def _point_seg_dist(p, s0, s1) -> float:
    """Distance from p to the segment s0-s1; points are (x, y) floats."""
    dx, dy = s1[0] - s0[0], s1[1] - s0[1]
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(p[0] - s0[0], p[1] - s0[1])
    t = min(max(((p[0] - s0[0]) * dx + (p[1] - s0[1]) * dy) / L2, 0.0), 1.0)
    return math.hypot(p[0] - (s0[0] + t * dx), p[1] - (s0[1] + t * dy))


def _seg_dist(a0, a1, b0, b1) -> float:
    return min(
        _point_seg_dist(a0, b0, b1),
        _point_seg_dist(a1, b0, b1),
        _point_seg_dist(b0, a0, a1),
        _point_seg_dist(b1, a0, a1),
    )


def is_generic(curves: Sequence[Curve], xi, tol: float = 1e-9) -> bool:
    try:
        project(curves, xi, tol)
    except NonGenericDirectionError:
        return False
    return True
