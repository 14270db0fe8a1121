"""Projection of polygonal space curves to crossing diagrams.

A projection direction is generic when every projected segment has
positive length, all intersections are transversal, away from vertices,
separated from each other, and with distinct depths.  Any violation
raises NonGenericDirectionError naming the failed check; callers retry
with a deterministically perturbed direction.

One kernel, ``_Segments``, projects blocks of rows.  Every row of a
block shares one segment table; a row is a direction, or a translate.
``project_many`` projects one collection along many directions: all its
rows share the vertex coordinates.  ``project_translates`` projects a
collection with some of its curves moved by each of many lattice
offsets, along one direction: each row has its own coordinates.  Open
curves that meet end to end touch rather than cross: two terminal
segments whose free ends lie within ``CONTACT_TOL`` on every axis of the
row's own coordinates are never tested as a pair.  Rows go through in
blocks of at most ``BLOCK_ROWS`` (row, segment) pairs, and every check
of a block runs as one array operation over all its rows.  The block
bound keeps the arrays, and so the memory, small; larger blocks are no
faster.  ``project`` is the one-direction call of the same kernel.
Frames and coordinates use only elementwise array operations, so a row
gives the same result alone or in any block.

Candidate segment pairs come from a sort-and-sweep: the ends of the
tol-padded x-intervals of each row are sorted within the row, low ends
first on ties, and the later partners of a box are the low ends sorted
between its own two ends.  One stable argsort along the rows of a
(rows, 2 x segments) array sorts every row at once and compares only
values of one row, so no comparison is rounded; for 35 rows of 29
segments it takes 28 us where one lexsort by (row, value) over all rows
takes 147 us (numpy 2.4, one Xeon core).  Pairs are then filtered on
y overlap, same-curve neighbors and end-to-end contacts, and the
crossing tests run on all pairs of the block at once.  Checks run in a
fixed order, and pairs are taken in lexicographic (a < b) order: when
several pairs of a row fail, its error names the check of the first
failing pair.  A row that fails a check leaves the block before the
next check, so no later check divides by its zero lengths.
The separation and near-vertex checks sweep crossings and vertices on x
with a 2 tol window, in the same way; each row's crossings are padded
with NaN to the widest row's count, and a NaN interval pairs with
nothing.  A direction that is not finite and nonzero, or a tolerance
that is not a finite real number of at least 0, raises PbcJonesError
before anything is projected: no nudge can repair it.

Rows of one ``project_many`` or ``project_translates`` call that see the
same diagram share one ``Diagram`` object.  A row's key is its passages
in order, one int each of (name rank, curve, role, crossing sign), and
a row whose key came before gets the diagram built for it; crossing
maps are built in name order, so that diagram equals the one the row
would build.  The call keeps each distinct diagram, and one (name,
role) passage tuple per name and role, for its rows to share: 2,000
directions of the open trefoil see 280 distinct diagrams.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from .diagram import Component, Diagram
from .errors import NonGenericDirectionError, PbcJonesError, require_nonnegative

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
BLOCK_ROWS = 1024  # rows (directions or translates) x segments projected in one array pass
CONTACT_TOL = 1e-6  # free ends of open curves this close on every axis meet end to end


class Curve:
    """A polygonal curve in 3-space, closed or open.

    Closed curves do not repeat the first vertex; the closing segment is
    implied.
    """

    __slots__ = ("id", "vertices", "closed")

    def __init__(self, id: str, vertices, closed: bool):
        if not isinstance(closed, (bool, np.bool_)):
            raise PbcJonesError(f"curve {id!r}: closed must be a bool, got {closed!r}")
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise PbcJonesError(f"curve {id!r}: vertices must have shape (n, 3)")
        if not np.all(np.isfinite(v)):
            raise PbcJonesError(f"curve {id!r}: vertices must be finite")
        need = 3 if closed else 2
        if v.shape[0] < need:
            raise PbcJonesError(f"curve {id!r}: needs at least {need} vertices")
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.linalg.norm(np.diff(np.concatenate([v, v[:1]]) if closed else v, axis=0),
                                   axis=1)
        if not np.all(np.isfinite(steps)):
            raise PbcJonesError(f"curve {id!r}: segment lengths overflow")
        if np.any(steps[:v.shape[0] - 1] == 0.0):
            raise PbcJonesError(f"curve {id!r}: repeated consecutive vertex")
        if closed and steps[-1] == 0.0:
            raise PbcJonesError(f"curve {id!r}: closed curves must not repeat the first vertex")
        self.id = id
        self.vertices = v
        self.closed = bool(closed)

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
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"direction count must be an integer, got {n!r}")
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
    u, v, xi = projection_frames([xi])[0]
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


def _end_distance(px, py, x0, y0, x1, y1) -> np.ndarray:
    """Elementwise distance in the plane from the points (px, py) to the
    segments (x0, y0)-(x1, y1); a segment of zero length is its start."""
    dx, dy = x1 - x0, y1 - y0
    l2 = dx * dx + dy * dy
    t = np.divide((px - x0) * dx + (py - y0) * dy, l2, out=np.zeros_like(l2), where=l2 > 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    return np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))


def _overlaps(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat index pairs (i, j) of the closed intervals [lo, hi] of one row that overlap.

    ``lo`` and ``hi`` have shape (rows, m); interval k of row r has the
    flat index r * m + k, and an interval with a NaN low end is padding.
    Sort-and-sweep: the ends of each row are sorted together, low ends
    first on ties, so the later partners of an interval are the low ends
    sorted between its own two ends; NaN sorts after every number.  Each
    pair is returned once, in no particular orientation.
    """
    rows, m = lo.shape
    ends = np.argsort(np.concatenate([lo, hi], axis=1), axis=1, kind="stable")
    # the low ends of real intervals, in sorted order
    low = np.take_along_axis(np.concatenate([~np.isnan(lo), np.zeros_like(lo, dtype=bool)],
                                            axis=1), ends, axis=1)
    seen = np.empty_like(ends)
    np.put_along_axis(seen, ends, low.cumsum().reshape(rows, 2 * m), axis=1)
    counts = (seen[:, m:] - seen[:, :m]).ravel()  # low ends sorted within each interval
    i = np.arange(rows * m).repeat(counts)
    # the partners of interval k have the low-end ranks seen[k], seen[k] + 1, ...
    shift = (seen[:, :m].ravel() + counts - counts.cumsum()).repeat(counts)
    partners = (ends + np.arange(0, rows * m, m)[:, None])[low]
    return i, partners[np.arange(i.shape[0]) + shift]


def projection_frames(xis) -> np.ndarray:
    """Right-handed orthonormal frames (u, v, xi), u x v = xi, of k directions.

    The result has shape (k, 3, 3).  u is the coordinate axis least
    aligned with xi, made orthogonal to it.  Only elementwise array
    operations are used, so a direction gets the same frame in any batch.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != 3:
        raise PbcJonesError(f"projection directions must have shape (k, 3), got {xis.shape}")
    norm = np.hypot(np.hypot(xis[:, 0], xis[:, 1]), xis[:, 2])
    usable = np.isfinite(norm) & (norm > 0.0)
    if not usable.all():
        bad = xis[(~usable).nonzero()[0][0]]
        raise PbcJonesError(f"projection direction must be finite and nonzero, got {bad}")
    xi = xis / norm[:, None]
    rows = np.arange(xi.shape[0])
    axis = np.abs(xi).argmin(axis=1)
    u = (np.arange(3) == axis[:, None]) - xi[rows, axis][:, None] * xi
    u /= np.sqrt(u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1] + u[:, 2] * u[:, 2])[:, None]
    # v = xi x u
    xr, ur = xi.take([1, 2, 0, 2, 0, 1], axis=1), u.take([2, 0, 1, 1, 2, 0], axis=1)
    v = xr[:, :3] * ur[:, :3] - xr[:, 3:] * ur[:, 3:]
    return np.concatenate([u, v, xi], axis=1).reshape(-1, 3, 3)


# genericity checks in the order they run; a failed direction carries
# the 1-based index of its first failed check
CHECKS = ("degenerate_segment", "fold_back", "tangency", "crossing_near_vertex",
          "depth_coincidence", "crossing_separation")
DEGENERATE, FOLD_BACK, TANGENCY, NEAR_VERTEX, DEPTH, SEPARATION = range(1, 7)


class _Segments:
    """Segment tables of a curve collection, shared by every row of a block.

    Segment k of the concatenated curves runs from vertex v0[k] to v1[k].
    ``coords`` holds the vertices as given, with shape (3, 1, vertices).
    Open curves that continue each other (periodic images of one thread)
    meet end to end, which is not a crossing: two terminal segments whose
    free ends lie within ``CONTACT_TOL`` on every axis are never tested as
    a pair.
    """

    def __init__(self, curves: Sequence[Curve]):
        if not curves:
            raise PbcJonesError("no curves to project")
        self.curves = curves
        self.coords = np.concatenate([c.vertices for c in curves]).T[:, None].copy()
        closed = np.array([c.closed for c in curves])
        n_vert = np.array([c.vertices.shape[0] for c in curves])
        n_seg = np.where(closed, n_vert, n_vert - 1)
        self.curve = seg_curve = np.arange(len(curves)).repeat(n_seg)
        seg_first = n_seg.cumsum() - n_seg
        self.index = seg_index = np.arange(seg_curve.shape[0]) - seg_first[seg_curve]
        self.count = n_seg[seg_curve]
        self.closed = seg_closed = closed[seg_curve]
        last = seg_index == self.count - 1
        vert_first = n_vert.cumsum() - n_vert
        self.v0 = vert_first[seg_curve] + seg_index
        self.v1 = np.where(last & seg_closed, self.v0 - seg_index, self.v0 + 1)
        # consecutive segment pairs (k, nxt), checked for folding back
        self.k = (~last | seg_closed).nonzero()[0]
        self.nxt = np.where(last[self.k], self.k - seg_index[self.k], self.k + 1)
        self.n = seg_curve.shape[0]
        # the vertices at the free tail and head of each segment, the one free
        # end twice where it has one; only the end segments of open curves have any
        tail = np.where(~seg_closed & (seg_index == 0), self.v0, -1)
        head = np.where(~seg_closed & last, self.v1, -1)
        self.terminal = (tail >= 0) | (head >= 0)
        self.free_end = np.stack([np.where(tail >= 0, tail, head), np.where(head >= 0, head, tail)])
        # the rows of one call share their distinct diagrams by passage key,
        # and the (name, role) passages of each name rank
        self.seen: dict = {}
        self.passages: List[Tuple[Tuple[str, str], Tuple[str, str]]] = []

    def project(self, frames: np.ndarray, coords: np.ndarray, tol: float) -> list:
        """The Diagram or NonGenericDirectionError of each row of a block.

        Row r projects the vertices ``coords[:, r]`` along ``frames[r]``.
        A single frame, or a single coordinate row, serves every row: rows
        are directions or translates.  Coordinate arrays are indexed [axis,
        row, vertex or segment], axis being u, v and the depth along xi.
        """
        n, v0, v1, vc = self.n, self.v0, self.v1, coords
        f = frames.transpose(2, 1, 0)[..., None]
        pos = vc[0] * f[0] + vc[1] * f[1] + vc[2] * f[2]
        p0, p1 = pos.take(v0, axis=2), pos.take(v1, axis=2)
        delta = p1[:2] - p0[:2]
        lens = np.sqrt(delta[0] * delta[0] + delta[1] * delta[1])

        # consecutive segments folding straight back overlap in projection
        dk, dn = delta.take(self.k, axis=2), delta.take(self.nxt, axis=2)
        crossz = dk[0] * dn[1] - dk[1] * dn[0]
        lk, ln = lens.take(self.k, axis=1), lens.take(self.nxt, axis=1)
        folds = (np.abs(crossz) <= tol * (lk * ln)) & (dk[0] * dn[0] + dk[1] * dn[1] < 0)
        fail = np.where((lens <= tol).any(axis=1), DEGENERATE, folds.any(axis=1) * FOLD_BACK)

        # one row per direction still generic; from here arrays are flat
        # over (row, segment), index r * n + k being segment k of row r
        live = (fail == 0).nonzero()[0]
        if live.shape[0] < fail.shape[0]:
            pos, p0, p1, delta = (w.take(live, axis=1) for w in (pos, p0, p1, delta))
            lens = lens.take(live, axis=0)
        rows = live.shape[0]
        own = live if coords.shape[1] > 1 else np.zeros_like(live)  # coordinate row of each row
        a, b = self._candidate_pairs((np.minimum(p0[:2], p1[:2]) - tol).reshape(2, -1),
                                     (np.maximum(p0[:2], p1[:2]) + tol).reshape(2, -1),
                                     own, coords)
        x0, y0, z0 = p0.reshape(3, -1)
        dx, dy = delta.reshape(2, -1)
        lens, z1 = lens.ravel(), p1[2].ravel()

        dxa, dya, dxb, dyb = dx[a], dy[a], dx[b], dy[b]
        denom = dxa * dyb - dya * dxb
        parallel = np.abs(denom) <= tol * (lens[a] * lens[b])
        q = (~parallel).nonzero()[0]
        qa, qb, dxa, dya, dxb, dyb, denom = (w[q] for w in (a, b, dxa, dya, dxb, dyb, denom))
        wx, wy = x0[qb] - x0[qa], y0[qb] - y0[qa]
        s = (wx * dyb - wy * dxb) / denom
        t = (wx * dya - wy * dxa) / denom
        fa, fb = tol / lens[qa], tol / lens[qb]
        inside = (0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0)
        near = (-fa <= s) & (s <= 1.0 + fa) & (-fb <= t) & (t <= 1.0 + fb)
        za = z0[qa] * (1.0 - s) + z1[qa] * s
        zb = z0[qb] * (1.0 - t) + z1[qb] * t
        failed = (near & (~inside | (np.abs(za - zb) <= tol))).nonzero()[0]

        # the first failing pair of a row in pair order names its error,
        # unless a parallel pair before it is tangent
        code = np.zeros(rows, dtype=np.int64)
        par = parallel.nonzero()[0]
        if failed.shape[0]:
            bad_rows, first = np.unique(qa[failed] // n, return_index=True)
            failed = failed[first]
            code[bad_rows] = np.where(inside[failed], DEPTH, NEAR_VERTEX)
            stop = np.full(rows, a.shape[0])
            stop[bad_rows] = q[failed]
            par = par[par < stop[a[par] // n]]
        if par.shape[0]:
            # a parallel pair is tangent when an end of one segment lies
            # within tol of the other; rows 0-3 are the ends a0, a1, b0, b1
            i, j = a[par], b[par]
            ex = np.stack([x0[i], x0[i] + dx[i], x0[j], x0[j] + dx[j]])
            ey = np.stack([y0[i], y0[i] + dy[i], y0[j], y0[j] + dy[j]])
            start, end = [2, 2, 0, 0], [3, 3, 1, 1]  # the other segment of each end
            dist = _end_distance(ex, ey, ex[start], ey[start], ex[end], ey[end])
            code[i[dist.min(axis=0) <= tol] // n] = TANGENCY

        keep = near & (code[qa // n] == 0)
        qa, qb, s, t, za, zb, denom = (w[keep] for w in (qa, qb, s, t, za, zb, denom))
        cross_row = qa // n
        if qa.shape[0]:
            self._separation(code, cross_row, x0[qa] + s * dx[qa], y0[qa] + s * dy[qa],
                             pos, tol)
            keep = code[cross_row] == 0
            qa, qb, s, t, za, zb, denom, cross_row = (
                w[keep] for w in (qa, qb, s, t, za, zb, denom, cross_row))
        fail[live] = code
        return self._diagrams(fail, live, qa, qb, s, t, za > zb, denom, cross_row)

    def _candidate_pairs(self, lo: np.ndarray, hi: np.ndarray, own: np.ndarray,
                         coords: np.ndarray):
        """Segment pairs (a < b) of each row whose padded boxes [lo, hi] overlap.

        Boxes are (x, y) by flat index; pairs come in (row, a, b) order.
        Neighbors on one curve are dropped, and so are terminal segments
        of open curves with a free end of each within ``CONTACT_TOL`` on
        every axis of the row's own coordinates ``coords[:, own[row]]``.
        Segments that cross or come within tol of each other always have
        overlapping tol-padded boxes.
        """
        n = self.n
        i, j = _overlaps(lo[0].reshape(-1, n), hi[0].reshape(-1, n))
        lo_y, hi_y = lo[1], hi[1]
        keep = (lo_y[j] <= hi_y[i]) & (lo_y[i] <= hi_y[j])
        i, j = i[keep], j[keep]
        a, b = np.minimum(i, j), np.maximum(i, j)
        sa, sb = a % n, b % n
        d = np.abs(self.index[sa] - self.index[sb])
        # neighbors share a vertex, not a crossing
        keep = ~((self.curve[sa] == self.curve[sb])
                 & ((d <= 1) | (self.closed[sa] & (d == self.count[sa] - 1))))
        ends = self.terminal[sa].nonzero()[0]
        ends = ends[self.terminal[sb[ends]]]
        if ends.shape[0]:
            # curves meeting end to end touch, not cross
            r = own[a[ends] // n]
            pa = coords[:, r, self.free_end[:, sa[ends]]]  # [axis, end, pair]
            pb = coords[:, r, self.free_end[:, sb[ends]]]
            gap = np.abs(pa[:, :, None] - pb[:, None]).max(axis=0)
            keep[ends[(gap <= CONTACT_TOL).any(axis=(0, 1))]] = False
        a, b = a[keep], b[keep]
        order = np.lexsort([b, a])
        return a[order], b[order]

    @staticmethod
    def _separation(code, cross_row, px, py, pos, tol) -> None:
        """Mark rows with crossings closer than tol to each other or to a vertex.

        Crossings, grouped by row, and the vertices of every row are swept
        on x with a 2 tol window.  Each row holds its crossings padded with
        NaN to the widest row's count, then its vertices.
        """
        rows = code.shape[0]
        bounds = cross_row.searchsorted(np.arange(rows + 1))
        width = int(np.diff(bounds).max())
        cross = np.full((2, rows, width), np.nan)
        cross[:, cross_row, np.arange(px.shape[0]) - bounds[cross_row]] = px, py
        x, y = np.concatenate([cross, pos[:2]], axis=2)
        m = x.shape[1]
        i, j = _overlaps(x - tol, x + tol)
        x, y = x.ravel(), y.ravel()
        dx, dy = x[i] - x[j], y[i] - y[j]
        close = np.sqrt(dx * dx + dy * dy) <= tol
        ci, cj = i % m < width, j % m < width
        code[i[close & (ci != cj)] // m] = NEAR_VERTEX
        code[i[close & ci & cj] // m] = SEPARATION

    def _diagrams(self, fail, live, a, b, s, t, a_over, denom, cross_row) -> list:
        """Outcome of each direction of a block from its surviving crossings.

        Crossings are pairs (a, b) in pair order, grouped by row.  Each is
        passed once over and once under and ``project_many`` checked the
        curve ids, so the diagrams skip ``Diagram`` validation.  A row's key
        is its passages in order, one int each of (name rank, curve, role,
        crossing sign); a row whose key an earlier row of the call had gets
        that row's Diagram.
        """
        out = [NonGenericDirectionError(CHECKS[f - 1]) if f else None for f in fail.tolist()]
        n_cross = a.shape[0]
        bounds = cross_row.searchsorted(np.arange(live.shape[0] + 1))
        codes = np.zeros(0, dtype=np.int64)
        ranks = curve = over = signs = []
        if n_cross:
            # names follow the sorted (curve, segment, parameter) slots of each crossing
            rank = np.empty(n_cross, dtype=np.int64)
            rank[np.lexsort([t, b, s, a])] = np.arange(n_cross)
            start = bounds[cross_row]
            rank -= start
            # cross(over, under) is denom when a is over and -denom otherwise
            plus = a_over == (denom > 0)
            named = np.empty(n_cross, dtype=np.int64)  # each row's signs in name order
            named[start + rank] = np.where(plus, 1, -1)
            # the passages of each row in order, by crossing
            seg = np.concatenate([a, b])
            order = np.lexsort([np.concatenate([s, t]), seg])
            e = order % n_cross
            ranks, over = rank[e], np.concatenate([a_over, ~a_over])[order]
            curve = self.curve[seg[order] % self.n]
            codes = ((ranks * len(self.curves) + curve) * 2 + over) * 2 + plus[e]
            ranks, curve, over = ranks.tolist(), curve.tolist(), over.tolist()
            signs = named.tolist()
            for r in range(len(self.passages), int(np.diff(bounds).max())):
                name = f"c{r}"
                self.passages.append(((name, "u"), (name, "o")))
        bounds = bounds.tolist()
        for r, pos in enumerate(live.tolist()):
            if out[pos] is not None:
                continue
            lo, hi = bounds[r], bounds[r + 1]
            key = codes[2 * lo:2 * hi].tobytes()
            diagram = self.seen.get(key)
            if diagram is None:
                passages: List[List[Tuple[str, str]]] = [[] for _ in self.curves]
                for k, ci, o in zip(ranks[2 * lo:2 * hi], curve[2 * lo:2 * hi],
                                    over[2 * lo:2 * hi]):
                    passages[ci].append(self.passages[k][o])
                comps = [Component(c.id, c.closed, tuple(p))
                         for c, p in zip(self.curves, passages)]
                crossings = {self.passages[k][0][0]: sign
                             for k, sign in enumerate(signs[lo:hi])}
                diagram = self.seen[key] = Diagram.trusted(comps, crossings)
            out[pos] = diagram
        return out


def project_many(curves: Sequence[Curve], xis, tol: float = 1e-9
                 ) -> Iterator[Union[Diagram, NonGenericDirectionError]]:
    """Project curves along each direction of xis, in blocks of BLOCK_ROWS segment rows.

    Yields, per direction, its Diagram or the NonGenericDirectionError
    naming its first failed check, exactly as ``project`` gives it.
    """
    require_nonnegative("tolerance", tol)
    check_unique_ids(curves)
    frames = projection_frames(xis)
    segments = _Segments(curves)
    step = max(1, BLOCK_ROWS // segments.n)
    return (out for lo in range(0, frames.shape[0], step)
            for out in segments.project(frames[lo:lo + step], segments.coords, tol))


def project_translates(fixed: Sequence[Curve], moving: Sequence[Curve], offsets, xi,
                       tol: float = 1e-9) -> Iterator[Union[Diagram, NonGenericDirectionError]]:
    """Project fixed + moving along xi once per offset, the moving curves shifted by it.

    Yields, per row of the (k, 3) array ``offsets``, the Diagram or the
    NonGenericDirectionError that ``project(fixed + [c.translated(offset)
    for c in moving], xi, tol)`` gives.  The offsets go through in blocks of
    at most ``BLOCK_ROWS`` (offset, segment) rows, as the directions of
    ``project_many`` do; each row finds its own end-to-end contacts.
    """
    require_nonnegative("tolerance", tol)
    curves = list(fixed) + list(moving)
    check_unique_ids(curves)
    frames = projection_frames([xi])
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim != 2 or offsets.shape[1] != 3 or not np.all(np.isfinite(offsets)):
        raise PbcJonesError(f"offsets must be finite with shape (k, 3), got {offsets.shape}")
    segments = _Segments(curves)
    moved = sum(c.vertices.shape[0] for c in fixed)  # first vertex of the moving curves
    step = max(1, BLOCK_ROWS // segments.n)

    def block(shift: np.ndarray) -> list:
        coords = segments.coords.repeat(shift.shape[0], axis=1)
        coords[:, :, moved:] += shift.T[:, :, None]
        return segments.project(frames, coords, tol)

    return (out for lo in range(0, offsets.shape[0], step)
            for out in block(offsets[lo:lo + step]))


def project(curves: Sequence[Curve], xi, tol: float = 1e-9) -> Diagram:
    """Project curves along xi and read off the crossing diagram.

    Larger depth along xi means nearer the viewer, i.e. the over strand.
    """
    out = next(project_many(curves, [xi], tol))
    if isinstance(out, NonGenericDirectionError):
        raise out
    return out


def is_generic(curves: Sequence[Curve], xi, tol: float = 1e-9) -> bool:
    try:
        project(curves, xi, tol)
    except NonGenericDirectionError:
        return False
    return True
