"""Projection of polygonal space curves to crossing diagrams.

A projection direction is generic when every projected segment has
positive length, all intersections are transversal, away from vertices,
separated from each other, and with distinct depths.  Any violation
raises NonGenericDirectionError naming the failed check; callers retry
with a deterministically perturbed direction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagram import Component, Diagram
from .errors import NonGenericDirectionError, PbcJonesError

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

    def segment_ends(self) -> Tuple[np.ndarray, np.ndarray]:
        v = self.vertices
        if self.closed:
            return v, np.roll(v, -1, axis=0)
        return v[:-1], v[1:]

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
    if norm == 0.0:
        raise ValueError("zero projection direction")
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


class _Crossing:
    __slots__ = ("point", "depth_lo", "depth_hi", "over_slot", "under_slot", "sign")

    def __init__(self, point, depth_lo, depth_hi, over_slot, under_slot, sign):
        self.point = point
        self.depth_lo = depth_lo
        self.depth_hi = depth_hi
        self.over_slot = over_slot  # (curve index, segment index, parameter)
        self.under_slot = under_slot
        self.sign = sign


def _touching_terminal_pairs(curves: Sequence[Curve]) -> set:
    """Terminal segment pairs of open curves whose endpoints coincide in 3D.

    Components that continue each other (periodic images of one thread)
    meet end to end; the contact is structural, not a crossing, so those
    segment pairs are exempt from intersection checks.
    """
    by_pos: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}
    for ci, c in enumerate(curves):
        if c.closed:
            continue
        m = c.segment_count
        for vi, si in ((0, 0), (-1, m - 1)):
            key = tuple(np.round(c.vertices[vi] / 1e-6).astype(np.int64))
            by_pos.setdefault(key, []).append((ci, si))
    excluded = set()
    for slots in by_pos.values():
        for i in range(len(slots) - 1):
            for j in range(i + 1, len(slots)):
                a, b = slots[i], slots[j]
                excluded.add((a, b) if a <= b else (b, a))
    return excluded


def _candidate_pairs(starts, ends, seg_curve, seg_index, curves, tol, excluded):
    """Uniform-grid bucketing of projected segments; returns index pairs."""
    lens = np.linalg.norm(ends - starts, axis=1)
    cell = float(np.median(lens))
    cell = max(cell, 10.0 * tol, 1e-12)
    lo = np.minimum(starts, ends) - tol
    hi = np.maximum(starts, ends) + tol
    ilo = np.floor(lo / cell).astype(int)
    ihi = np.floor(hi / cell).astype(int)
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for k in range(starts.shape[0]):
        for ix in range(ilo[k, 0], ihi[k, 0] + 1):
            for iy in range(ilo[k, 1], ihi[k, 1] + 1):
                buckets.setdefault((ix, iy), []).append(k)
    pairs = set()
    for members in buckets.values():
        if len(members) < 2:
            continue
        for ai in range(len(members) - 1):
            for bi in range(ai + 1, len(members)):
                a, b = members[ai], members[bi]
                if a > b:
                    a, b = b, a
                sa = (int(seg_curve[a]), int(seg_index[a]))
                sb = (int(seg_curve[b]), int(seg_index[b]))
                if sa[0] == sb[0]:
                    ca = curves[sa[0]]
                    m = ca.segment_count
                    d = abs(sa[1] - sb[1])
                    if d == 0 or d == 1 or (ca.closed and d == m - 1):
                        continue  # neighbors share a vertex, not a crossing
                key = (sa, sb) if sa <= sb else (sb, sa)
                if key in excluded:
                    continue  # curves meeting end to end touch, not cross
                pairs.add((a, b))
    return sorted(pairs)


def project(curves: Sequence[Curve], xi, tol: float = 1e-9) -> Diagram:
    """Project curves along xi and read off the crossing diagram.

    Larger depth along xi means nearer the viewer, i.e. the over strand.
    """
    check_unique_ids(curves)
    u, v, xi = projection_frame(xi)

    flat: List[np.ndarray] = []
    depth: List[np.ndarray] = []
    for c in curves:
        flat.append(c.vertices @ np.column_stack([u, v]))
        depth.append(c.vertices @ xi)

    starts_l, ends_l, dlo_l, dhi_l, seg_curve, seg_index = [], [], [], [], [], []
    for ci, c in enumerate(curves):
        p = flat[ci]
        dd = depth[ci]
        if c.closed:
            s0, s1 = p, np.roll(p, -1, axis=0)
            d0, d1 = dd, np.roll(dd, -1)
        else:
            s0, s1 = p[:-1], p[1:]
            d0, d1 = dd[:-1], dd[1:]
        starts_l.append(s0)
        ends_l.append(s1)
        dlo_l.append(d0)
        dhi_l.append(d1)
        seg_curve.extend([ci] * s0.shape[0])
        seg_index.extend(range(s0.shape[0]))
    starts = np.concatenate(starts_l)
    ends = np.concatenate(ends_l)
    d0 = np.concatenate(dlo_l)
    d1 = np.concatenate(dhi_l)
    seg_curve = np.asarray(seg_curve)
    seg_index = np.asarray(seg_index)

    deltas = ends - starts
    lens = np.linalg.norm(deltas, axis=1)
    if np.any(lens <= tol):
        raise NonGenericDirectionError("degenerate_segment")

    # consecutive segments folding straight back overlap in projection
    for ci, c in enumerate(curves):
        p = flat[ci]
        if c.closed:
            d = np.roll(p, -1, axis=0) - p
            nxt = np.roll(d, -1, axis=0)
        else:
            d = p[1:] - p[:-1]
            nxt = d[1:]
            d = d[:-1]
        if d.shape[0]:
            crossz = d[:, 0] * nxt[:, 1] - d[:, 1] * nxt[:, 0]
            dots = np.einsum("ij,ij->i", d, nxt)
            norms = np.linalg.norm(d, axis=1) * np.linalg.norm(nxt, axis=1)
            bad = (np.abs(crossz) <= tol * norms) & (dots < 0)
            if np.any(bad):
                raise NonGenericDirectionError("fold_back")

    crossings: List[_Crossing] = []
    touching = _touching_terminal_pairs(curves)
    for a, b in _candidate_pairs(starts, ends, seg_curve, seg_index, curves, tol,
                                 touching):
        pa, da = starts[a], deltas[a]
        pb, db = starts[b], deltas[b]
        denom = da[0] * db[1] - da[1] * db[0]
        scale = lens[a] * lens[b]
        if abs(denom) <= tol * scale:
            # parallel; reject only if the segments come within tol
            if _segments_too_close(pa.tolist(), (pa + da).tolist(),
                                   pb.tolist(), (pb + db).tolist(), tol):
                raise NonGenericDirectionError("tangency")
            continue
        w = pb - pa
        s = (w[0] * db[1] - w[1] * db[0]) / denom
        t = (w[0] * da[1] - w[1] * da[0]) / denom
        fa, fb = tol / lens[a], tol / lens[b]
        inside = 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0
        near = -fa <= s <= 1.0 + fa and -fb <= t <= 1.0 + fb
        if not near:
            continue
        if not inside:
            raise NonGenericDirectionError("crossing_near_vertex")
        point = pa + s * da
        za = d0[a] * (1.0 - s) + d1[a] * s
        zb = d0[b] * (1.0 - t) + d1[b] * t
        if abs(za - zb) <= tol:
            raise NonGenericDirectionError("depth_coincidence")
        slot_a = (int(seg_curve[a]), int(seg_index[a]), float(s))
        slot_b = (int(seg_curve[b]), int(seg_index[b]), float(t))
        if za > zb:
            over_slot, under_slot, d_over, d_under = slot_a, slot_b, da, db
        else:
            over_slot, under_slot, d_over, d_under = slot_b, slot_a, db, da
        cross_od = d_over[0] * d_under[1] - d_over[1] * d_under[0]
        sign = 1 if cross_od > 0 else -1
        crossings.append(_Crossing(point, min(za, zb), max(za, zb),
                                   over_slot, under_slot, sign))

    pts = np.array([c.point for c in crossings]) if crossings else np.zeros((0, 2))
    if len(crossings) > 1:
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= tol:
            raise NonGenericDirectionError("crossing_separation")
    if crossings:
        all_vertices = np.concatenate(flat)
        dv = np.linalg.norm(pts[:, None, :] - all_vertices[None, :, :], axis=2)
        if dv.min() <= tol:
            raise NonGenericDirectionError("crossing_near_vertex")

    order = sorted(
        range(len(crossings)),
        key=lambda i: tuple(sorted([crossings[i].over_slot, crossings[i].under_slot])),
    )
    names = {}
    for rank, i in enumerate(order):
        names[i] = f"c{rank}"

    per_slot: Dict[Tuple[int, int], List[Tuple[float, str, str]]] = {}
    for i, cr in enumerate(crossings):
        ci, si, s = cr.over_slot
        per_slot.setdefault((ci, si), []).append((s, names[i], "o"))
        ci, si, t = cr.under_slot
        per_slot.setdefault((ci, si), []).append((t, names[i], "u"))

    comps = []
    for ci, c in enumerate(curves):
        passages: List[Tuple[str, str]] = []
        for si in range(c.segment_count):
            hits = per_slot.get((ci, si))
            if hits:
                for _, name, role in sorted(hits):
                    passages.append((name, role))
        comps.append(Component(c.id, c.closed, tuple(passages)))
    signs = {names[i]: crossings[i].sign for i in range(len(crossings))}
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
