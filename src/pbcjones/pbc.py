"""Periodic systems: cells, generating chains, unfoldings, periodic links.

Geometry lives in Cartesian coordinates; every membership or clipping
decision happens in fractional coordinates, where the cell is the unit
cube and lattice translates are integer vectors.  A chain is given as
arcs inside one cell; its physical component is the union of all lattice
translates of those arcs.  Unfolding walks arc translates end to end to
recover one connected image per chain.

Presence in a box is by positive clipped length: grazing a box at
isolated points does not count.  Cells are closed boxes, so a segment
lying in a shared face counts in both cells.  One array clip,
``box_presence``, decides every presence: the cells of an unfolding box
and the image translates of a periodic link.

Every arc vertex must lie within ``ARC_REACH`` cells of the cell, in
fractional coordinates on every axis.  The unfolding box and the
translate search both grow with the cells an arc spans, so an unbounded
coordinate such as 1e300 would otherwise make about as many candidate
cells; ``PBCSystem`` rejects it instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (AmbiguousMatchError, ChainConnectivityError, NonGenericDirectionError,
                     PbcJonesError, require_count, require_nonnegative)
from .geometry import BLOCK_ROWS, Curve, project_translates
from .jones3d import JonesResult, SamplingConfig, jones, project_generic
from .laurent import DivisionResult, LaurentPoly, divide_by_d_power

MATCH_TOL = 1e-6  # fractional distance, per axis, within which arc ends join (_lattice_match)
PRESENCE_TOL = 1e-9  # fractional length below which box presence is ignored
ARC_REACH = 4  # cells an arc vertex may lie beyond the cell, per axis

Vec3 = Tuple[int, int, int]


class Cell:
    """Parallelepiped cell with per-axis periodic flags."""

    __slots__ = ("basis", "periodic", "origin", "_inv")

    def __init__(self, basis, periodic: Sequence[bool], origin=(0.0, 0.0, 0.0)):
        try:
            b = np.asarray(basis, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise PbcJonesError("cell basis must be a 3x3 matrix of numbers") from None
        if b.shape != (3, 3):
            raise PbcJonesError("cell basis must be a 3x3 matrix (rows are cell vectors)")
        if not np.all(np.isfinite(b)):
            raise PbcJonesError("cell basis must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(b)
        if not np.isfinite(det):
            raise PbcJonesError("cell basis is too large: its volume overflows")
        if abs(det) < 1e-12:
            raise PbcJonesError("cell basis is singular")
        if len(periodic) != 3:
            raise PbcJonesError("periodic flags must have length 3")
        self.basis = b
        self.periodic = tuple(bool(p) for p in periodic)
        try:
            self.origin = np.asarray(origin, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise PbcJonesError("cell origin must be 3 finite coordinates") from None
        if self.origin.shape != (3,) or not np.all(np.isfinite(self.origin)):
            raise PbcJonesError("cell origin must be 3 finite coordinates")
        self._inv = np.linalg.inv(b)

    def to_fractional(self, points) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.origin) @ self._inv

    def from_fractional(self, frac) -> np.ndarray:
        return np.asarray(frac, dtype=float) @ self.basis + self.origin

    def translation(self, v) -> np.ndarray:
        return np.asarray(v, dtype=float) @ self.basis


TOPOLOGIES = ("closed", "open", "infinite")


class GeneratingChain:
    """One chain, given as arcs inside the cell.

    ``basepoint`` is an (arc index, vertex index) pair; the arc it names
    anchors the unfolded image at its as-given placement.  Arc
    orientations must already be consistent: the walk matches the first
    vertex of a candidate arc translate against the current end, never
    reversing an arc.
    """

    __slots__ = ("id", "arcs", "topology", "basepoint")

    def __init__(self, id: str, arcs, topology: str,
                 basepoint: Tuple[int, int] = (0, 0)):
        if topology not in TOPOLOGIES:
            raise PbcJonesError(f"chain {id!r}: unknown topology {topology!r}")
        arrs = []
        for k, a in enumerate(arcs):
            a = np.asarray(a, dtype=float)
            if a.ndim != 2 or a.shape[1] != 3 or a.shape[0] < 2:
                raise PbcJonesError(f"chain {id!r}: arc {k} must have shape (n>=2, 3)")
            if not np.all(np.isfinite(a)):
                raise PbcJonesError(f"chain {id!r}: arc {k} must be finite")
            arrs.append(a)
        if not arrs:
            raise PbcJonesError(f"chain {id!r}: needs at least one arc")
        if not (len(basepoint) == 2 and all(isinstance(i, (int, np.integer))
                                            and not isinstance(i, bool) for i in basepoint)):
            raise PbcJonesError(f"chain {id!r}: basepoint must be two integers [arc, vertex]")
        ai, vi = (int(basepoint[0]), int(basepoint[1]))
        if not 0 <= ai < len(arrs):
            raise PbcJonesError(f"chain {id!r}: basepoint arc out of range")
        if not 0 <= vi < len(arrs[ai]):
            raise PbcJonesError(f"chain {id!r}: basepoint vertex out of range")
        self.id = id
        self.arcs = tuple(arrs)
        self.topology = topology
        self.basepoint = (ai, vi)

    @property
    def basepoint_arc(self) -> int:
        return self.basepoint[0]


class PBCSystem:
    __slots__ = ("cell", "chains")

    def __init__(self, cell: Cell, chains: Sequence[GeneratingChain]):
        ids = [c.id for c in chains]
        if len(set(ids)) != len(ids):
            raise PbcJonesError("chain ids must be unique")
        for chain in chains:
            for k, arc in enumerate(chain.arcs):
                # coordinates far outside the cell may overflow to inf or nan,
                # which fails the reach test below
                with np.errstate(over="ignore", invalid="ignore"):
                    frac = cell.to_fractional(arc)
                if not np.all((frac >= -ARC_REACH) & (frac <= 1 + ARC_REACH)):
                    raise PbcJonesError(f"chain {chain.id!r}: arc {k} reaches more than "
                                        f"{ARC_REACH} cells beyond the cell")
        self.cell = cell
        self.chains = tuple(chains)

    def chain(self, chain_id: str) -> GeneratingChain:
        for c in self.chains:
            if c.id == chain_id:
                return c
        raise PbcJonesError(f"no chain {chain_id!r} in the system")


# -- unfolding ----------------------------------------------------------


@dataclass(frozen=True)
class PlacedImage:
    """One connected unfolded copy of a chain, each arc placed once, moved
    by a lattice translate."""

    chain_id: str
    translate: Vec3
    closed: bool
    polyline: np.ndarray

    @property
    def curve_id(self) -> str:
        v = self.translate
        return f"{self.chain_id}@{v[0]},{v[1]},{v[2]}"

    def shifted(self, cell: Cell, shift: Sequence[int]) -> "PlacedImage":
        """The same image moved by a further lattice translate."""
        v = tuple(a + b for a, b in zip(self.translate, shift))
        return PlacedImage(self.chain_id, v, self.closed, self.polyline + cell.translation(shift))


def _lattice_match(cell: Cell, target_frac, point_frac) -> Optional[Vec3]:
    """Translate v with point + v == target within tolerance, None if none.

    Non-periodic axes admit only v = 0.
    """
    diff = target_frac - point_frac
    v = np.where(cell.periodic, np.rint(diff), 0.0)
    if np.max(np.abs(diff - v)) <= MATCH_TOL:
        return (int(v[0]), int(v[1]), int(v[2]))
    return None


def unfold_image(system: PBCSystem, chain: GeneratingChain) -> PlacedImage:
    """The chain's image at translate (0, 0, 0), its basepoint arc as given."""
    cell = system.cell
    frac_arcs = [cell.to_fractional(a) for a in chain.arcs]
    n = len(chain.arcs)
    used = [False] * n

    def take(point, end: int, where: str) -> Optional[Tuple[int, Vec3]]:
        """The unused arc translate whose vertex ``end`` (0 or -1) meets point."""
        found = []
        for j in range(n):
            if not used[j]:
                v = _lattice_match(cell, point, frac_arcs[j][end])
                if v is not None:
                    found.append((j, v))
        if len(found) > 1:
            raise AmbiguousMatchError(
                f"chain {chain.id!r}: {len(found)} arc translates continue the {where}"
            )
        if found:
            used[found[0][0]] = True
            return found[0]
        return None

    base = chain.basepoint_arc
    used[base] = True
    placements: List[Tuple[int, Vec3]] = [(base, (0, 0, 0))]
    head = frac_arcs[base][-1].copy()
    tail = frac_arcs[base][0].copy()

    # forward walk from the head
    while True:
        if (chain.topology == "closed"
                and _lattice_match(cell, head, frac_arcs[base][0]) == (0, 0, 0)):
            break
        found = take(head, 0, "head")
        if found is None:
            break
        j, v = found
        placements.append(found)
        head = frac_arcs[j][-1] + np.asarray(v, dtype=float)

    if chain.topology == "open":
        while True:
            found = take(tail, -1, "tail")
            if found is None:
                break
            j, v = found
            placements.insert(0, found)
            tail = frac_arcs[j][0] + np.asarray(v, dtype=float)

    if not all(used):
        raise ChainConnectivityError(
            f"chain {chain.id!r}: {used.count(False)} arc(s) not reachable from the basepoint"
        )

    advance = _lattice_match(cell, head, frac_arcs[base][0])
    if chain.topology == "closed" and advance != (0, 0, 0):
        raise ChainConnectivityError(
            f"chain {chain.id!r}: closed chain does not return to its start"
        )
    if chain.topology == "infinite" and advance in (None, (0, 0, 0)):
        raise ChainConnectivityError(
            f"chain {chain.id!r}: infinite chain must advance by a nonzero translate"
        )

    # the walk matched each arc's first vertex to the vertex before it, and
    # a closed chain's last vertex to its first: keep one of each pair
    poly = np.concatenate([chain.arcs[j][k > 0:] + cell.translation(v)
                           for k, (j, v) in enumerate(placements)])
    closed = chain.topology == "closed"
    return PlacedImage(chain.id, (0, 0, 0), closed, poly[:-1] if closed else poly)


# -- box presence of a polyline ------------------------------------------


def _box_intervals(a: np.ndarray, b: np.ndarray, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """Liang-Barsky parameter intervals (t0, t1) of the segments a -> b inside box [lo, hi].

    a and b have shape (..., 3).  An axis along which a segment moves less
    than 1e-15 clips it by its start alone; a segment that misses the box
    gets the empty interval (1, 0).
    """
    d = b - a
    flat = np.abs(d) < 1e-15
    step = np.where(flat, 1.0, d)
    ta, tb = (lo - a) / step, (hi - a) / step
    t0 = np.where(flat, 0.0, np.minimum(ta, tb)).max(axis=-1, initial=0.0)
    t1 = np.where(flat, 1.0, np.maximum(ta, tb)).min(axis=-1, initial=1.0)
    miss = (flat & ((a < lo) | (a > hi))).any(axis=-1) | (t0 >= t1)
    return np.where(miss, 1.0, t0), np.where(miss, 0.0, t1)


def box_presence(frac_poly: np.ndarray, closed: bool, lo, hi) -> np.ndarray:
    """Fractional length of the polyline inside the closed box [lo, hi].

    ``frac_poly`` has shape (..., vertices, 3): a stack of polylines with
    one vertex layout gives one length per polyline.  ``lo`` and ``hi``
    broadcast against it, so boxes of shape (k, 1, 3) measure one
    polyline in k boxes.
    """
    m = frac_poly.shape[-2]
    start = np.arange(m if closed else m - 1)
    a, b = frac_poly[..., start, :], frac_poly[..., (start + 1) % m, :]
    t0, t1 = _box_intervals(a, b, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return (np.linalg.norm(b - a, axis=-1) * np.maximum(t1 - t0, 0.0)).sum(axis=-1)


def present_translates(cell: Cell, frac_poly: np.ndarray, closed: bool,
                       box: UnfoldingBox) -> List[Vec3]:
    """Lattice translates that give the polyline positive presence in the box.

    Candidates come from ``_translate_range`` and keep its order.
    """
    lo, hi = box.lo, box.hi
    return _present(_translate_range(cell, frac_poly, lo, hi), frac_poly.shape[0],
                    lambda v: box_presence(frac_poly + v, closed, lo, hi))


def _present(candidates: List[Vec3], vertices: int, presence) -> List[Vec3]:
    """The candidates with more than ``PRESENCE_TOL`` presence, in their order.

    ``presence`` maps a block of candidates, a float array of shape
    (k, 1, 3), to their k lengths.  Blocks hold at most ``BLOCK_ROWS``
    (candidate, vertex) rows and take one array pass each.
    """
    step = max(1, BLOCK_ROWS // vertices)
    out: List[Vec3] = []
    for first in range(0, len(candidates), step):
        block = candidates[first:first + step]
        lengths = presence(np.asarray(block, dtype=float)[:, None]).tolist()
        out += [v for v, p in zip(block, lengths) if p > PRESENCE_TOL]
    return out


# -- minimal unfoldings -------------------------------------------------


@dataclass(frozen=True)
class UnfoldingBox:
    """Box of whole lattice cells: the lowest cell and the extent per axis."""

    anchor: Vec3
    dims: Vec3

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.anchor, dtype=float)

    @property
    def hi(self) -> np.ndarray:
        return np.asarray(self.anchor, dtype=float) + np.asarray(self.dims, dtype=float)

    @property
    def cell_count(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def copy_period(self, axis: int) -> int:
        """Cells between link copies along axis: 2*dims - 1, the smallest
        translate whose image set is disjoint from the original."""
        return 2 * self.dims[axis] - 1


def minimal_unfolding(system: PBCSystem, image: PlacedImage) -> UnfoldingBox:
    """Box of the unit cells in which the image has positive length.

    Cells ceil(min) - 1 to floor(max) of the image, per axis, are tried,
    so a segment in a face at an integer min or max reaches both cells.
    """
    frac = system.cell.to_fractional(image.polyline)
    ranges = (range(math.ceil(lo) - 1, math.floor(hi) + 1)
              for lo, hi in zip(frac.min(axis=0).tolist(), frac.max(axis=0).tolist()))
    cells = _present(list(product(*ranges)), frac.shape[0],
                     lambda c: box_presence(frac, image.closed, c, c + 1.0))
    if not cells:
        raise PbcJonesError(f"image of chain {image.chain_id!r} has no cell presence")
    arr = np.asarray(cells)
    anchor = tuple(int(x) for x in arr.min(axis=0))
    dims = tuple(int(x) for x in (arr.max(axis=0) - arr.min(axis=0) + 1))
    return UnfoldingBox(anchor, dims)


def minimal_collective_unfolding(system: PBCSystem
                                 ) -> Tuple[Dict[str, PlacedImage], UnfoldingBox]:
    """Per-chain images plus the collective box: the lowest anchor and the
    largest extent of the chains' boxes, per axis."""
    images: Dict[str, PlacedImage] = {}
    boxes: List[UnfoldingBox] = []
    for chain in system.chains:
        img = images[chain.id] = unfold_image(system, chain)
        boxes.append(minimal_unfolding(system, img))
    anchor = tuple(min(b.anchor[ax] for b in boxes) for ax in range(3))
    dims = tuple(max(b.dims[ax] for b in boxes) for ax in range(3))
    return images, UnfoldingBox(anchor, dims)


# -- minimal periodic link ----------------------------------------------


@dataclass(frozen=True)
class MinimalPeriodicLink:
    images: Tuple[PlacedImage, ...]
    mcu: UnfoldingBox
    base_images: Mapping[str, PlacedImage]

    @property
    def component_count(self) -> int:
        return len(self.images)

    @property
    def composition(self) -> Dict[str, List[Vec3]]:
        out: Dict[str, List[Vec3]] = {}
        for im in self.images:
            out.setdefault(im.chain_id, []).append(im.translate)
        return out


def _translate_range(cell: Cell, frac_poly: np.ndarray, lo, hi) -> List[Vec3]:
    """Lattice translates that could put the polyline inside [lo, hi]."""
    bmin = frac_poly.min(axis=0)
    bmax = frac_poly.max(axis=0)
    ranges = []
    for ax in range(3):
        if cell.periodic[ax]:
            a = int(math.floor(lo[ax] - bmax[ax])) - 1
            b = int(math.ceil(hi[ax] - bmin[ax])) + 1
            ranges.append(range(a, b + 1))
        else:
            ranges.append(range(0, 1))
    return [v for v in product(*ranges)]


def _place_images(system: PBCSystem, translates) -> MinimalPeriodicLink:
    """Unfold every chain and place its image at each lattice translate
    that ``translates(image, box)`` returns, chains in system order."""
    images, box = minimal_collective_unfolding(system)
    placed: List[PlacedImage] = []
    for chain in system.chains:
        img = images[chain.id]
        placed.extend(img.shifted(system.cell, v) for v in translates(img, box))
    return MinimalPeriodicLink(tuple(placed), box, images)


def minimal_periodic_link(system: PBCSystem) -> MinimalPeriodicLink:
    """All image translates with positive presence in the collective box."""
    cell = system.cell
    return _place_images(system, lambda img, box: present_translates(
        cell, cell.to_fractional(img.polyline), img.closed, box))


def search_basepoint(system: PBCSystem, chain_id: str) -> Tuple[int, int]:
    """Basepoint maximizing the periodic-link component count.

    Only the basepoint arc changes the image of an infinite chain, so
    candidates are tried per arc; ties resolve to the lowest (arc,
    vertex) index, hence vertex 0 of the winning arc.
    """
    chain = system.chain(chain_id)
    best: Optional[Tuple[int, int]] = None
    for ai in range(len(chain.arcs)):
        trial = with_basepoint(system, chain_id, (ai, 0))
        count = minimal_periodic_link(trial).component_count
        if best is None or count > best[0]:
            best = (count, ai)
    return (best[1], 0)


def with_basepoint(system: PBCSystem, chain_id: str, basepoint: Tuple[int, int]) -> PBCSystem:
    system.chain(chain_id)  # an unknown id raises
    chains = [
        GeneratingChain(c.id, c.arcs, c.topology, basepoint) if c.id == chain_id else c
        for c in system.chains
    ]
    return PBCSystem(system.cell, chains)


def rebuild_link(system: PBCSystem, composition: Mapping[str, Sequence[Sequence[int]]]) -> MinimalPeriodicLink:
    """Place images at previously captured translates (frozen components).

    Each placed image, moved back by its translate, must give back the
    chain's own fractional coordinates within ``MATCH_TOL``, the tolerance
    that matches arc ends; a translate so large that rounding loses them
    is rejected.
    """
    unknown = sorted(set(composition) - {c.id for c in system.chains})
    if unknown:
        raise PbcJonesError(f"frozen composition names chains not in the system: {unknown}")
    frozen: Dict[str, List[Vec3]] = {}
    for chain_id, translates in composition.items():
        if not isinstance(translates, (list, tuple)):
            raise PbcJonesError(f"frozen chain {chain_id!r}: expected a list of translates")
        frozen[chain_id] = [_frozen_translate(system.cell, chain_id, t) for t in translates]
    if not any(frozen.values()):
        raise PbcJonesError("frozen composition places no image")

    def placeable(img: PlacedImage, box) -> List[Vec3]:
        translates = frozen.get(img.chain_id, [])
        for v in translates:
            if not _keeps_coordinates(system.cell, img.polyline, v):
                shown = ", ".join(str(x) if abs(x) < 10**12 else f"{Decimal(x):.3e}" for x in v)
                raise PbcJonesError(
                    f"frozen chain {img.chain_id!r}: a translate is too large to place: "
                    f"({shown}) rounds its coordinates off by more than {MATCH_TOL:g} cells")
        return translates

    return _place_images(system, placeable)


def _keeps_coordinates(cell: Cell, polyline: np.ndarray, v: Vec3) -> bool:
    """Whether ``polyline`` placed at translate ``v`` and moved back gives
    back its fractional coordinates within ``MATCH_TOL``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            back = cell.to_fractional(polyline + cell.translation(v)) - np.asarray(v, float)
            return bool(np.all(np.abs(back - cell.to_fractional(polyline)) <= MATCH_TOL))
    except OverflowError:
        return False


def _frozen_translate(cell: Cell, chain_id: str, t) -> Vec3:
    try:
        v = tuple(operator.index(x) for x in t)
    except TypeError:
        v = ()
    if len(v) != 3:
        raise PbcJonesError(f"frozen chain {chain_id!r}: translate {t!r} is not three integers")
    for ax in range(3):
        if v[ax] and not cell.periodic[ax]:
            raise PbcJonesError(f"translate {v} moves along a non-periodic axis")
    return v


def link_curves(link: MinimalPeriodicLink) -> List[Curve]:
    return [Curve(im.curve_id, im.polyline, im.closed) for im in link.images]


# -- cell link ----------------------------------------------------------


def cell_curves(system: PBCSystem, tol: float = 1e-9) -> List[Curve]:
    """Arc pieces inside the base cell, with whole interior rings kept closed.

    Each chain's arcs are clipped against the cell box (inflated by tol so
    grazing contact does not split pieces) into open pieces.  The one arc
    of a closed chain is a ring when the unfolding walk matches its last
    vertex to its first at translate (0, 0, 0).  A ring with no vertex
    outside the box stays one closed curve; any other ring is clipped as
    an open walk from its first vertex outside the box.
    """
    require_nonnegative("tolerance", tol)
    cell = system.cell
    lo = np.full(3, -tol)
    hi = np.full(3, 1.0 + tol)
    curves: List[Curve] = []
    for chain in system.chains:
        for ai, arc in enumerate(chain.arcs):
            frac = cell.to_fractional(arc)
            if (chain.topology == "closed" and len(chain.arcs) == 1
                    and _lattice_match(cell, frac[-1], frac[0]) == (0, 0, 0)):
                outside = ((frac[:-1] < lo) | (frac[:-1] > hi)).any(axis=1).nonzero()[0]
                if not outside.shape[0]:
                    curves.append(Curve(f"{chain.id}/a{ai}", arc[:-1], True))
                    continue
                s = outside[0]
                arc = np.vstack([arc[s:-1], arc[:s + 1]])
                frac = np.vstack([frac[s:-1], frac[:s + 1]])
            pieces = _clip_pieces(arc, frac, lo, hi, tol)
            for k, piece in enumerate(pieces):
                name = f"{chain.id}/a{ai}" if len(pieces) == 1 else f"{chain.id}/a{ai}/p{k}"
                curves.append(Curve(name, piece, False))
    return curves


def _clip_pieces(cart: np.ndarray, frac: np.ndarray, lo, hi, tol: float) -> List[np.ndarray]:
    """Split a polyline into maximal pieces inside the box [lo, hi]."""
    pieces: List[List[np.ndarray]] = []
    current: List[np.ndarray] = []
    t0s, t1s = (t.tolist() for t in _box_intervals(frac[:-1], frac[1:], lo, hi))
    for i, (t0, t1) in enumerate(zip(t0s, t1s)):
        ca, cb = cart[i], cart[i + 1]
        if t1 <= t0:
            if current:
                pieces.append(current)
                current = []
            continue
        pa = ca if t0 <= 0.0 else ca + t0 * (cb - ca)
        pb = cb if t1 >= 1.0 else ca + t1 * (cb - ca)
        if not current:
            current.append(pa)
        current.append(pb)
        if t1 < 1.0:
            pieces.append(current)
            current = []
    if current:
        pieces.append(current)
    out = []
    for p in pieces:
        arr = np.asarray(p)
        keep = [0]
        for i in range(1, arr.shape[0]):
            if np.linalg.norm(arr[i] - arr[keep[-1]]) > 1e-12:
                keep.append(i)
        arr = arr[keep]
        # a piece whose points merged into one has length 0, so it goes too
        if float(np.sum(np.linalg.norm(np.diff(arr, axis=0), axis=1))) <= 10 * tol:
            continue
        out.append(arr)
    return out


# -- top-level polynomials ----------------------------------------------


def cell_jones(system: PBCSystem, cfg: Optional[SamplingConfig] = None) -> JonesResult:
    cfg = cfg or SamplingConfig()
    curves = cell_curves(system, cfg.tolerance)
    if not curves:
        raise PbcJonesError("no arc lies inside the base cell")
    return jones(curves, cfg)


def periodic_jones(system: PBCSystem, cfg: Optional[SamplingConfig] = None,
                   frozen: Optional[Mapping] = None) -> Tuple[JonesResult, MinimalPeriodicLink]:
    cfg = cfg or SamplingConfig()
    link = rebuild_link(system, frozen) if frozen is not None else minimal_periodic_link(system)
    return jones(link_curves(link), cfg), link


def normalized(poly: LaurentPoly, component_count: int, zero_tol: float = 1e-9) -> DivisionResult:
    """Divide by the loop value to the (component count - 1) power."""
    require_count("component count", component_count, 1)
    require_nonnegative("tolerance", zero_tol)
    return divide_by_d_power(poly, int(component_count) - 1, zero_tol)


# -- periodic self-linking ----------------------------------------------


def single_periodic_axis(cell: Cell) -> int:
    axes = [ax for ax in range(3) if cell.periodic[ax]]
    if len(axes) != 1:
        raise PbcJonesError("axis must be given explicitly unless exactly one axis is periodic")
    return axes[0]


def slk_p(system: PBCSystem, xi, link: Optional[MinimalPeriodicLink] = None,
          axis: Optional[int] = None, tol: float = 1e-9) -> Fraction:
    """Periodic self-linking: half the signed shared crossings between the
    periodic link and its translates by the copy period, summed over all
    nonzero translates.

    The copy period along each axis is the link box's ``copy_period``.
    Translates run over every periodic axis unless ``axis`` restricts
    them to one.  Each translate is projected together with the link,
    all translates in one ``project_translates`` call along xi; only a
    translate whose projection fails a genericity check is projected
    again, with the nudges of ``project_generic``.
    """
    if link is None:
        link = minimal_periodic_link(system)
    if axis is None:
        axes = [ax for ax in range(3) if system.cell.periodic[ax]]
        if not axes:
            raise PbcJonesError("no periodic axis")
    else:
        if axis not in (0, 1, 2):
            raise PbcJonesError(f"axis must be 0, 1 or 2, got {axis}")
        if not system.cell.periodic[axis]:
            raise PbcJonesError(f"axis {axis} is not periodic")
        axes = [axis]

    base = [Curve(f"L|{im.curve_id}", im.polyline, im.closed) for im in link.images]
    moving = [Curve(f"T|{im.curve_id}", im.polyline, im.closed) for im in link.images]
    frac_all = np.concatenate([system.cell.to_fractional(im.polyline) for im in link.images])

    period = {}
    ranges = []
    for ax in axes:
        period[ax] = link.mcu.copy_period(ax)
        span = float(frac_all[:, ax].max() - frac_all[:, ax].min())
        vmax = int(math.ceil(span / period[ax])) + 1
        ranges.append(range(-vmax, vmax + 1))

    offsets = []
    for combo in product(*ranges):
        if not any(combo):
            continue
        cells = np.zeros(3)
        for ax, v in zip(axes, combo):
            cells[ax] = v * period[ax]
        offsets.append(system.cell.translation(cells))

    base_ids, moving_ids = [c.id for c in base], [c.id for c in moving]
    total = Fraction(0)
    for offset, diagram in zip(offsets, project_translates(base, moving, offsets, xi, tol)):
        if isinstance(diagram, NonGenericDirectionError):
            shifted = [c.translated(offset) for c in moving]
            diagram, _, _ = project_generic(base + shifted, xi, tol, diagram)
        total += diagram.inter_linking(base_ids, moving_ids)
    return total
