"""Reference curves and systems used by tests and examples."""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import Curve
from .io_formats import system_from_json_obj
from .pbc import Cell, GeneratingChain, PBCSystem


def ring(id: str, center=(0.0, 0.0, 0.0), radius: float = 1.0, n: int = 16,
         plane: str = "xy", reverse: bool = False) -> Curve:
    """Regular closed polygon approximating a circle in a coordinate plane."""
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    c, s = np.cos(ts) * radius, np.sin(ts) * radius
    z = np.zeros(n)
    if plane == "xy":
        pts = np.column_stack([c, s, z])
    elif plane == "xz":
        pts = np.column_stack([c, z, s])
    else:
        raise ValueError(f"unknown plane {plane!r}")
    pts = pts + np.asarray(center, dtype=float)
    if reverse:
        pts = pts[::-1]
    return Curve(id, pts, True)


def hopf_link(n: int = 16, reverse_second: bool = False) -> Tuple[Curve, Curve]:
    """Two interlocked rings with linking number +1 (-1 when reversed)."""
    a = ring("a", (0.0, 0.0, 0.0), 1.0, n, "xy")
    b = ring("b", (1.0, 0.0, 0.0), 1.0, n, "xz", reverse=not reverse_second)
    return a, b


def unlinked_circles(count: int, spacing: float = 3.0, n: int = 12) -> Tuple[Curve, ...]:
    return tuple(ring(f"r{i}", (spacing * i, 0.0, 0.0), 1.0, n) for i in range(count))


def _torus_points(ts: np.ndarray) -> np.ndarray:
    r = 2.0 + np.cos(3.0 * ts)
    return np.column_stack([r * np.cos(2.0 * ts), r * np.sin(2.0 * ts), np.sin(3.0 * ts)])


def trefoil(n: int = 30) -> Curve:
    """Polygonal (2,3) torus knot."""
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return Curve("trefoil", _torus_points(ts), True)


def figure_eight(n: int = 40) -> Curve:
    """Polygonal figure-eight knot; amphichiral, so its polynomial is
    symmetric under inverting the variable."""
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    r = 2.0 + np.cos(2.0 * ts)
    pts = np.column_stack([r * np.cos(3.0 * ts), r * np.sin(3.0 * ts), np.sin(4.0 * ts)])
    return Curve("fig8", pts, True)


def open_trefoil(gap: float, n: int = 30) -> Curve:
    """Trefoil opened around the parameter origin, endpoints `gap` apart.

    The deleted parameter window is found by bisection so the Euclidean
    end-to-end distance equals the requested gap.
    """
    def end_dist(delta: float) -> float:
        p = _torus_points(np.array([delta, 2.0 * math.pi - delta]))
        return float(np.linalg.norm(p[0] - p[1]))

    lo, hi = 0.0, math.pi / 2
    if end_dist(hi) < gap:
        raise ValueError("gap too large for this curve")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if end_dist(mid) < gap:
            lo = mid
        else:
            hi = mid
    delta = 0.5 * (lo + hi)
    ts = np.linspace(delta, 2.0 * math.pi - delta, n)
    return Curve("open_trefoil", _torus_points(ts), False)


# -- periodic fixtures --------------------------------------------------

# One ring per cell, periodic along x.  The ring body is a loop in the
# plane x = 0.3; a rectangular hook reaches into the next cell and wraps
# around the neighbor ring's top edge, so consecutive rings interlock
# like chainmail.
_CHAINMAIL_RING = [
    [0.3, 0.15, 0.2],
    [0.3, 0.85, 0.2],
    [0.3, 0.85, 0.8],
    [0.3, 0.35, 0.8],
    [1.2, 0.6, 0.7],
    [1.4, 0.6, 0.7],
    [1.4, 0.6, 0.9],
    [1.2, 0.6, 0.9],
    [0.3, 0.2, 0.7],
    [0.3, 0.2, 0.8],
    [0.3, 0.15, 0.8],
    [0.3, 0.15, 0.2],
]


def chainmail_system(doubled: bool = False) -> PBCSystem:
    """Singly-periodic chain of interlocked rings.

    With ``doubled`` the cell is twice as long, the ring no longer reaches
    its translates, and all periodic self-linking vanishes.
    """
    size = 2.0 if doubled else 1.0
    cell = Cell(np.diag([size, 1.0, 1.0]), (True, False, False))
    chain = GeneratingChain("ring", [np.asarray(_CHAINMAIL_RING)], "closed")
    return PBCSystem(cell, [chain])


def _load_system(name: str) -> PBCSystem:
    text = resources.files("pbcjones.data").joinpath(name).read_text()
    return system_from_json_obj(json.loads(text))


def jersey_system() -> PBCSystem:
    """Doubly-periodic single jersey weave, one infinite thread per cell."""
    return _load_system("jersey.json")


def twill_system() -> PBCSystem:
    """Doubly-periodic twill weave, one infinite thread per cell."""
    return _load_system("twill.json")


# -- synthetic melt -----------------------------------------------------


def melt_chains(n_chains: int = 7, beads: int = 14, box: float = 12.0,
                seed: int = 11, margin: float = 1.0,
                interior: bool = True) -> Tuple[np.ndarray, float]:
    """Random-walk bead chains in a cubic box of side ``box``.

    Interior chains are reflected off the walls at ``margin`` so the
    whole path stays strictly inside; otherwise walks roam freely and
    may cross faces.  Returns (chains array (n, beads, 3), box side).
    """
    rng = np.random.default_rng(seed)
    step = 0.85
    chains = np.empty((n_chains, beads, 3))
    for c in range(n_chains):
        lo, hi = (margin + step, box - margin - step) if interior else (0.0, box)
        p = rng.uniform(lo, hi, size=3)
        chains[c, 0] = p
        for k in range(1, beads):
            d = rng.normal(size=3)
            d *= step / np.linalg.norm(d)
            q = p + d
            if interior:
                # reflect any wall excursion back into the safe region
                for ax in range(3):
                    if q[ax] < margin:
                        q[ax] = 2.0 * margin - q[ax]
                    elif q[ax] > box - margin:
                        q[ax] = 2.0 * (box - margin) - q[ax]
            chains[c, k] = q
            p = q
    return chains, box


def melt_dump_text(n_chains: int = 7, beads: int = 14, box: float = 12.0,
                   seed: int = 11, interior: bool = True,
                   scaled: bool = False) -> str:
    """LAMMPS dump snapshot of a synthetic melt, coordinates wrapped."""
    chains, side = melt_chains(n_chains, beads, box, seed, interior=interior)
    lines = [
        "ITEM: TIMESTEP",
        "0",
        "ITEM: NUMBER OF ATOMS",
        str(n_chains * beads),
        "ITEM: BOX BOUNDS pp pp pp",
    ]
    lines += [f"0.0 {side}"] * 3
    cols = "xs ys zs" if scaled else "x y z"
    lines.append(f"ITEM: ATOMS id mol {cols}")
    atom = 1
    for c in range(n_chains):
        for k in range(beads):
            p = np.mod(chains[c, k], side)
            if scaled:
                p = p / side
            lines.append(f"{atom} {c + 1} {p[0]:.10f} {p[1]:.10f} {p[2]:.10f}")
            atom += 1
    return "\n".join(lines) + "\n"


def melt_system(n_chains: int = 7, beads: int = 14, box: float = 12.0,
                seed: int = 11) -> PBCSystem:
    """Interior-only melt as a ready PBCSystem (3 periodic axes)."""
    chains, side = melt_chains(n_chains, beads, box, seed, interior=True)
    cell = Cell(np.diag([side, side, side]), (True, True, True))
    gens = [GeneratingChain(f"mol{c + 1}", [chains[c]], "open")
            for c in range(n_chains)]
    return PBCSystem(cell, gens)
