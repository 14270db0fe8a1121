"""Jones polynomials of curves in 3-space.

Collections that are entirely closed have a projection-independent
polynomial, computed exactly from one generic direction.  Collections
with open curves depend on the direction, and the result is the average
over a deterministic direction sample; the exact integer polynomials
are summed exactly and divided by the number of directions used once at
the end, so results do not depend on worker count or summation order.

Each worker's chunk of directions is projected with one
``project_many`` call, which gives directions that see the same diagram
the same ``Diagram`` object.  ``_chunk_sum`` solves each distinct
diagram of the chunk once and counts the directions that saw it, and
``jones`` adds each diagram's polynomial and work counters times that
count; the sums are exact integers, so chunks of any size give the same
totals.  The diagram objects are the only dedup of an average: distinct
diagrams seldom share a terminal graph (7 of the 280 state sums of the
benchmark's open trefoil pass, none on jersey or melt), so a bracket
memo's keys cost as much to build as the sums they save.  A direction
that fails a genericity check in the chunk goes through the same nudges
as a single-direction projection, starting at the first perturbed
direction, so its retry count does not depend on how the directions
were projected, and is solved on its own.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence

import numpy as np

from .bracket import DEFAULT_CROSSING_CAP, bracket, writhe_prefactor
from .diagram import Diagram
from .errors import (NonGenericDirectionError, PbcJonesError, StateSumTooLargeError,
                     require_count, require_nonnegative)
from .geometry import (Curve, perturbed_direction, project, project_many,
                       sample_directions)
from .laurent import FLOAT, LaurentPoly

GENERICITY_RETRIES = 100  # direction nudges before a projection counts as non-generic


@dataclass(frozen=True)
class SamplingConfig:
    directions: int = 500
    mode: str = "fibonacci"  # or "random"
    seed: int = 0
    tolerance: float = 1e-9
    crossing_cap: int = DEFAULT_CROSSING_CAP
    prune: float = 1e-12
    workers: int = 1
    on_cap: str = "error"  # or "skip": drop capped directions from the average

    def __post_init__(self):
        if self.mode not in ("fibonacci", "random"):
            raise PbcJonesError(f"unknown sampling mode {self.mode!r}")
        if self.on_cap not in ("error", "skip"):
            raise PbcJonesError(f"on_cap must be 'error' or 'skip', got {self.on_cap!r}")
        for name, least in (("directions", 1), ("workers", 1), ("seed", 0), ("crossing_cap", 0)):
            require_count(name, getattr(self, name), least)
        require_nonnegative("tolerance", self.tolerance)
        require_nonnegative("prune", self.prune)


@dataclass(frozen=True)
class JonesResult:
    poly: LaurentPoly
    exact: bool
    directions_used: int
    directions_skipped: int
    retries: int
    max_crossings: int
    states_expanded: int

    @property
    def cache_hits(self) -> int:
        """Merged DP states: each solved direction's bracket merges all but
        one of its states (``BracketResult.cache_hits``)."""
        return self.states_expanded - self.directions_used

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["polynomial"] = obj.pop("poly").to_json_obj()
        obj["cache_hits"] = self.cache_hits
        return obj


def project_generic(curves: Sequence[Curve], xi, tol: float, retries: int, first=None):
    """Project along xi, nudging the direction until generic.

    ``first`` is the outcome of projecting along xi itself when the
    caller already has it: a Diagram, or the NonGenericDirectionError that
    starts the nudges.  Returns (diagram, direction_used, retries_needed).
    """
    xi0 = np.asarray(xi, dtype=float)
    last = first if isinstance(first, NonGenericDirectionError) else None
    if first is not None and last is None:
        return first, xi0, 0
    for attempt in range(0 if last is None else 1, retries + 1):
        cand = xi0 if attempt == 0 else perturbed_direction(xi0, attempt)
        try:
            return project(curves, cand, tol), cand, attempt
        except NonGenericDirectionError as err:
            last = err
    raise last


def _direction_term(curves, xi, cfg: SamplingConfig, first=None):
    """Exact Jones polynomial for one direction.

    ``first`` is the outcome of projecting along xi, as for
    ``project_generic``.  Returns (poly or None when capped and skipping,
    retries, crossings, states_expanded).
    """
    diagram, _, tries = project_generic(curves, xi, cfg.tolerance, GENERICITY_RETRIES, first)
    n_cross = len(diagram.crossings)
    try:
        res = bracket(diagram, cfg.crossing_cap)
    except StateSumTooLargeError:
        if cfg.on_cap == "skip":
            return None, tries, n_cross, 0
        raise
    poly = writhe_prefactor(diagram.writhe) * res.poly
    return poly, tries, n_cross, res.states_expanded


def _chunk_sum(args) -> list:
    """(``_direction_term`` output, directions that saw it) per diagram of a chunk."""
    curves, dirs, cfg = args
    # each diagram object is solved where it first comes, so on_cap="error"
    # raises at the first capped direction; only the directions that fail a
    # genericity check project again, nudged, one at a time
    counted: Dict[Diagram, list] = {}  # diagram -> [its term, directions]
    nudged = []
    for xi, first in zip(dirs, project_many(curves, dirs, cfg.tolerance)):
        if isinstance(first, NonGenericDirectionError):
            nudged.append((_direction_term(curves, xi, cfg, first), 1))
        elif first in counted:
            counted[first][1] += 1
        else:
            counted[first] = [_direction_term(curves, xi, cfg, first), 1]
    return [*counted.values(), *nudged]


def jones_single_direction(curves: Sequence[Curve], xi, cfg: Optional[SamplingConfig] = None) -> JonesResult:
    """Exact Jones polynomial of the diagram seen along one direction."""
    cfg = cfg or SamplingConfig()
    poly, tries, n_cross, st = _direction_term(curves, np.asarray(xi, dtype=float), cfg)
    if poly is None:
        raise StateSumTooLargeError(n_cross, cfg.crossing_cap)
    return JonesResult(poly, True, 1, 0, tries, n_cross, st)


def jones(curves: Sequence[Curve], cfg: Optional[SamplingConfig] = None) -> JonesResult:
    """Jones polynomial of a curve collection.

    All-closed collections use one generic direction and give an exact
    answer; otherwise the polynomial is the direction average in float
    mode.
    """
    cfg = cfg or SamplingConfig()
    if not curves:
        return JonesResult(LaurentPoly.one(), True, 0, 0, 0, 0, 0)
    dirs = sample_directions(cfg.directions, cfg.mode, cfg.seed)
    if all(c.closed for c in curves):
        return jones_single_direction(curves, dirs[0], cfg)

    if cfg.workers > 1:
        chunks = [c for c in np.array_split(dirs, cfg.workers) if len(c)]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(_chunk_sum, [(tuple(curves), chunk, cfg) for chunk in chunks]))
    else:
        parts = [_chunk_sum((tuple(curves), dirs, cfg))]

    total: Dict[int, int] = {}
    used = retries = max_cross = expanded = 0
    for (poly, tries, n_cross, st), count in (rec for part in parts for rec in part):
        retries += tries * count
        max_cross = max(max_cross, n_cross)
        if poly is None:
            continue
        used += count
        expanded += st * count
        for e, c in poly.terms():
            nc = total.get(e, 0) + c * count
            if nc:
                total[e] = nc
            else:
                del total[e]
    if used == 0:
        raise StateSumTooLargeError(max_cross, cfg.crossing_cap)
    # c / used is correctly rounded, as float(Fraction(c, used)) is
    poly = LaurentPoly({e: c / used for e, c in total.items() if abs(c / used) > cfg.prune},
                       FLOAT)
    skipped = cfg.directions - used
    return JonesResult(poly, False, used, skipped, retries, max_cross, expanded)
