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
diagram object of the chunk once and counts the directions that saw it,
and ``jones`` adds each diagram's polynomial and work counters times that
count; the sums are exact integers, so chunks of any size give the same
totals.

Most distinct projected diagrams are the same diagram once their kinks
and bigons are gone.  ``_direction_term`` checks the crossing cap on the
projected diagram, reduces it with ``reidemeister_reduce``, whose output
names its crossings canonically, and passes the reduction to ``bracket``
with the chunk's memo; ``bracket`` does not reduce it again.  The memo's
key, the diagram less its component ids, is then the reduced signed
Gauss code, so equal reductions share one state sum and one
``BracketResult``, counters included, and the term is the reduction's
writhe prefactor times its bracket.  Per pass of the benchmark, the
open trefoil's 2,000 directions give 280 diagram objects and 39
distinct reductions, each melt link's 200 give 200 objects and
87 reductions, and jersey's 189 uncapped directions give 27 objects and
21 reductions.  A hit returns what a miss would compute, so ``results``
do not depend on how directions are split into chunks.  The memo lives
for one chunk: there is no cache across calls.

Nudging happens in ``project_generic`` only, before a diagram is solved:
``jones_single_direction`` calls it for its one direction, and
``_chunk_sum`` calls it for each direction of the chunk that fails a
genericity check, passing on that failure, so the nudges start at the
first perturbed direction and the retry count does not depend on how
the directions were projected.  Such a direction counts on its own, and
its reduction meets the same memo.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence

import numpy as np

from .bracket import DEFAULT_CROSSING_CAP, bracket, writhe_prefactor
from .diagram import Diagram, reidemeister_reduce
from .errors import (DEFAULT_TOLERANCE, NonGenericDirectionError, PbcJonesError,
                     StateSumTooLargeError, require_count, require_nonnegative)
from .geometry import (Curve, perturbed_direction, project, project_many,
                       sample_directions)
from .laurent import FLOAT, LaurentPoly

GENERICITY_RETRIES = 100  # direction nudges before a projection counts as non-generic


@dataclass(frozen=True)
class SamplingConfig:
    directions: int = 500
    mode: str = "fibonacci"  # or "random"
    seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
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


def project_generic(curves: Sequence[Curve], xi, tol: float,
                    first: Optional[NonGenericDirectionError] = None):
    """Project along xi, nudging the direction until generic.

    Up to ``GENERICITY_RETRIES`` nudges are tried.  ``first`` is the NonGenericDirectionError of projecting along xi
    itself when the caller already has it; the nudges then start at the
    first perturbed direction.  Returns (diagram, direction_used,
    retries_needed).
    """
    xi0 = np.asarray(xi, dtype=float)
    last = first
    for attempt in range(0 if first is None else 1, GENERICITY_RETRIES + 1):
        cand = xi0 if attempt == 0 else perturbed_direction(xi0, attempt)
        try:
            return project(curves, cand, tol), cand, attempt
        except NonGenericDirectionError as err:
            last = err
    raise last


def _direction_term(diagram: Diagram, tries: int, cfg: SamplingConfig,
                    memo: Optional[dict] = None):
    """Exact Jones polynomial of the diagram one direction sees after ``tries`` nudges.

    The cap counts the crossings of ``diagram``; the bracket is that of its
    reduction, looked up in and stored to ``memo``.  Returns (poly or None
    when capped and skipping, tries, crossings, states_expanded).
    """
    n_cross = len(diagram.crossings)
    if n_cross > cfg.crossing_cap:
        if cfg.on_cap == "skip":
            return None, tries, n_cross, 0
        raise StateSumTooLargeError(n_cross, cfg.crossing_cap)
    reduced = reidemeister_reduce(diagram)
    res = bracket(reduced, cfg.crossing_cap, memo)
    return writhe_prefactor(reduced.writhe) * res.poly, tries, n_cross, res.states_expanded


def _chunk_sum(args) -> list:
    """(``_direction_term`` output, directions that saw it) per diagram of a chunk."""
    curves, dirs, cfg = args
    # each diagram object is solved where it first comes, so on_cap="error"
    # raises at the first capped direction; only the directions that fail a
    # genericity check project again, nudged, one at a time
    counted: Dict[Diagram, list] = {}  # diagram -> [its term, directions]
    nudged = []
    memo: dict = {}  # reduced diagram -> bracket, for this chunk only
    for xi, first in zip(dirs, project_many(curves, dirs, cfg.tolerance)):
        if isinstance(first, NonGenericDirectionError):
            diagram, _, tries = project_generic(curves, xi, cfg.tolerance, first)
            nudged.append((_direction_term(diagram, tries, cfg, memo), 1))
        elif first in counted:
            counted[first][1] += 1
        else:
            counted[first] = [_direction_term(first, 0, cfg, memo), 1]
    return [*counted.values(), *nudged]


def jones_single_direction(curves: Sequence[Curve], xi, cfg: Optional[SamplingConfig] = None) -> JonesResult:
    """Exact Jones polynomial of the diagram seen along one direction."""
    cfg = cfg or SamplingConfig()
    diagram, _, tries = project_generic(curves, xi, cfg.tolerance)
    poly, tries, n_cross, st = _direction_term(diagram, tries, cfg)
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
            total[e] = total.get(e, 0) + c * count
    if used == 0:
        raise StateSumTooLargeError(max_cross, cfg.crossing_cap)
    # c / used is correctly rounded, as float(Fraction(c, used)) is; a sum
    # that came to 0 fails the test, since prune >= 0
    poly = LaurentPoly({e: c / used for e, c in total.items() if abs(c / used) > cfg.prune},
                       FLOAT)
    skipped = cfg.directions - used
    return JonesResult(poly, False, used, skipped, retries, max_cross, expanded)
