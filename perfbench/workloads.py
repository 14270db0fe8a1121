"""The benchmark's four workloads: inputs from a seed, one pass, its gates.

Seed 0 gives the inputs of the repository's acceptance tests exactly.
Any other seed moves every input by a seeded rigid motion.  Chainmail
supplies its own projection directions, so it is rotated and translated
with them and its diagrams stay the same.  The other workloads use the
program's fixed direction sample; a rotation would change which
directions reach the crossing cap, and one such direction changes the
cost of a jersey pass by a factor of two, so these are only translated.

A pass starts from the generated inputs and ends with checked outputs.
It returns a ``PassResult``: the outputs compared against the seed-0
reference, the work counters every pass must repeat, and how many
operations were attempted, skipped and failed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from pbcjones import cli, cutoff, jones3d, pbc
from pbcjones.errors import PbcJonesError
from pbcjones.fixtures import (chainmail_system, jersey_system, melt_dump_text,
                               open_trefoil)
from pbcjones.geometry import Curve, rotate_about, sample_directions
from pbcjones.jones3d import SamplingConfig
from pbcjones.laurent import LaurentPoly
from pbcjones.pbc import Cell, GeneratingChain, PBCSystem

# direction counts and settings of one pass
TREFOIL_DIRECTIONS = 2000
JERSEY_DIRECTIONS = 200
MELT_DIRECTIONS = 200
SLK_DIRECTIONS = 20
CUTOFF_COPIES = (1, 2, 3, 4, 5)
CROSSING_CAP = 64

# the acceptance tests' coherent cutoff direction and slk sample
COHERENT_XI = np.array([-0.632398, -0.322856, -0.704156])
COHERENT_XI = COHERENT_XI / np.linalg.norm(COHERENT_XI)
CHAINMAIL_POLY = LaurentPoly({-20: 1, -12: 2, -4: 1})
CUTOFF_FLAGS = ("writhe_identity_ok", "disconnecting_unique_ok", "state_oracle_ok",
                "sum_identity_ok", "factorization_ok")


@dataclass
class PassResult:
    outputs: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    skipped: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def op(self, name: str, count: int, ok: bool, detail: str = "") -> None:
        """Record an operation group: count attempts, all failed unless ok."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(f"{name}: {detail}" if detail else name)


# -- seeded inputs --------------------------------------------------------


def rigid_motion(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rotation matrix and translation of a seed; seed 0 is the identity."""
    if seed == 0:
        return np.eye(3), np.zeros(3)
    rng = np.random.default_rng([seed, 2309])
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.column_stack([rotate_about(e, axis, angle) for e in np.eye(3)])
    return rot, rng.uniform(-4.0, 4.0, size=3)


def moved_system(system: PBCSystem, rot: np.ndarray, shift: np.ndarray) -> PBCSystem:
    """The system under x -> rot @ x + shift, cell basis and origin included."""
    cell = Cell(system.cell.basis @ rot.T, system.cell.periodic,
                system.cell.origin @ rot.T + shift)
    chains = [GeneratingChain(c.id, [a @ rot.T + shift for a in c.arcs], c.topology,
                              c.basepoint) for c in system.chains]
    return PBCSystem(cell, chains)


def shifted_dump(text: str, shift: np.ndarray) -> str:
    """A LAMMPS dump with box bounds and atom positions translated."""
    lines = text.splitlines()
    out: List[str] = []
    mode = ""
    axis = 0
    for line in lines:
        if line.startswith("ITEM:"):
            mode = line
            out.append(line)
            continue
        if mode.startswith("ITEM: BOX BOUNDS"):
            lo, hi = (float(x) for x in line.split())
            out.append(f"{lo + shift[axis]:.10f} {hi + shift[axis]:.10f}")
            axis += 1
        elif mode.startswith("ITEM: ATOMS"):
            atom, mol, *xyz = line.split()
            p = np.asarray([float(x) for x in xyz]) + shift
            out.append(f"{atom} {mol} {p[0]:.10f} {p[1]:.10f} {p[2]:.10f}")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


# -- gates ---------------------------------------------------------------


def value_at_one(poly: LaurentPoly) -> float:
    """The polynomial at A = 1, which is (-2)^(components - 1) for every diagram."""
    return float(sum(float(c) for _, c in poly.terms()))


def poly_obj(poly: LaurentPoly) -> dict:
    """JSON form of a polynomial, round-tripped so it compares with stored ones."""
    return json.loads(json.dumps(poly.to_json_obj()))


# -- workloads ------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir

    def run_pass(self) -> PassResult:
        raise NotImplementedError


class OpenTrefoil(Workload):
    """Direction average of one open trefoil."""

    name = "open_trefoil"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        _, shift = rigid_motion(seed)
        base = open_trefoil(gap=0.3)
        self.curves = [Curve(base.id, base.vertices + shift, False)]
        self.cfg = SamplingConfig(directions=TREFOIL_DIRECTIONS)

    def run_pass(self) -> PassResult:
        out = PassResult()
        res = jones3d.jones(self.curves, self.cfg)
        at_one = value_at_one(res.poly)
        out.op("directions", self.cfg.directions,
               not res.exact and res.directions_used == self.cfg.directions
               and abs(at_one - 1.0) <= 1e-9,
               f"used {res.directions_used}, V(1) = {at_one!r}")
        out.outputs["poly"] = poly_obj(res.poly)
        out.counters = _jones_counters(res)
        return out


class Jersey(Workload):
    """Periodic link of the jersey weave at the textile test's settings."""

    name = "jersey"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        _, shift = rigid_motion(seed)
        self.system = moved_system(jersey_system(), np.eye(3), shift)
        self.cfg = SamplingConfig(directions=JERSEY_DIRECTIONS, crossing_cap=CROSSING_CAP,
                                  prune=1e-3, on_cap="skip")

    def run_pass(self) -> PassResult:
        out = PassResult()
        res, link = pbc.periodic_jones(self.system, self.cfg)
        at_one = value_at_one(res.poly)
        # pruning at 1e-3 may drop a few tiny coefficients
        ok = (link.component_count == 8
              and res.directions_used + res.directions_skipped == self.cfg.directions
              and abs(at_one + 128.0) <= 0.01)
        out.op("directions", self.cfg.directions, ok,
               f"{link.component_count} components, V(1) = {at_one!r}")
        out.skipped = res.directions_skipped if ok else 0
        out.outputs["poly"] = poly_obj(res.poly)
        out.counters = _jones_counters(res)
        return out


class MeltPipeline(Workload):
    """Ingest a melt dump, then periodic, cell and normalize through the CLI."""

    name = "melt_pipeline"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        _, shift = rigid_motion(seed)
        text = melt_dump_text()
        if seed:
            text = shifted_dump(text, shift)
        self.dump = os.path.join(workdir, "melt.dump")
        with open(self.dump, "w", encoding="utf-8") as fh:
            fh.write(text)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run_pass(self) -> PassResult:
        out = PassResult()
        system, per, cell, norm = (self._path(n) for n in
                                   ("system.json", "periodic.json", "cell.json", "norm.json"))
        flags = ["--directions", str(MELT_DIRECTIONS), "--crossing-cap", str(CROSSING_CAP)]
        steps = [
            ["ingest", self.dump, "--system-out", system, "--out", self._path("ingest.json")],
            ["periodic-jones", system, *flags, "--out", per],
            ["cell-jones", system, *flags, "--out", cell],
            ["normalize", per, "--out", norm],
        ]
        reports = {}
        for argv in steps:
            if cli.main(argv) != 0:
                break
            with open(argv[-1], encoding="utf-8") as fh:
                text = fh.read()
            reports[argv[0]] = json.loads(text)["results"]
            out.counters[f"{argv[0]}.bytes"] = len(text)
        i, p, c, n = (reports.get(s[0], {}) for s in steps)
        out.op("ingest", 1, i.get("chains_kept") == 7, f"kept {i.get('chains_kept')} chains")
        poly = p.get("polynomial")
        at_one = value_at_one(LaurentPoly.from_json_obj(poly)) if poly else None
        out.op("directions", 2 * MELT_DIRECTIONS,
               poly is not None and poly == c.get("polynomial")
               and p.get("component_count") == c.get("component_count") == 7
               and p.get("directions_skipped") == c.get("directions_skipped") == 0
               and abs(at_one - 64.0) <= 1e-6,
               f"periodic == cell: {poly == c.get('polynomial')}, V(1) = {at_one!r}")
        out.op("normalize", 1, poly is not None and n.get("polynomial") == poly,
               "normalize read back another polynomial")
        out.outputs = {"periodic": poly, "cell": c.get("polynomial"),
                       "quotient": n.get("quotient"), "remainder": n.get("remainder")}
        for name, r in (("periodic-jones", p), ("cell-jones", c)):
            for key in ("states_expanded", "cache_hits", "retries", "max_crossings"):
                out.counters[f"{name}.{key}"] = r.get(key)
        return out


class Chainmail(Workload):
    """Exact closed-curve path: periodic link, slk_p and cutoffs N=1..5."""

    name = "chainmail"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rot, shift = rigid_motion(seed)
        self.system = moved_system(chainmail_system(), rot, shift)
        self.slk_dirs = sample_directions(SLK_DIRECTIONS, "random", seed=9) @ rot.T
        self.cutoff_xi = rot @ COHERENT_XI

    def run_pass(self) -> PassResult:
        out = PassResult()
        res, link = pbc.periodic_jones(self.system)
        out.op("periodic-jones", 1, res.exact and res.poly == CHAINMAIL_POLY,
               f"polynomial {res.poly}")
        out.outputs["periodic"] = poly_obj(res.poly)
        out.counters = _jones_counters(res)

        slks = [pbc.slk_p(self.system, xi, link) for xi in self.slk_dirs]
        bad = [str(v) for v in slks if v != Fraction(2)]
        out.op("slk_p", len(slks), not bad, f"values {bad}")
        out.outputs["slk"] = [str(v) for v in slks]

        states = 0
        for n in CUTOFF_COPIES:
            try:
                rep = cutoff.verify_cutoff_factorization(self.system, n, xi=self.cutoff_xi,
                                                         crossing_cap=CROSSING_CAP)
            except PbcJonesError as exc:
                out.op(f"cutoff N={n}", 1, False, str(exc))
                continue
            flags = [f for f in CUTOFF_FLAGS if not getattr(rep, f)]
            out.op(f"cutoff N={n}", 1, not flags, f"false flags {flags}")
            states += rep.states_enumerated
            out.outputs[f"cutoff{n}"] = {k: poly_obj(getattr(rep, k)) for k in
                                         ("v_cutoff", "v_base", "state_term", "lambda_tilde")}
        out.counters["cutoff.states_enumerated"] = states
        return out


def _jones_counters(res) -> Dict[str, int]:
    return {"states_expanded": res.states_expanded, "cache_hits": res.cache_hits,
            "directions_used": res.directions_used,
            "directions_skipped": res.directions_skipped,
            "retries": res.retries, "max_crossings": res.max_crossings}


WORKLOADS: Dict[str, Callable[[int, str], Workload]] = {
    w.name: w for w in (OpenTrefoil, Jersey, MeltPipeline, Chainmail)
}


def check_reference(name: str, outputs: Dict[str, object],
                    reference: Optional[Dict[str, object]]) -> List[str]:
    """Names of outputs that differ from the recorded seed-0 reference."""
    if reference is None:
        return ["no reference recorded for " + name]
    keys = sorted(set(outputs) | set(reference))
    return [k for k in keys if outputs.get(k) != reference.get(k)]
