"""File formats: system/curve JSON, trajectory ingestion, reports.

JSON writing is canonical (sorted keys, fixed separators, trailing
newline) so identical content always produces identical bytes.  Reports
deliberately carry no timestamps or host details; two runs with the same
inputs and parameters serialize to the same bytes.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import PbcJonesError
from .geometry import Curve
from .laurent import LaurentPoly
from .pbc import Cell, GeneratingChain, PBCSystem

SYSTEM_FORMAT = "pbcjones/system-v1"
CURVES_FORMAT = "pbcjones/curves-v1"
REPORT_FORMAT = "pbcjones/report-v1"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# -- schema helpers -----------------------------------------------------


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise PbcJonesError(f"{where}: {what}")


def _vec3_list(obj, where: str) -> List[List[float]]:
    _expect(isinstance(obj, list) and len(obj) >= 2, where, "expected a list of [x, y, z] points")
    out = []
    for i, p in enumerate(obj):
        _expect(isinstance(p, list) and len(p) == 3, f"{where}[{i}]", "expected [x, y, z]")
        _expect(all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p),
                f"{where}[{i}]", "non-numeric coordinate")
        try:
            out.append([float(c) for c in p])
        except OverflowError:
            raise PbcJonesError(f"{where}[{i}]: coordinate out of range") from None
    return out


# -- PBC system files ---------------------------------------------------


def system_from_json_obj(obj) -> PBCSystem:
    _expect(isinstance(obj, dict), "system", "expected a JSON object")
    fmt = obj.get("format", SYSTEM_FORMAT)
    _expect(fmt == SYSTEM_FORMAT, "format", f"unsupported format {fmt!r}")
    _expect("cell" in obj, "system", "missing 'cell'")
    _expect("chains" in obj, "system", "missing 'chains'")
    cobj = obj["cell"]
    _expect(isinstance(cobj, dict), "cell", "expected an object")
    for key in ("basis", "periodic"):
        _expect(key in cobj, "cell", f"missing '{key}'")
    basis = cobj["basis"]
    _expect(isinstance(basis, list) and len(basis) == 3, "cell.basis", "expected 3 basis vectors")
    for i, row in enumerate(basis):
        _expect(isinstance(row, list) and len(row) == 3, f"cell.basis[{i}]", "expected [x, y, z]")
    periodic = cobj["periodic"]
    _expect(
        isinstance(periodic, list) and len(periodic) == 3
        and all(isinstance(b, bool) for b in periodic),
        "cell.periodic", "expected three booleans",
    )
    try:
        cell = Cell(basis, periodic, cobj.get("origin", (0.0, 0.0, 0.0)))
    except PbcJonesError as exc:
        raise PbcJonesError(f"cell: {exc}") from None
    chains_obj = obj["chains"]
    _expect(isinstance(chains_obj, list) and chains_obj, "chains", "expected a nonempty list")
    chains = []
    for k, ch in enumerate(chains_obj):
        where = f"chains[{k}]"
        _expect(isinstance(ch, dict), where, "expected an object")
        for key in ("id", "topology", "arcs"):
            _expect(key in ch, where, f"missing '{key}'")
        arcs_obj = ch["arcs"]
        _expect(isinstance(arcs_obj, list) and arcs_obj, f"{where}.arcs", "expected a nonempty list")
        arcs = [_vec3_list(a, f"{where}.arcs[{i}]") for i, a in enumerate(arcs_obj)]
        bp = ch.get("basepoint", [0, 0])
        _expect(isinstance(bp, list) and len(bp) == 2, f"{where}.basepoint", "expected [arc, vertex]")
        try:
            chains.append(GeneratingChain(str(ch["id"]), arcs, ch["topology"], (bp[0], bp[1])))
        except PbcJonesError as exc:
            raise PbcJonesError(f"{where}: {exc}") from None
    try:
        return PBCSystem(cell, chains)
    except PbcJonesError as exc:
        raise PbcJonesError(f"system: {exc}") from None


def system_to_json_obj(system: PBCSystem) -> dict:
    cell = system.cell
    return {
        "format": SYSTEM_FORMAT,
        "cell": {"basis": cell.basis.tolist(), "periodic": list(cell.periodic),
                 "origin": cell.origin.tolist()},
        "chains": [{"id": c.id, "topology": c.topology, "basepoint": list(c.basepoint),
                    "arcs": [a.tolist() for a in c.arcs]} for c in system.chains],
    }


def load_json(path: str):
    """Parse a JSON file; malformed content raises a PbcJonesError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise PbcJonesError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
        except UnicodeDecodeError as exc:
            raise PbcJonesError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_system(path: str) -> PBCSystem:
    obj = load_json(path)
    try:
        return system_from_json_obj(obj)
    except PbcJonesError as exc:
        raise PbcJonesError(f"{path}: {exc}") from None


def write_system(path: str, system: PBCSystem) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(system_to_json_obj(system)))


# -- bare curve collections ---------------------------------------------


def curves_from_json_obj(obj) -> List[Curve]:
    _expect(isinstance(obj, dict), "curves", "expected a JSON object")
    fmt = obj.get("format", CURVES_FORMAT)
    _expect(fmt == CURVES_FORMAT, "format", f"unsupported format {fmt!r}")
    _expect("curves" in obj, "curves", "missing 'curves'")
    lst = obj["curves"]
    _expect(isinstance(lst, list) and lst, "curves", "expected a nonempty list")
    out = []
    for k, c in enumerate(lst):
        where = f"curves[{k}]"
        _expect(isinstance(c, dict), where, "expected an object")
        for key in ("id", "closed", "vertices"):
            _expect(key in c, where, f"missing '{key}'")
        _expect(isinstance(c["closed"], bool), f"{where}.closed", "expected a boolean")
        verts = _vec3_list(c["vertices"], f"{where}.vertices")
        try:
            out.append(Curve(str(c["id"]), verts, c["closed"]))
        except (PbcJonesError, ValueError) as exc:
            raise PbcJonesError(f"{where}: {exc}") from None
    return out


def curves_to_json_obj(curves: Sequence[Curve]) -> dict:
    return {
        "format": CURVES_FORMAT,
        "curves": [
            {"id": c.id, "closed": c.closed, "vertices": c.vertices.tolist()}
            for c in curves
        ],
    }


def read_curves(path: str) -> List[Curve]:
    obj = load_json(path)
    try:
        return curves_from_json_obj(obj)
    except PbcJonesError as exc:
        raise PbcJonesError(f"{path}: {exc}") from None


def write_curves(path: str, curves: Sequence[Curve]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(curves_to_json_obj(curves)))


# -- MD trajectories ----------------------------------------------------


@dataclass(frozen=True)
class TrajectoryFrame:
    """One snapshot: box bounds plus atom ids, molecule ids, positions."""

    timestep: int
    bounds: np.ndarray  # (3, 2) lo/hi per axis
    ids: np.ndarray
    mols: np.ndarray
    positions: np.ndarray

    def chains(self) -> Dict[int, np.ndarray]:
        """Positions per molecule, ordered by ascending atom id."""
        out: Dict[int, np.ndarray] = {}
        order = np.argsort(self.ids, kind="stable")
        mols, pos = self.mols[order], self.positions[order]
        # return_index keeps np.unique from importing numpy.ma on its first call
        for m in np.unique(mols, return_index=True)[0]:
            out[int(m)] = pos[mols == m]
        return out


def _number(text: str, kind, where: str, what: str):
    """One int (that fits int64) or finite float field of a trajectory file."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not (abs(value) < 2 ** 63 if kind is int else math.isfinite(value)):
        raise PbcJonesError(f"{where}: bad {what} {text!r}")
    return value


def _finish_frame(timestep, bounds, rows, path, lineno) -> TrajectoryFrame:
    if bounds is None:
        raise PbcJonesError(f"{path}:{lineno}: frame {timestep} has no BOX BOUNDS")
    if not rows:
        raise PbcJonesError(f"{path}:{lineno}: frame {timestep} has no atoms")
    ids = np.array([r[0] for r in rows], dtype=np.int64)
    if len(np.unique(ids, return_index=True)[0]) != len(ids):
        raise PbcJonesError(f"{path}:{lineno}: duplicate atom ids in frame {timestep}")
    mols = np.array([r[1] for r in rows], dtype=np.int64)
    pos = np.array([r[2] for r in rows], dtype=float)
    return TrajectoryFrame(timestep, bounds, ids, mols, pos)


def _read_lammps_dump(path: str) -> List[TrajectoryFrame]:
    frames: List[TrajectoryFrame] = []
    timestep: Optional[int] = None
    bounds: Optional[np.ndarray] = None
    rows: List[Tuple[int, int, List[float]]] = []
    section = None
    columns: List[str] = []
    scaled = False
    pending_bounds: List[List[float]] = []
    declared: Optional[int] = None
    lineno = 0

    def close(lineno: int) -> None:
        nonlocal timestep, bounds, rows, declared
        if timestep is None:
            return
        if declared is not None and len(rows) != declared:
            raise PbcJonesError(
                f"{path}:{lineno}: frame {timestep} declares {declared} atoms, found {len(rows)}")
        frames.append(_finish_frame(timestep, bounds, rows, path, lineno))
        timestep, bounds, rows, declared = None, None, [], None

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("ITEM:"):
                tokens = line.split()
                head = tokens[1] if len(tokens) > 1 else ""
                if head in ("NUMBER", "BOX", "ATOMS") and timestep is None:
                    raise PbcJonesError(f"{where}: {line!r} comes before any TIMESTEP value")
                if head == "TIMESTEP":
                    close(lineno)
                    section = "timestep"
                elif head == "NUMBER":
                    section = "natoms"
                elif head == "BOX":
                    section = "box"
                    pending_bounds = []
                elif head == "ATOMS":
                    columns = tokens[2:]
                    if "mol" not in columns:
                        raise PbcJonesError(f"{where}: ATOMS columns lack molecule ids")
                    if "id" not in columns:
                        raise PbcJonesError(f"{where}: ATOMS columns lack atom ids")
                    if all(c in columns for c in ("x", "y", "z")):
                        scaled = False
                        names = ("x", "y", "z")
                    elif all(c in columns for c in ("xs", "ys", "zs")):
                        scaled = True
                        names = ("xs", "ys", "zs")
                    else:
                        raise PbcJonesError(
                            f"{where}: unknown atom columns {columns!r} "
                            "(need x y z or xs ys zs)")
                    section = ("atoms", columns.index("id"), columns.index("mol"),
                               tuple(columns.index(n) for n in names))
                else:
                    section = "skip"
                continue
            if section == "timestep":
                timestep = _number(line, int, where, "timestep")
                section = None
            elif section == "natoms":
                declared = _number(line, int, where, "atom count")
                section = None
            elif section == "box":
                parts = line.split()
                if len(parts) != 2:
                    raise PbcJonesError(
                        f"{where}: expected 'lo hi' box bounds, got {line!r}")
                lo, hi = (_number(t, float, where, "box bound") for t in parts)
                if not lo < hi:
                    raise PbcJonesError(
                        f"{where}: box bounds {line!r} are not 'lo hi' with lo < hi")
                pending_bounds.append([lo, hi])
                if len(pending_bounds) == 3:
                    bounds = np.array(pending_bounds, dtype=float)
                    section = None
            elif isinstance(section, tuple):
                _, i_id, i_mol, i_pos = section
                parts = line.split()
                if len(parts) != len(columns):
                    raise PbcJonesError(f"{where}: expected {len(columns)} columns")
                coords = [_number(parts[j], float, where, "coordinate") for j in i_pos]
                if scaled:
                    if bounds is None:
                        raise PbcJonesError(f"{where}: scaled coordinates before BOX BOUNDS")
                    coords = [lo + c * (hi - lo) for c, (lo, hi) in zip(coords, bounds.tolist())]
                    if not all(map(math.isfinite, coords)):
                        raise PbcJonesError(f"{where}: scaled coordinates overflow")
                rows.append((_number(parts[i_id], int, where, "atom id"),
                             _number(parts[i_mol], int, where, "molecule id"), coords))
    close(lineno)
    if not frames:
        raise PbcJonesError(f"{path}: no frames found")
    frames.sort(key=lambda f: f.timestep)
    return frames


def _read_xyz_mol(path: str) -> List[TrajectoryFrame]:
    """Minimal xyz variant: count, comment with 6 box numbers, 'mol x y z' rows."""
    frames: List[TrajectoryFrame] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            count = int(lines[i].strip())
        except ValueError:
            raise PbcJonesError(f"{path}:{i + 1}: expected an atom count") from None
        if i + 1 >= len(lines):
            raise PbcJonesError(f"{path}:{i + 1}: truncated frame")
        nums = []
        for tok in lines[i + 1].replace(",", " ").split():
            try:
                nums.append(float(tok))
            except ValueError:
                continue
        if len(nums) < 6:
            raise PbcJonesError(
                f"{path}:{i + 2}: comment line must carry box bounds 'xlo xhi ylo yhi zlo zhi'")
        bounds = np.array(nums[:6], dtype=float).reshape(3, 2)
        if not np.all(np.isfinite(bounds)):
            raise PbcJonesError(f"{path}:{i + 2}: box bounds must be finite")
        if not np.all(bounds[:, 0] < bounds[:, 1]):
            raise PbcJonesError(f"{path}:{i + 2}: box bounds must be 'lo hi' pairs with lo < hi")
        rows: List[Tuple[int, int, List[float]]] = []
        for k in range(count):
            ln = i + 2 + k
            if ln >= len(lines):
                raise PbcJonesError(f"{path}:{ln + 1}: truncated frame")
            parts = lines[ln].split()
            where = f"{path}:{ln + 1}"
            if len(parts) != 4:
                raise PbcJonesError(f"{where}: expected 'mol x y z' (molecule ids are required)")
            rows.append((k + 1, _number(parts[0], int, where, "molecule id"),
                         [_number(p, float, where, "coordinate") for p in parts[1:]]))
        frames.append(_finish_frame(len(frames), bounds, rows, path, i + 1))
        i += 2 + count
    if not frames:
        raise PbcJonesError(f"{path}: no frames found")
    return frames


TRAJECTORY_FORMATS = ("lammps-dump", "xyz-mol")


def read_trajectory(path: str, format: str = "lammps-dump") -> List[TrajectoryFrame]:
    readers = {"lammps-dump": _read_lammps_dump, "xyz-mol": _read_xyz_mol}
    if format not in readers:
        raise PbcJonesError(f"unknown trajectory format {format!r}")
    try:
        return readers[format](path)
    except UnicodeDecodeError as exc:
        raise PbcJonesError(f"{path}: not UTF-8 text ({exc.reason})") from None


# -- interior-chain selection -------------------------------------------


def unwrap_chain(points: np.ndarray, bounds: np.ndarray,
                 periodic: Sequence[bool] = (True, True, True)) -> np.ndarray:
    """Minimum-image unwrap: a step beyond half the box is an image jump."""
    out = np.array(points, dtype=float)
    with np.errstate(over="ignore"):
        lengths = bounds[:, 1] - bounds[:, 0]
        sizes_ok = np.all(np.isfinite(lengths)) and np.all(np.isfinite(np.diff(out, axis=0)))
    if not sizes_ok:
        raise PbcJonesError("box side or chain step too long to unwrap")
    for k in range(1, len(out)):
        d = out[k] - out[k - 1]
        for ax in range(3):
            if periodic[ax] and lengths[ax] > 0:
                d[ax] -= lengths[ax] * round(d[ax] / lengths[ax])
        out[k] = out[k - 1] + d
    return out


def select_interior_chains(frame: TrajectoryFrame,
                           periodic: Sequence[bool] = (True, True, True)) -> PBCSystem:
    """System of the chains whose unwrapped path stays strictly inside the box.

    The box is convex, so a chain is interior exactly when every
    unwrapped vertex is; chains touching a face are dropped.
    """
    basis = np.diag(frame.bounds[:, 1] - frame.bounds[:, 0])
    origin = frame.bounds[:, 0]
    chains: List[GeneratingChain] = []
    for mol, pts in sorted(frame.chains().items()):
        path = unwrap_chain(pts, frame.bounds, periodic)
        inside = np.all((path > frame.bounds[:, 0]) & (path < frame.bounds[:, 1]))
        if inside:
            chains.append(GeneratingChain(f"mol{mol}", [path], "open"))
    if not chains:
        warnings.warn("no interior chains in frame; system is empty", stacklevel=2)
    return PBCSystem(Cell(basis, list(periodic), origin), chains)


# -- analysis reports ---------------------------------------------------


@dataclass
class AnalysisReport:
    """What was computed, from what, with which knobs.

    Parameters capture everything needed to reproduce the run; results
    hold polynomials and derived quantities.  Serialization is canonical
    and carries no environment-dependent fields.
    """

    kind: str
    parameters: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        from . import __version__

        return {
            "format": REPORT_FORMAT,
            "generator": {"name": "pbcjones", "version": __version__},
            "kind": self.kind,
            "parameters": self.parameters,
            "results": self.results,
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_obj())


def _render_value(value, indent: str, lines: List[str]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, dict) and set(v) == {"mode", "coeffs"}:
                # serialized polynomial; the compact form reads better
                try:
                    lines.append(f"{indent}{k}: {LaurentPoly.from_json_obj(v)}")
                    continue
                except (PbcJonesError, ValueError, TypeError, KeyError):
                    pass
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                _render_value(v, indent + "  ", lines)
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            _render_value(v, indent, lines)
    else:
        lines.append(f"{indent}{value}")


def report_text(report: AnalysisReport) -> str:
    lines = [f"pbcjones {report.kind}"]
    if report.parameters:
        lines.append("parameters:")
        _render_value(report.parameters, "  ", lines)
    lines.append("results:")
    _render_value(report.results, "  ", lines)
    return "\n".join(lines) + "\n"
