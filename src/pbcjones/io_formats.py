"""File formats: system/curve JSON, trajectory ingestion, reports.

JSON writing is canonical (sorted keys, fixed separators, trailing
newline) so identical content always produces identical bytes.  Reports
deliberately carry no timestamps or host details; two runs with the same
inputs and parameters serialize to the same bytes.

Readers raise PbcJonesError for any bad input, naming the file and,
where one line is at fault, that line.  A JSON file past the parser's
integer-digit or nesting limit is invalid JSON.  A cell's basis rows and
origin take the point check of arc vertices, so a string or a bool never
passes as a number.  The LAMMPS reader makes one streaming pass and
keeps one record for the open frame.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import PbcJonesError, too_many_digits
from .geometry import Curve
from .laurent import LaurentPoly
from .pbc import Cell, GeneratingChain, PBCSystem

SYSTEM_FORMAT = "pbcjones/system-v1"
CURVES_FORMAT = "pbcjones/curves-v1"
REPORT_FORMAT = "pbcjones/report-v1"


def canonical_dumps(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    except ValueError:  # the only one json.dumps raises here: an int past the digit limit
        raise too_many_digits() from None


# -- schema helpers -----------------------------------------------------


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise PbcJonesError(f"{where}: {what}")


def _vec3(p, where: str) -> List[float]:
    """One [x, y, z] point of JSON numbers (not bools) within float range."""
    _expect(isinstance(p, list) and len(p) == 3, where, "expected [x, y, z]")
    _expect(all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p),
            where, "non-numeric coordinate")
    try:
        return [float(c) for c in p]
    except OverflowError:
        raise PbcJonesError(f"{where}: coordinate out of range") from None


def _vec3_list(obj, where: str) -> List[List[float]]:
    _expect(isinstance(obj, list) and len(obj) >= 2, where, "expected a list of [x, y, z] points")
    return [_vec3(p, f"{where}[{i}]") for i, p in enumerate(obj)]


def _cell_vec3(p, where: str, rule: str) -> List[float]:
    """A cell row or origin through the point check, reported under the cell's rule."""
    try:
        return _vec3(p, where)
    except PbcJonesError as exc:
        raise PbcJonesError(f"cell: {rule} ({exc})") from None


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
    basis = [_cell_vec3(row, f"cell.basis[{i}]", "cell basis must be a 3x3 matrix of numbers")
             for i, row in enumerate(basis)]
    origin = _cell_vec3(cobj.get("origin", [0.0, 0.0, 0.0]), "cell.origin",
                        "cell origin must be 3 finite coordinates")
    periodic = cobj["periodic"]
    _expect(
        isinstance(periodic, list) and len(periodic) == 3
        and all(isinstance(b, bool) for b in periodic),
        "cell.periodic", "expected three booleans",
    )
    try:
        cell = Cell(basis, periodic, origin)
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
        except (ValueError, RecursionError) as exc:  # past the int digit or nesting limit
            raise PbcJonesError(f"{path}: invalid JSON ({exc})") from None


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


@dataclass
class _DumpFrame:
    """The open frame of a LAMMPS dump, from its ITEM: TIMESTEP line on.

    A frame whose TIMESTEP item never got its value (it is followed by an
    unknown ITEM) is dropped, as is the record the reader starts with.
    """

    start: int  # line of its ITEM: TIMESTEP
    timestep: Optional[int] = None
    declared: Optional[Tuple[int, int]] = None  # NUMBER OF ATOMS value and its line
    box: List[List[float]] = field(default_factory=list)  # rows of its latest BOX BOUNDS
    bounds: Optional[np.ndarray] = None  # the last BOX BOUNDS that had all three rows
    rows: List[Tuple[int, int, List[float]]] = field(default_factory=list)

    def close(self, path: str, frames: List[TrajectoryFrame]) -> None:
        """Check the frame as a whole and append it to frames."""
        if self.timestep is None:
            return
        if self.declared is not None and self.declared[0] != len(self.rows):
            count, lineno = self.declared
            raise PbcJonesError(f"{path}:{lineno}: frame {self.timestep} declares {count} "
                                f"atoms, found {len(self.rows)}")
        frames.append(_finish_frame(self.timestep, self.bounds, self.rows, path, self.start))


def _atoms_layout(columns: List[str], where: str):
    """Column count, id and mol indices, position indices and scaling of an ATOMS item."""
    if "mol" not in columns:
        raise PbcJonesError(f"{where}: ATOMS columns lack molecule ids")
    if "id" not in columns:
        raise PbcJonesError(f"{where}: ATOMS columns lack atom ids")
    for names, scaled in ((("x", "y", "z"), False), (("xs", "ys", "zs"), True)):
        if all(c in columns for c in names):
            return (len(columns), columns.index("id"), columns.index("mol"),
                    tuple(columns.index(n) for n in names), scaled)
    raise PbcJonesError(f"{where}: unknown atom columns {columns!r} (need x y z or xs ys zs)")


def _atom_row(line: str, layout, bounds: Optional[np.ndarray], where: str):
    """(atom id, molecule id, [x, y, z]) of an ATOMS data line; scaled positions fill the box."""
    width, i_id, i_mol, i_pos, scaled = layout
    parts = line.split()
    if len(parts) != width:
        raise PbcJonesError(f"{where}: expected {width} columns")
    coords = [_number(parts[j], float, where, "coordinate") for j in i_pos]
    if scaled:
        if bounds is None:
            raise PbcJonesError(f"{where}: scaled coordinates before BOX BOUNDS")
        coords = [lo + c * (hi - lo) for c, (lo, hi) in zip(coords, bounds.tolist())]
        if not all(map(math.isfinite, coords)):
            raise PbcJonesError(f"{where}: scaled coordinates overflow")
    return (_number(parts[i_id], int, where, "atom id"),
            _number(parts[i_mol], int, where, "molecule id"), coords)


def _read_lammps_dump(path: str) -> List[TrajectoryFrame]:
    """Frames of a LAMMPS text dump, read in one pass, sorted by timestep.

    A data line means what its ITEM and its place among that ITEM's data
    lines say: the first after TIMESTEP or NUMBER OF ATOMS, the first
    three after BOX BOUNDS and every one after ATOMS.  All other lines,
    blank ones and those of unknown ITEMs among them, are skipped.  A
    frame is checked as a whole when the next one starts or the file ends:
    a wrong atom count names its NUMBER OF ATOMS value line, and no box,
    no atoms or duplicate atom ids name its ITEM: TIMESTEP line.
    """
    frames: List[TrajectoryFrame] = []
    frame = _DumpFrame(0)
    head, n, layout = None, 0, None  # the current ITEM, its data lines so far, its columns
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("ITEM:"):
                tokens = line.split()
                head, n = (tokens[1] if len(tokens) > 1 else ""), 0
                if head == "TIMESTEP":
                    frame.close(path, frames)
                    frame = _DumpFrame(lineno)
                elif head in ("NUMBER", "BOX", "ATOMS") and frame.timestep is None:
                    raise PbcJonesError(f"{where}: {line!r} comes before any TIMESTEP value")
                elif head == "ATOMS":
                    layout = _atoms_layout(tokens[2:], where)
                continue
            n += 1
            if head == "ATOMS":
                frame.rows.append(_atom_row(line, layout, frame.bounds, where))
            elif head == "TIMESTEP" and n == 1:
                frame.timestep = _number(line, int, where, "timestep")
            elif head == "NUMBER" and n == 1:
                frame.declared = (_number(line, int, where, "atom count"), lineno)
            elif head == "BOX" and n <= 3:
                parts = line.split()
                if len(parts) != 2:
                    raise PbcJonesError(
                        f"{where}: expected 'lo hi' box bounds, got {line!r}")
                lo, hi = (_number(t, float, where, "box bound") for t in parts)
                if not lo < hi:
                    raise PbcJonesError(
                        f"{where}: box bounds {line!r} are not 'lo hi' with lo < hi")
                frame.box[n - 1:] = [[lo, hi]]
                if n == 3:
                    frame.bounds = np.array(frame.box, dtype=float)
    frame.close(path, frames)
    if not frames:
        raise PbcJonesError(f"{path}: no frames found")
    frames.sort(key=lambda f: f.timestep)
    return frames


def _read_xyz_mol(path: str) -> List[TrajectoryFrame]:
    """Minimal xyz variant: count, comment with 6 box numbers, 'mol x y z' rows."""
    frames: List[TrajectoryFrame] = []
    with open(path, "r", encoding="utf-8") as fh:
        # lines end only at \n, \r and \r\n, as in the LAMMPS reader;
        # str.splitlines would also end them at form feeds and other separators
        lines = fh.readlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            count = int(lines[i].strip())
        except ValueError:
            raise PbcJonesError(f"{path}:{i + 1}: expected an atom count") from None
        if i + 2 + max(count, 0) > len(lines):
            raise PbcJonesError(f"{path}:{i + 1}: truncated frame: {count} atoms declared")
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
            parts = lines[i + 2 + k].split()
            where = f"{path}:{i + 3 + k}"
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
                except PbcJonesError:
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
