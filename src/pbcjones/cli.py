"""Command-line interface.

Every subcommand emits an analysis report, as canonical JSON or
indented text.  Reports embed every option except the output options,
plus the values the command worked out from them, so a run can be
reproduced from its own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Dict, List, Optional

import numpy as np

from .errors import PbcJonesError, require_count
from .io_formats import (
    AnalysisReport,
    TRAJECTORY_FORMATS,
    load_json,
    read_curves,
    read_system,
    read_trajectory,
    report_text,
    select_interior_chains,
    write_system,
)
from .bracket import DEFAULT_CROSSING_CAP
from .jones3d import JonesResult, SamplingConfig, jones
from .laurent import LaurentPoly
from .pbc import (
    cell_curves,
    minimal_periodic_link,
    normalized,
    periodic_jones,
    search_basepoint,
    slk_p,
    with_basepoint,
)
from .cutoff import DEFAULT_ENUMERATE_CAP, verify_cutoff_factorization


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--directions", type=int,
                   help="number of projection directions (default %(default)s)")
    p.add_argument("--mode", choices=("fibonacci", "random"), help="direction sampling scheme")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--tolerance", type=float, help="genericity tolerance for projections")
    p.add_argument("--crossing-cap", type=int,
                   help="refuse diagrams with more crossings than this")
    p.add_argument("--on-cap", choices=("error", "skip"),
                   help="what to do when a diagram exceeds the crossing cap")
    p.add_argument("--prune", type=float, help="drop averaged coefficients below this magnitude")
    p.add_argument("--workers", type=int, help="worker processes for direction averaging")
    p.set_defaults(**dataclasses.asdict(SamplingConfig()))


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the report here instead of stdout")


def _config(args) -> SamplingConfig:
    require_count("--directions", args.directions, 1)
    require_count("--workers", args.workers, 1)
    require_count("--crossing-cap", args.crossing_cap, 0)
    return SamplingConfig(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(SamplingConfig)})


def _parameters(args, **worked_out) -> Dict[str, object]:
    """The report's parameters: every parsed option but the output ones,
    with the values the command worked out in place of those given."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "output", "out")}
    return {**params, **worked_out}


def _poly_results(res: JonesResult) -> Dict[str, object]:
    """The result record plus its display-only forms."""
    return {
        **res.to_json_obj(),
        "polynomial_str": str(res.poly),
        "span": res.poly.span,
        "min_exp": res.poly.min_exp,
        "max_exp": res.poly.max_exp,
    }


def _normalization_results(poly: LaurentPoly, n_components: int,
                           tol: float = 1e-9) -> Dict[str, object]:
    div = normalized(poly, n_components, zero_tol=tol)
    return {
        "components": n_components,
        "quotient": div.quotient.to_json_obj(),
        "quotient_str": str(div.quotient),
        "remainder": div.remainder.to_json_obj(),
        "remainder_str": str(div.remainder),
        "remainder_span": div.remainder_span,
        "remainder_is_zero": div.remainder_is_zero,
    }


def _emit(report: AnalysisReport, args) -> None:
    text = report.to_json() if args.output == "json" else report_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_direction(text: str) -> np.ndarray:
    try:
        parts = [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise PbcJonesError(f"--direction needs three components, e.g. '0.23,1,0.4', "
                            f"got {text!r}")
    return np.asarray(parts)


def _report_results(obj, path: str, what: str) -> Optional[dict]:
    """The ``results`` object when obj is a report, None when it is not one."""
    if not (isinstance(obj, dict) and "results" in obj):
        return None
    if not isinstance(obj["results"], dict):
        raise PbcJonesError(f"{path}: no {what} found: report 'results' is not an object")
    return obj["results"]


def _load_composition(path: str) -> Dict[str, List[List[int]]]:
    obj = load_json(path)
    results = _report_results(obj, path, "composition")
    if results is not None:
        obj = results.get("composition")
    if isinstance(obj, dict) and "composition" in obj:
        obj = obj["composition"]
    if not isinstance(obj, dict):
        raise PbcJonesError(f"{path}: no composition found")
    return obj


# -- subcommands --------------------------------------------------------


def _cmd_jones(args) -> None:
    cfg = _config(args)
    curves = read_curves(args.input)
    res = jones(curves, cfg)
    report = AnalysisReport("jones", _parameters(args), {
        **_poly_results(res),
        "component_count": len(curves),
        "closed_components": sum(c.closed for c in curves),
    })
    _emit(report, args)


def _cmd_cell_jones(args) -> None:
    cfg = _config(args)
    system = read_system(args.input)
    curves = cell_curves(system, tol=args.tolerance)
    if not curves:
        raise PbcJonesError(f"{args.input}: no arc lies inside the base cell")
    res = jones(curves, cfg)
    report = AnalysisReport("cell-jones", _parameters(args), {
        **_poly_results(res),
        "component_count": len(curves),
        "normalization": _normalization_results(res.poly, len(curves), args.tolerance),
    })
    _emit(report, args)


def _cmd_periodic_jones(args) -> None:
    cfg = _config(args)
    system = read_system(args.input)
    if args.basepoint_search:
        for chain in system.chains:
            if chain.topology == "infinite":
                system = with_basepoint(system, chain.id, search_basepoint(system, chain.id))
    frozen = _load_composition(args.frozen_components) if args.frozen_components else None
    res, link = periodic_jones(system, cfg, frozen)
    report = AnalysisReport("periodic-jones", _parameters(args), {
        **_poly_results(res),
        "component_count": link.component_count,
        "composition": {k: [list(v) for v in vs] for k, vs in link.composition.items()},
        "collective_unfolding": {
            "anchor": list(link.mcu.anchor),
            "dims": list(link.mcu.dims),
        },
        "normalization": _normalization_results(res.poly, link.component_count,
                                                args.tolerance),
    })
    _emit(report, args)


def _cmd_normalize(args) -> None:
    obj = load_json(args.input)
    components = args.components
    results = _report_results(obj, args.input, "polynomial")
    if results is not None:
        if components is None:
            components = results.get("component_count")
        obj = results.get("polynomial", obj)
    if isinstance(obj, dict) and "polynomial" in obj:
        obj = obj["polynomial"]
    try:
        poly = LaurentPoly.from_json_obj(obj)
    except PbcJonesError as exc:
        raise PbcJonesError(f"{args.input}: {exc}") from None
    if components is None:
        raise PbcJonesError("--components is required when the input carries no count")
    if isinstance(components, bool) or not isinstance(components, int):
        raise PbcJonesError(f"{args.input}: component_count must be an integer, "
                            f"got {components!r}")
    require_count("--components", components, 1)
    report = AnalysisReport("normalize", _parameters(args, components=components), {
        "polynomial": poly.to_json_obj(),
        "polynomial_str": str(poly),
        **_normalization_results(poly, components, args.tolerance),
    })
    _emit(report, args)


def _cmd_slk(args) -> None:
    require_count("--seed", args.seed, 0)
    system = read_system(args.input)
    if args.direction:
        xi = _parse_direction(args.direction)
    else:
        rng = np.random.default_rng(args.seed)
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
    link = minimal_periodic_link(system)
    value = slk_p(system, xi, link, axis=args.axis, tol=args.tolerance)
    report = AnalysisReport("slk", _parameters(args, direction=[float(c) for c in xi]), {
        "slk": str(value),
        "slk_float": float(value),
        "component_count": link.component_count,
        "unfolding_dims": list(link.mcu.dims),
    })
    _emit(report, args)


def _cmd_cutoff_verify(args) -> int:
    """Exit code 1 when any identity of the report fails."""
    require_count("--copies", args.copies, 1)
    require_count("--enumerate-cap", args.enumerate_cap, 0)
    require_count("--crossing-cap", args.crossing_cap, 0)
    system = read_system(args.input)
    xi = _parse_direction(args.direction) if args.direction else None
    rep = verify_cutoff_factorization(
        system, args.copies, xi=xi, tol=args.tolerance,
        enumerate_cap=args.enumerate_cap, crossing_cap=args.crossing_cap,
    )
    direction = None if xi is None else [float(c) for c in xi]
    report = AnalysisReport("cutoff-verify", _parameters(args, direction=direction),
                            rep.to_json_obj())
    _emit(report, args)
    return int(not (rep.writhe_identity_ok and rep.state_oracle_ok
                    and rep.sum_identity_ok and rep.factorization_ok))


def _cmd_ingest(args) -> None:
    frames = read_trajectory(args.input, args.format)
    if not 0 <= args.frame < len(frames):
        raise PbcJonesError(f"frame {args.frame} out of range (file has {len(frames)})")
    frame = frames[args.frame]
    system = select_interior_chains(frame)
    if not system.chains:
        raise PbcJonesError(f"frame {args.frame} has no interior chains; no system written")
    write_system(args.system_out, system)
    report = AnalysisReport("ingest", _parameters(args), {
        "timestep": frame.timestep,
        "box": [[float(b) for b in row] for row in frame.bounds],
        "molecules": int(len(frame.chains())),
        "chains_kept": len(system.chains),
        "chain_ids": [c.id for c in system.chains],
    })
    _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbcjones",
        description="Jones polynomials of open/closed curves and periodic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jones", help="Jones polynomial of a curve collection")
    p.add_argument("input", help="curves JSON file")
    _add_sampling_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_jones)

    p = sub.add_parser("cell-jones", help="Jones polynomial of the arcs in the base cell")
    p.add_argument("input", help="system JSON file")
    _add_sampling_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_cell_jones)

    p = sub.add_parser("periodic-jones", help="Jones polynomial of the minimal periodic link")
    p.add_argument("input", help="system JSON file")
    _add_sampling_flags(p)
    _add_output_flags(p)
    p.add_argument("--frozen-components", metavar="FILE", default=None,
                   help="reuse the link composition from a previous report")
    p.add_argument("--basepoint-search", action="store_true",
                   help="pick infinite-chain basepoints maximizing component count")
    p.set_defaults(func=_cmd_periodic_jones)

    p = sub.add_parser("normalize", help="divide a polynomial by the trivial-link value")
    p.add_argument("input", help="polynomial or report JSON file")
    p.add_argument("--components", type=int, default=None,
                   help="component count n; divides by the (n-1)-th power")
    p.add_argument("--tolerance", type=float, default=1e-9)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("slk", help="periodic self-linking number")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--direction", default=None, help="projection direction 'x,y,z'")
    p.add_argument("--axis", type=int, default=None,
                   help="restrict translates to one axis (0, 1 or 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_slk)

    p = sub.add_parser("cutoff-verify", help="check the cutoff factorization identity")
    p.add_argument("input", help="system JSON file (single closed chain, one periodic axis)")
    p.add_argument("--copies", type=int, required=True, help="number of stacked copies N")
    p.add_argument("--direction", default=None, help="projection direction 'x,y,z'")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--enumerate-cap", type=int, default=DEFAULT_ENUMERATE_CAP,
                   help="max shared crossings for full state enumeration")
    p.add_argument("--crossing-cap", type=int, default=DEFAULT_CROSSING_CAP)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_cutoff_verify)

    p = sub.add_parser("ingest", help="extract interior chains from a trajectory frame")
    p.add_argument("input", help="trajectory file")
    p.add_argument("--format", choices=TRAJECTORY_FORMATS, default="lammps-dump")
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--system-out", metavar="FILE", required=True,
                   help="write the resulting system JSON here")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0  # only cutoff-verify returns a code of its own
    except (PbcJonesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
