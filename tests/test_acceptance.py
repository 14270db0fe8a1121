"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with -s to see the per-criterion lines; every check asserts, so a
plain pytest run reports the same outcomes as PASSED/FAILED tests.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from pbcjones.bracket import bracket
from pbcjones.cli import main
from pbcjones.cutoff import verify_cutoff_factorization
from pbcjones.fixtures import (chainmail_system, hopf_link, melt_dump_text,
                               open_trefoil, trefoil, unlinked_circles)
from pbcjones.geometry import Curve, sample_directions
from pbcjones.jones3d import SamplingConfig, jones, project_generic
from pbcjones.laurent import LaurentPoly, d_power, divide_by_d_power
from pbcjones.pbc import (cell_curves, link_curves, minimal_periodic_link,
                          normalized, slk_p)

COHERENT_XI = np.array([-0.632398, -0.322856, -0.704156])
COHERENT_XI = COHERENT_XI / np.linalg.norm(COHERENT_XI)

HOPF_NEG = LaurentPoly({-2: -1, -10: -1})
HOPF_POS = LaurentPoly({2: -1, 10: -1})
TREFOIL_POLY = LaurentPoly({4: 1, 12: 1, 16: -1})


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _closed_jones(curves, xi):
    diagram, _, _ = project_generic(curves, xi, 1e-9)
    w = diagram.writhe
    return LaurentPoly.monomial(-1 if w % 2 else 1, -3 * w) * bracket(diagram, 48).poly


def _torus_two_strand(q: int, n: int) -> Curve:
    # odd q keeps the closed parametrization embedded (even q retraces)
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    r = 3.0 + np.cos(q * ts)
    pts = np.column_stack([r * np.cos(2 * ts), r * np.sin(2 * ts), np.sin(q * ts)])
    return Curve(f"twist{q}", pts, True)


def test_criterion_01_hopf_exactness():
    t0 = time.monotonic()
    res = jones(list(hopf_link()), SamplingConfig())
    res_rev = jones(list(hopf_link(reverse_second=True)), SamplingConfig())
    dt = time.monotonic() - t0
    ok = (res.exact and res_rev.exact
          and res.poly == HOPF_NEG and res_rev.poly == HOPF_POS
          and dt < 1.0)
    _report(1, "hopf-exactness", ok,
            f"{res.poly} and {res_rev.poly} in {dt:.2f}s")


def test_criterion_02_normalization_fidelity():
    t0 = time.monotonic()
    pos = divide_by_d_power(HOPF_POS, 1)
    neg = divide_by_d_power(HOPF_NEG, 1)
    dt = time.monotonic() - t0
    ok = (pos.quotient == LaurentPoly({8: 1, 4: -1, 0: 2})
          and pos.remainder == LaurentPoly({-2: 2})
          and neg.quotient == LaurentPoly.zero()
          and neg.remainder == HOPF_NEG
          and dt < 1.0)
    _report(2, "normalization-fidelity", ok,
            f"quotients ({pos.quotient}) / ({neg.quotient}), "
            f"remainders ({pos.remainder}) / ({neg.remainder}) in {dt:.2f}s")


def test_criterion_03_trivial_link_law():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 6):
        res = jones(list(unlinked_circles(n)), SamplingConfig())
        div = normalized(res.poly, n)
        ok = ok and res.exact and res.poly == d_power(n - 1) \
            and div.quotient == LaurentPoly.one() and div.remainder_is_zero
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    _report(3, "trivial-link-law", ok, f"n=1..5 all d^(n-1) in {dt:.2f}s")


def test_criterion_04_trefoil_cross_validation():
    t0 = time.monotonic()
    values = {_closed_jones([trefoil()], xi)
              for xi in sample_directions(20, "random", seed=5)}
    dt = time.monotonic() - t0
    ok = values == {TREFOIL_POLY} and dt < 5.0
    _report(4, "trefoil-cross-validation", ok,
            f"20 directions agree on {TREFOIL_POLY} in {dt:.2f}s")


def test_criterion_05_cutoff_factorization():
    t0 = time.monotonic()
    system = chainmail_system()
    ok = True
    details = []
    for n in (1, 2, 3):
        rep = verify_cutoff_factorization(system, n, xi=COHERENT_XI)
        cells_ok = rep.cell_count == (2 * n - 1) * 2 - (n - 1)
        ok = ok and cells_ok and rep.shared_crossings <= 16 \
            and rep.writhe_identity_ok and rep.state_oracle_ok \
            and rep.sum_identity_ok and rep.factorization_ok
        details.append(f"N={n} cells={rep.cell_count} shared={rep.shared_crossings}")
    dt = time.monotonic() - t0
    ok = ok and dt < 60.0
    _report(5, "cutoff-factorization", ok,
            "; ".join(details) + f" all identities exact in {dt:.2f}s")


def test_criterion_06_textile_comparison():
    from pbcjones.fixtures import jersey_system, twill_system

    t0 = time.monotonic()
    cfg = SamplingConfig(directions=500, mode="fibonacci", seed=0,
                         crossing_cap=64, prune=1e-3, on_cap="skip")
    stats = {}
    for name, system in (("jersey", jersey_system()), ("twill", twill_system())):
        cc = cell_curves(system)
        res_c = jones(cc, cfg)
        link = minimal_periodic_link(system)
        res_p = jones(link_curves(link), cfg)
        stats[name] = {
            "components": link.component_count,
            "cell_span": res_c.poly.span,
            "periodic_span": res_p.poly.span,
            "cell_rem": normalized(res_c.poly, len(cc)).remainder_span,
            "periodic_rem": normalized(res_p.poly, link.component_count).remainder_span,
        }
    dt = time.monotonic() - t0
    j, t = stats["jersey"], stats["twill"]
    ok = (j["components"] == 8 and t["components"] == 3
          and j["cell_span"] > t["cell_span"]
          and j["periodic_span"] > t["periodic_span"]
          and j["cell_rem"] > t["cell_rem"]
          and j["periodic_rem"] > t["periodic_rem"]
          and dt < 1800.0)
    _report(6, "textile-comparison", ok,
            f"components 8/3; spans cell {j['cell_span']}/{t['cell_span']}, "
            f"periodic {j['periodic_span']}/{t['periodic_span']}, remainder "
            f"{j['periodic_rem']}/{t['periodic_rem']}; jersey strictly above "
            f"twill throughout in {dt:.1f}s")


def test_criterion_07_open_closed_continuity():
    t0 = time.monotonic()
    exact = {e: float(c) for e, c in TREFOIL_POLY.terms()}
    dists = []
    for gap in (0.5, 0.1, 0.02):
        cfg = SamplingConfig(directions=2000, mode="fibonacci", seed=0,
                             prune=0.0)
        res = jones([open_trefoil(gap)], cfg)
        coeffs = dict(res.poly.terms())
        exps = set(coeffs) | set(exact)
        dists.append(max(abs(float(coeffs.get(e, 0.0)) - exact.get(e, 0.0))
                         for e in exps))
    dt = time.monotonic() - t0
    ok = dists[0] > dists[1] > dists[2] and dists[2] < 0.05 and dt < 600.0
    _report(7, "open-closed-continuity", ok,
            "Linf to closed trefoil " + " > ".join(f"{d:.4f}" for d in dists)
            + f", final < 0.05, in {dt:.1f}s")


def test_criterion_08_periodic_self_linking():
    from oracles import gauss_linking

    t0 = time.monotonic()
    system = chainmail_system()
    link = minimal_periodic_link(system)
    values = [slk_p(system, xi, link)
              for xi in sample_directions(20, "random", seed=9)]
    period = 2 * link.mcu.dims[0] - 1
    gauss = 0.0
    for v in (-2, -1, 1, 2):
        off = system.cell.translation((v * period, 0, 0))
        for a in link.images:
            for b in link.images:
                gauss += gauss_linking(a.polyline, b.polyline + off)
    dt = time.monotonic() - t0
    ok = (all(v == Fraction(2) for v in values)
          and abs(gauss - 2.0) < 1e-6 and dt < 10.0)
    _report(8, "periodic-self-linking", ok,
            f"slk=+2 at 20 directions, Gauss integral {gauss:.6f}, in {dt:.2f}s")


def test_criterion_09_determinism_and_performance():
    t0 = time.monotonic()
    runs = []
    for workers in (1, 2, 5):
        cfg = SamplingConfig(directions=30, mode="random", seed=3,
                             workers=workers)
        runs.append(jones([open_trefoil(0.3)], cfg).poly.to_json_obj())
    same = runs[0] == runs[1] == runs[2]

    xi = np.array([0.03, 0.05, 1.0])
    xi = xi / np.linalg.norm(xi)
    small, _, _ = project_generic([_torus_two_strand(11, 160)], xi, 1e-9)
    t_small = time.monotonic()
    bracket(small, 48)
    t_small = time.monotonic() - t_small
    big, _, _ = project_generic([_torus_two_strand(23, 260)], xi, 1e-9)
    t_big = time.monotonic()
    bracket(big, 48)
    t_big = time.monotonic() - t_big
    dt = time.monotonic() - t0
    ok = (same and len(small.crossings) <= 12 and t_small < 1.0
          and len(big.crossings) <= 24 and t_big < 60.0)
    _report(9, "determinism-and-performance", ok,
            f"workers 1/2/5 identical; {len(small.crossings)} crossings in "
            f"{t_small:.3f}s, {len(big.crossings)} crossings in {t_big:.3f}s "
            f"(total {dt:.1f}s)")


def test_criterion_10_polymer_pipeline(tmp_path, capsys):
    t0 = time.monotonic()
    dump = tmp_path / "melt.dump"
    dump.write_text(melt_dump_text())
    system_path = tmp_path / "system.json"
    per_path = tmp_path / "periodic.json"
    cell_path = tmp_path / "cell.json"

    rc_ingest = main(["ingest", str(dump), "--system-out", str(system_path)])
    rc_per = main(["periodic-jones", str(system_path), "--directions", "40",
                   "--out", str(per_path)])
    rc_cell = main(["cell-jones", str(system_path), "--directions", "40",
                    "--out", str(cell_path)])
    capsys.readouterr()
    per = json.loads(per_path.read_text())
    cell = json.loads(cell_path.read_text())
    agree = per["results"]["polynomial"] == cell["results"]["polynomial"]
    meta = all(k in per["parameters"] for k in
               ("input", "directions", "mode", "seed", "tolerance",
                "crossing_cap", "on_cap", "prune", "workers"))
    dt = time.monotonic() - t0
    ok = (rc_ingest == 0 and rc_per == 0 and rc_cell == 0
          and per["results"]["component_count"] == 7
          and agree and meta)
    _report(10, "polymer-pipeline", ok,
            f"ingest -> periodic-jones over 40 directions; cell and periodic "
            f"polynomials identical for 7 interior chains, reports carry the "
            f"full parameter set, in {dt:.1f}s")
