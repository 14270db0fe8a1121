"""End-to-end CLI runs through main(), checking exit codes and reports."""

import json
import math
import time

import numpy as np
import pytest

from pbcjones.cli import main
from pbcjones.fixtures import (chainmail_system, hopf_link, jersey_system, melt_dump_text,
                               open_trefoil)
from pbcjones.geometry import Curve
from pbcjones.io_formats import write_curves, write_system
from pbcjones.laurent import LaurentPoly, d_power
from pbcjones.pbc import Cell, GeneratingChain, PBCSystem

COHERENT = "-0.632398,-0.322856,-0.704156"
MELT = melt_dump_text()
# an 11-line frame: the timestep, the declared count, and then two atoms with these ids
FRAME = ("ITEM: TIMESTEP\n{}\nITEM: NUMBER OF ATOMS\n{}\nITEM: BOX BOUNDS pp pp pp\n"
         "0 10\n0 10\n0 10\nITEM: ATOMS id mol x y z\n{} 1 1 1 1\n{} 1 2 1 1\n")
BOX_ONLY = "ITEM: TIMESTEP\n7\nITEM: BOX BOUNDS pp pp pp\n0 10\n0 10\n0 10\n"


@pytest.fixture
def hopf_file(tmp_path):
    path = tmp_path / "hopf.json"
    write_curves(str(path), list(hopf_link()))
    return str(path)


@pytest.fixture
def chainmail_file(tmp_path):
    path = tmp_path / "chainmail.json"
    write_system(str(path), chainmail_system())
    return str(path)


def run_json(capsys, argv, rc=0):
    assert main(argv) == rc
    out = capsys.readouterr().out
    return json.loads(out)


class TestJones:
    def test_closed_link_is_exact(self, hopf_file, capsys):
        obj = run_json(capsys, ["jones", hopf_file])
        assert obj["kind"] == "jones"
        assert obj["results"]["exact"] is True
        assert obj["results"]["directions_used"] == 1
        poly = LaurentPoly.from_json_obj(obj["results"]["polynomial"])
        assert poly == LaurentPoly({-2: -1, -10: -1})
        assert obj["parameters"]["input"] == hopf_file
        assert obj["parameters"]["seed"] == 0

    def test_open_curve_averages(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        write_curves(str(path), [open_trefoil(0.5)])
        obj = run_json(capsys, ["jones", str(path), "--directions", "8"])
        res = obj["results"]
        assert res["exact"] is False
        assert res["directions_used"] == 8
        assert res["polynomial"]["mode"] == "float"

    def test_text_output(self, hopf_file, capsys):
        assert main(["jones", hopf_file, "--output", "text"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pbcjones jones\n")
        assert "polynomial: " in out
        assert "coeffs" not in out

    def test_out_file(self, hopf_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main(["jones", hopf_file, "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        obj = json.loads(dest.read_text())
        assert obj["kind"] == "jones"

    def test_worker_count_changes_nothing_with_retried_directions(self, tmp_path, capsys):
        # a planar zigzag seen edge-on along the sample's one horizontal
        # direction (index 4 of 9) must be nudged before it projects
        path = tmp_path / "flat.json"
        zigzag = [[9, 0, 0], [10, 1, 0], [11, 0, 0], [12, 1, 0], [13, 0, 0]]
        write_curves(str(path), [Curve("z", zigzag, False), open_trefoil(0.3)])
        reports = []
        for workers in ("1", "2"):
            obj = run_json(capsys, ["jones", str(path), "--directions", "9",
                                    "--workers", workers])
            reports.append((obj["results"], {k: v for k, v in obj["parameters"].items()
                                             if k != "workers"}))
        assert reports[0] == reports[1]
        assert reports[0][0]["retries"] >= 1

    def test_worker_error_exits_as_in_process(self, tmp_path, capsys):
        # a jersey direction exceeds the default crossing cap in a worker process
        path = tmp_path / "jersey.json"
        write_system(str(path), jersey_system())
        errors = []
        for workers in ("1", "2"):
            assert main(["periodic-jones", str(path), "--directions", "200",
                         "--workers", workers]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: diagram has 59 crossings, exceeding the cap of 48")

    def test_runs_are_reproducible(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        write_curves(str(path), [open_trefoil(0.3)])
        argv = ["jones", str(path), "--directions", "6", "--mode", "random",
                "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_missing_input(self, capsys):
        assert main(["jones", "/nonexistent/curves.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["jones", "cell-jones", "periodic-jones"])
    @pytest.mark.parametrize("flag,value", [("--directions", "0"), ("--directions", "-3"),
                                            ("--workers", "0"), ("--workers", "-1")])
    def test_sampling_counts_below_one_rejected(self, command, flag, value, hopf_file,
                                                chainmail_file, capsys):
        path = hopf_file if command == "jones" else chainmail_file
        assert main([command, path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be at least 1, got {value}\n"


class TestCellJones:
    def test_report_shape(self, chainmail_file, capsys):
        obj = run_json(capsys, ["cell-jones", chainmail_file, "--directions", "5"])
        res = obj["results"]
        assert res["component_count"] == 1
        assert "normalization" in res
        assert res["normalization"]["components"] == 1

    def test_no_arc_inside_the_cell(self, tmp_path, capsys):
        path = tmp_path / "outside.json"
        cell = Cell(np.eye(3), (True, False, False))
        chain = GeneratingChain("c", [np.array([[2.2, 0.5, 0.5], [3.2, 0.5, 0.5]])], "infinite")
        write_system(str(path), PBCSystem(cell, [chain]))
        assert main(["cell-jones", str(path), "--directions", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: no arc lies inside the base cell\n"


class TestPeriodicJones:
    def test_chainmail_link(self, chainmail_file, capsys):
        obj = run_json(capsys, ["periodic-jones", chainmail_file])
        res = obj["results"]
        assert res["exact"] is True
        assert res["component_count"] == 3
        assert res["collective_unfolding"]["dims"] == [2, 1, 1]
        assert sorted(tuple(v) for v in res["composition"]["ring"]) == \
            [(-1, 0, 0), (0, 0, 0), (1, 0, 0)]
        norm = res["normalization"]
        assert norm["components"] == 3
        quot = LaurentPoly.from_json_obj(norm["quotient"])
        rem = LaurentPoly.from_json_obj(norm["remainder"])
        poly = LaurentPoly.from_json_obj(res["polynomial"])
        assert quot * d_power(2) + rem == poly

    def test_frozen_components_reuse(self, chainmail_file, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        assert main(["periodic-jones", chainmail_file, "--out", str(ref)]) == 0
        obj = run_json(capsys, ["periodic-jones", chainmail_file,
                                "--frozen-components", str(ref)])
        base = json.loads(ref.read_text())
        assert obj["results"]["polynomial"] == base["results"]["polynomial"]
        assert obj["parameters"]["frozen_components"] == str(ref)


class TestNormalize:
    def test_from_report(self, chainmail_file, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        assert main(["periodic-jones", chainmail_file, "--out", str(ref)]) == 0
        obj = run_json(capsys, ["normalize", str(ref)])
        base = json.loads(ref.read_text())
        assert obj["results"]["quotient"] == base["results"]["normalization"]["quotient"]
        assert obj["parameters"]["components"] == 3

    def test_zero_tolerance_keeps_tiny_float_terms(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text('{"mode": "float", "coeffs": {"0": 1.0, "2": 5e-13}}')
        obj = run_json(capsys, ["normalize", str(path), "--components", "1",
                                "--tolerance", "0"])
        assert obj["results"]["polynomial"]["coeffs"] == {"0": 1.0, "2": 5e-13}
        assert obj["results"]["quotient"]["coeffs"] == {"0": 1.0, "2": 5e-13}

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_coefficients_beyond_float_range_and_fractions(self, output, tmp_path, capsys):
        big = 10**400  # 401 digits
        path = tmp_path / "poly.json"
        path.write_text('{"coeffs": {"0": %d, "2": "1/3", "4": -%d}}' % (big, big))
        assert main(["normalize", str(path), "--components", "1", "--output", output]) == 0
        out = capsys.readouterr().out
        assert f"{big} + 1/3*A^2 - {big}*A^4" in out

    def test_bare_polynomial_needs_count(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(LaurentPoly({-2: -1, -10: -1}).to_json_obj()))
        obj = run_json(capsys, ["normalize", str(path), "--components", "2"])
        assert obj["results"]["quotient_str"] == "0"
        assert main(["normalize", str(path)]) == 2
        assert "--components" in capsys.readouterr().err


class TestSlk:
    def test_chainmail_value(self, chainmail_file, capsys):
        obj = run_json(capsys, ["slk", chainmail_file])
        assert obj["results"]["slk"] == "2"
        assert obj["results"]["slk_float"] == 2.0
        assert obj["results"]["unfolding_dims"] == [2, 1, 1]

    def test_explicit_direction(self, chainmail_file, capsys):
        obj = run_json(capsys, ["slk", chainmail_file, "--direction=" + COHERENT])
        assert obj["results"]["slk"] == "2"
        xi = np.asarray(obj["parameters"]["direction"])
        assert np.allclose(xi, [-0.632398, -0.322856, -0.704156])

    def test_malformed_direction(self, chainmail_file, capsys):
        assert main(["slk", chainmail_file, "--direction", "1,2"]) == 2
        assert "three components" in capsys.readouterr().err


class TestCutoffVerify:
    def test_coherent_direction_passes(self, chainmail_file, capsys):
        obj = run_json(capsys, ["cutoff-verify", chainmail_file, "--copies", "2",
                                "--direction=" + COHERENT])
        res = obj["results"]
        assert res["factorization_ok"] is True
        assert res["disconnecting_unique_ok"] is True
        assert res["shared_crossings"] == 2
        assert res["slk"] == "2"

    def test_failed_identity_returns_one(self, chainmail_file, capsys):
        # main returns the code rather than raising SystemExit
        assert main(["cutoff-verify", chainmail_file, "--copies", "2",
                     "--direction", "0.05,0.1,1"]) == 1
        assert json.loads(capsys.readouterr().out)["results"]["factorization_ok"] is False

    def test_enumeration_cap_exits_nonzero(self, chainmail_file, capsys):
        rc = main(["cutoff-verify", chainmail_file, "--copies", "2",
                   "--direction=" + COHERENT, "--enumerate-cap", "1"])
        assert rc == 2
        assert "enumeration cap" in capsys.readouterr().err


class TestIngest:
    def test_melt_pipeline(self, tmp_path, capsys):
        dump = tmp_path / "melt.dump"
        dump.write_text(melt_dump_text())
        system_path = tmp_path / "system.json"
        obj = run_json(capsys, ["ingest", str(dump),
                                "--system-out", str(system_path)])
        assert obj["results"]["chains_kept"] == 7
        assert obj["results"]["molecules"] == 7
        assert system_path.exists()

        run = run_json(capsys, ["periodic-jones", str(system_path),
                                "--directions", "3"])
        assert run["results"]["directions_used"] == 3
        assert run["results"]["component_count"] >= 7

    def test_frame_without_interior_chains_writes_nothing(self, tmp_path, capsys):
        # one molecule whose two atoms sit on opposite faces: its unwrapped
        # chain leaves the box, so no chain is interior
        dump = tmp_path / "edge.xyzm"
        dump.write_text("2\n0 1 0 1 0 1\n1 0.0 0.5 0.5\n1 0.9 0.5 0.5\n")
        out = tmp_path / "s.json"
        with pytest.warns(UserWarning, match="no interior chains"):
            rc = main(["ingest", str(dump), "--format", "xyz-mol",
                       "--system-out", str(out)])
        assert rc == 2
        assert "no interior chains" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_out_of_range(self, tmp_path, capsys):
        dump = tmp_path / "melt.dump"
        dump.write_text(melt_dump_text())
        rc = main(["ingest", str(dump), "--frame", "3",
                   "--system-out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


class TestMalformedInput:
    """Bad files and out-of-range flags exit 2 with one error line."""

    @staticmethod
    def assert_rejected(capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize("command", ["periodic-jones", "normalize"])
    @pytest.mark.parametrize("content, message", [
        (b'{"composition": {\n  "ring": [[0, 0, 0],]}}', "bad.json:2: invalid JSON"),
        (b'\xff\xfe{}', "bad.json: not UTF-8 text"),
    ])
    def test_unreadable_json(self, command, content, message, chainmail_file, tmp_path,
                             capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = (["periodic-jones", chainmail_file, "--frozen-components", str(bad)]
                if command == "periodic-jones" else ["normalize", str(bad)])
        self.assert_rejected(capsys, argv, message)

    @pytest.mark.parametrize("composition, message", [
        ({"ring": [[1, 2]]}, "translate [1, 2] is not three integers"),
        ({"ring": [["a", 0, 0]]}, "is not three integers"),
        ({"ring": [[0.5, 0, 0]]}, "is not three integers"),
        ({"ring": 3}, "expected a list of translates"),
        ({"ring": [[0, 0, 0]], "knot": [[0, 0, 0]]}, "chains not in the system: ['knot']"),
        ({}, "places no image"),
        ({"ring": []}, "places no image"),
        ({"ring": [[10**400, 0, 0]]}, "frozen chain 'ring': a translate is too large"),
        ({"ring": [[0, 0, 0], [10**300, 0, 0]]},
         "frozen chain 'ring': a translate is too large to place: (1.000e+300, 0, 0) rounds"),
        ({"ring": [[10**308, 0, 0]]},
         "frozen chain 'ring': a translate is too large to place: (1.000e+308, 0, 0)"),
    ])
    def test_malformed_frozen_composition(self, composition, message, chainmail_file,
                                          tmp_path, capsys):
        frozen = tmp_path / "frozen.json"
        frozen.write_text(json.dumps({"composition": composition}))
        self.assert_rejected(capsys, ["periodic-jones", chainmail_file,
                                      "--frozen-components", str(frozen)], message)

    @pytest.mark.parametrize("content", [{"results": [1]}, {"results": {"composition": 3}}, [1]])
    def test_report_without_composition(self, content, chainmail_file, tmp_path, capsys):
        frozen = tmp_path / "r.json"
        frozen.write_text(json.dumps(content))
        self.assert_rejected(capsys, ["periodic-jones", chainmail_file,
                                      "--frozen-components", str(frozen)],
                             "r.json: no composition found")

    @pytest.mark.parametrize("content, message", [
        (None, "chainmail.json: not a polynomial: expected an object with 'coeffs'"),
        ({"coeffs": [1]}, "expected an object with 'coeffs'"),
        ({"coeffs": {"x": 1}}, "not a polynomial: invalid literal"),
        ({"coeffs": {"0": "1/0"}}, "not a polynomial"),
        ({"coeffs": {"0": 1.5}}, "exact mode requires int or Fraction"),
        ({"mode": "complex", "coeffs": {}}, "unknown mode"),
        # json writes and reads these as NaN, Infinity and -Infinity
        ({"mode": "float", "coeffs": {"0": math.nan, "2": 1.5}},
         "not a polynomial: float coefficients must be finite, got nan"),
        ({"mode": "float", "coeffs": {"0": math.inf, "2": 1.5}},
         "not a polynomial: float coefficients must be finite, got inf"),
        ({"mode": "float", "coeffs": {"0": -math.inf, "2": 1.5}},
         "not a polynomial: float coefficients must be finite, got -inf"),
        ({"mode": "float", "coeffs": {"0": True, "2": 1.5}},
         "not a polynomial: bool is not a polynomial coefficient"),
    ])
    def test_normalize_rejects_non_polynomials(self, content, message, chainmail_file, capsys):
        if content is not None:
            with open(chainmail_file, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        self.assert_rejected(capsys, ["normalize", chainmail_file, "--components", "2"], message)

    @pytest.mark.parametrize("coeff", ["1e400", "0.5", "2/4"])
    def test_normalize_rejects_coefficient_strings_it_does_not_write(self, coeff, tmp_path,
                                                                     capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"coeffs": {"0": coeff}}))
        self.assert_rejected(capsys, ["normalize", str(path), "--components", "1"],
                             f"p.json: not a polynomial: coefficient '{coeff}' is not 'n/d'")

    @pytest.mark.parametrize("text", ['{"coeffs": {"0": 1%s}}' % ("0" * 4999),
                                      "[" * 100000],
                             ids=["5000-digit-literal", "deep-nesting"])
    def test_json_past_the_parser_limits_is_rejected(self, text, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(text)
        self.assert_rejected(capsys, ["normalize", str(path), "--components", "1"],
                             "p.json: invalid JSON (")

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_quotient_past_the_digit_limit_is_rejected(self, output, tmp_path, capsys):
        # 21 coefficients of 4,300 digits read fine, but dividing by d^5
        # makes them longer than Python converts an int to a string
        path = tmp_path / "p.json"
        nines = "9" * 4300
        path.write_text('{"coeffs": {%s}}' % ", ".join(f'"{e}": {nines}'
                                                       for e in range(-40, 41, 4)))
        self.assert_rejected(capsys, ["normalize", str(path), "--components", "6",
                                      "--output", output],
                             "error: an integer has more than 4300 digits, Python's limit "
                             "for converting an int to a string")

    def test_normalize_rejects_exponent_keys_that_would_merge(self, chainmail_file, capsys):
        with open(chainmail_file, "w", encoding="utf-8") as fh:
            json.dump({"coeffs": {"1": 1, "01": 2, " 1": 5}}, fh)
        self.assert_rejected(capsys, ["normalize", chainmail_file, "--components", "1"],
                             "chainmail.json: not a polynomial: exponent key '01'")

    @pytest.mark.parametrize("command", ["periodic-jones", "slk"])
    def test_unbounded_arc_is_rejected_at_once(self, command, chainmail_file, capsys):
        with open(chainmail_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["chains"][0]["arcs"][0][1] = [1e300, 0.6, 0.7]
        with open(chainmail_file, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        t0 = time.perf_counter()
        self.assert_rejected(capsys, [command, chainmail_file],
                             "system: chain 'ring': arc 0 reaches more than 4 cells beyond")
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("argv, message", [
        (["normalize", "POLY", "--components", "0"], "--components must be at least 1, got 0"),
        (["normalize", "POLY", "--components", "-2"], "--components must be at least 1, got -2"),
        (["cutoff-verify", "SYSTEM", "--copies", "0"], "--copies must be at least 1, got 0"),
        (["slk", "SYSTEM", "--axis", "5"], "axis must be 0, 1 or 2, got 5"),
        (["slk", "SYSTEM", "--axis", "-3"], "axis must be 0, 1 or 2, got -3"),
        (["cutoff-verify", "SYSTEM", "--copies", "2", "--enumerate-cap", "-3"],
         "--enumerate-cap must be at least 0, got -3"),
        (["cutoff-verify", "SYSTEM", "--copies", "2", "--crossing-cap", "-1"],
         "--crossing-cap must be at least 0, got -1"),
        (["periodic-jones", "SYSTEM", "--crossing-cap", "-1"],
         "--crossing-cap must be at least 0, got -1"),
        (["cell-jones", "SYSTEM", "--crossing-cap", "-2"],
         "--crossing-cap must be at least 0, got -2"),
        (["slk", "SYSTEM", "--axis", "2"], "axis 2 is not periodic"),
    ])
    def test_flag_out_of_range(self, argv, message, chainmail_file, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(LaurentPoly({-2: -1, -10: -1}).to_json_obj()))
        files = {"POLY": str(poly), "SYSTEM": chainmail_file}
        self.assert_rejected(capsys, [files.get(a, a) for a in argv], message)

    @pytest.mark.parametrize("argv, message", [
        (["jones", "HOPF", "--tolerance", "nan"],
         "tolerance must be finite and at least 0, got nan"),
        (["jones", "HOPF", "--tolerance", "-1"],
         "tolerance must be finite and at least 0, got -1.0"),
        (["jones", "OPEN", "--prune", "nan"], "prune must be finite and at least 0, got nan"),
        (["jones", "OPEN", "--prune", "inf"], "prune must be finite and at least 0, got inf"),
        (["jones", "OPEN", "--prune=-1e-3"], "prune must be finite and at least 0, got -0.001"),
        (["cell-jones", "SYSTEM", "--tolerance", "nan"], "tolerance must be finite and at least 0"),
        (["periodic-jones", "SYSTEM", "--tolerance", "nan"], "tolerance must be finite"),
        (["slk", "SYSTEM", "--tolerance", "nan"], "tolerance must be finite and at least 0"),
        (["slk", "SYSTEM", "--tolerance", "-1"], "tolerance must be finite and at least 0"),
        (["slk", "SYSTEM", "--direction", "nan,1,1"], "direction must be finite and nonzero"),
        (["slk", "SYSTEM", "--direction", "1,inf,0"], "direction must be finite and nonzero"),
        (["slk", "SYSTEM", "--direction", "0,0,0"], "direction must be finite and nonzero"),
        (["slk", "SYSTEM", "--direction", "abc"], "--direction needs three components"),
        (["slk", "SYSTEM", "--direction", "1,x,2"], "got '1,x,2'"),
        (["cutoff-verify", "SYSTEM", "--copies", "2", "--direction", "nan,1,1"],
         "direction must be finite and nonzero"),
        (["cutoff-verify", "SYSTEM", "--copies", "2", "--tolerance", "nan"],
         "tolerance must be finite and at least 0"),
        (["normalize", "FLOATREPORT", "--tolerance", "nan"], "tolerance must be finite"),
        (["normalize", "FLOATREPORT", "--tolerance", "-1"], "tolerance must be finite"),
        (["slk", "SYSTEM", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["jones", "OPEN", "--mode", "random", "--seed", "-1"],
         "seed must be at least 0, got -1"),
        (["jones", "HOPF", "--crossing-cap", "-1"], "--crossing-cap must be at least 0, got -1"),
    ])
    def test_non_finite_or_negative_number(self, argv, message, hopf_file, chainmail_file,
                                           tmp_path, capsys):
        open_curve = tmp_path / "open.json"
        write_curves(str(open_curve), [open_trefoil(0.5)])
        report = tmp_path / "report.json"
        assert main(["cell-jones", chainmail_file, "--directions", "5", "--out",
                     str(report)]) == 0
        files = {"HOPF": hopf_file, "OPEN": str(open_curve), "SYSTEM": chainmail_file,
                 "FLOATREPORT": str(report)}
        self.assert_rejected(capsys, [files.get(a, a) for a in argv], message)

    @pytest.mark.parametrize("fmt, text, message", [
        ("lammps-dump", MELT.replace("TIMESTEP\n0", "TIMESTEP\nabc"), "t:2: bad timestep 'abc'"),
        ("lammps-dump", MELT.replace("ATOMS\n98", "ATOMS\nabc"), "t:4: bad atom count 'abc'"),
        ("lammps-dump", MELT.replace("0.0 12.0", "0 x", 1), "t:6: bad box bound 'x'"),
        ("lammps-dump", MELT.replace("0.0 12.0", "0 inf", 1), "t:6: bad box bound 'inf'"),
        ("lammps-dump", MELT.replace("\n1 1 2.9171326830 ", "\n1 1 a "), "t:10: bad coordinate 'a'"),
        # a nan used to drop its chain quietly as not interior
        ("lammps-dump", MELT.replace("\n1 1 2.9171326830 ", "\n1 1 nan "),
         "t:10: bad coordinate 'nan'"),
        ("lammps-dump", MELT.replace("\n1 1 2.9171326830 ", "\n99999999999999999999 1 1 "),
         "t:10: bad atom id '99999999999999999999'"),
        ("lammps-dump", MELT.replace("\n1 1 2.9171326830 ", "\n1 1 1e308 ").replace(
            "\n2 1 2.3694848537 ", "\n2 1 -1e308 "), "chain step too long to unwrap"),
        ("lammps-dump", "ITEM: TIMESTEP\n0\nITEM: NUMBER OF ATOMS\n1\n"
                        "ITEM: ATOMS id mol xs ys zs\n1 1 0.5 0.5 0.5\n"
                        "ITEM: BOX BOUNDS pp pp pp\n0 1\n0 1\n0 1\n",
         "t:6: scaled coordinates before BOX BOUNDS"),
        ("xyz-mol", "2\n0 10 0 10 0 10\n1 a 1 1\n1 2 1 1\n", "t:3: bad coordinate 'a'"),
        ("xyz-mol", "2\n0 10 0 10 0 10\nx 1 1 1\n1 2 1 1\n", "t:3: bad molecule id 'x'"),
        ("xyz-mol", "2\n0 nan 0 10 0 10\n1 1 1 1\n1 2 1 1\n", "t:2: box bounds must be finite"),
        # a wrong count names the line that declares it, not where its frame ends
        ("lammps-dump", MELT.replace("ATOMS\n98", "ATOMS\n97"),
         "t:4: frame 0 declares 97 atoms, found 98"),
        ("lammps-dump", MELT.replace("0.0 12.0", "12.0 0.0", 1),
         "t:6: box bounds '12.0 0.0' are not 'lo hi' with lo < hi"),
        ("lammps-dump", MELT.replace("0.0 12.0", "3.0 3.0", 1),
         "t:6: box bounds '3.0 3.0' are not 'lo hi' with lo < hi"),
        ("xyz-mol", "2\n0 10 10 0 0 10\n1 1 1 1\n1 2 1 1\n",
         "t:2: box bounds must be 'lo hi' pairs with lo < hi"),
        ("lammps-dump", FRAME.format(0, 3, 1, 2) + FRAME.format(1, 2, 1, 2),
         "t:4: frame 0 declares 3 atoms, found 2"),
        # a fault of the frame as a whole names its ITEM: TIMESTEP line
        ("lammps-dump", FRAME.format(0, 2, 1, 2) + FRAME.format(1, 2, 1, 1),
         "t:12: duplicate atom ids in frame 1"),
        ("lammps-dump", MELT + BOX_ONLY, f"t:{len(MELT.splitlines()) + 1}: frame 7 has no atoms"),
        # frame 1's count line declared three rows; the file ends after one
        ("xyz-mol", "1\n0 1 0 1 0 1\n1 0 0 0\n3\n0 10 0 10 0 10\n1 1 1 1\n",
         "t:4: truncated frame: 3 atoms declared"),
        ("lammps-dump", MELT.replace("ATOMS id mol x y z", "ATOMS mol x y z"),
         "t:9: ATOMS columns lack atom ids"),
        ("lammps-dump", MELT.replace("\n1 1 2.9171326830 ", "\n1 1 "), "t:10: expected 5 columns"),
        # each bound is finite, but hi - lo is not
        ("lammps-dump", "ITEM: TIMESTEP\n0\nITEM: NUMBER OF ATOMS\n1\nITEM: BOX BOUNDS pp pp pp\n"
                        "-1e308 1e308\n0 1\n0 1\nITEM: ATOMS id mol xs ys zs\n1 1 0.5 0.5 0.5\n",
         "t:10: scaled coordinates overflow"),
    ], ids=["timestep", "atom-count", "box-bound", "box-inf", "coordinate", "coordinate-nan",
            "atom-id-overflow", "step-overflow", "scaled-before-box", "xyz-coordinate",
            "xyz-molecule", "xyz-box-nan", "last-frame-line", "inverted-box", "empty-box",
            "xyz-inverted-box", "count-of-an-earlier-frame", "frame-fault-names-timestep",
            "last-frame-without-atoms", "xyz-truncated", "atoms-without-ids", "column-count",
            "scaled-overflow"])
    def test_malformed_trajectory(self, fmt, text, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open("t", "w", encoding="utf-8") as fh:
            fh.write(text)
        self.assert_rejected(capsys, ["ingest", "t", "--format", fmt, "--system-out", "s.json"],
                             message)
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("results, message", [
        ([1], "report.json: no polynomial found: report 'results' is not an object"),
        ("poly", "no polynomial found: report 'results' is not an object"),
        ({"component_count": "3"}, "report.json: component_count must be an integer, got '3'"),
        ({"component_count": 2.5}, "component_count must be an integer, got 2.5"),
        ({"component_count": True}, "component_count must be an integer, got True"),
    ])
    def test_normalize_rejects_bad_reports(self, results, message, tmp_path, capsys):
        if isinstance(results, dict):
            results = {**results, "polynomial": LaurentPoly({-2: -1, -10: -1}).to_json_obj()}
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"results": results}))
        self.assert_rejected(capsys, ["normalize", str(report)], message)

    @pytest.mark.parametrize("key, value, message", [
        ("origin", "abc", "cell: cell origin must be 3 finite coordinates"),
        ("basis", [[1.0, 0.0, 0.0], [0.0, "x", 0.0], [0.0, 0.0, 1.0]],
         "cell: cell basis must be a 3x3 matrix of numbers"),
        # numpy alone would read "1" as 1.0 and False and True as 0.0 and 1.0
        ("basis", [["1", False, 0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         "cell: cell basis must be a 3x3 matrix of numbers "
         "(cell.basis[0]: non-numeric coordinate)"),
        ("origin", [True, "0.5", 0],
         "cell: cell origin must be 3 finite coordinates (cell.origin: non-numeric coordinate)"),
        ("origin", [0, 0], "cell origin must be 3 finite coordinates (cell.origin: expected"),
    ])
    def test_non_numeric_cell_rejected(self, key, value, message, chainmail_file, capsys):
        with open(chainmail_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["cell"][key] = value
        with open(chainmail_file, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        self.assert_rejected(capsys, ["slk", chainmail_file], message)

    def test_curve_errors_name_the_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open("f.json", "w", encoding="utf-8") as fh:
            json.dump({"curves": [{"id": "a", "closed": False,
                                   "vertices": [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]]}]}, fh)
        self.assert_rejected(capsys, ["jones", "f.json"],
                             "error: f.json: curves[0]: curve 'a': repeated consecutive vertex\n")

    @pytest.mark.parametrize("periodic, argv, message", [
        ([False, False, False], ["slk", "SYSTEM"], "error: no periodic axis\n"),
        ([True, True, False], ["cutoff-verify", "SYSTEM", "--copies", "2"],
         "error: axis must be given explicitly unless exactly one axis is periodic\n"),
    ])
    def test_periodic_axes_that_do_not_fit_the_command(self, periodic, argv, message,
                                                       chainmail_file, capsys):
        with open(chainmail_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["cell"]["periodic"] = periodic
        with open(chainmail_file, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        self.assert_rejected(capsys, [chainmail_file if a == "SYSTEM" else a for a in argv],
                             message)

    def test_chain_that_does_not_advance_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "stuck.json"
        arc = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
        chain = GeneratingChain("p", [arc], "infinite")
        write_system(str(path), PBCSystem(Cell(np.diag([10.0] * 3), (True, True, True)), [chain]))
        self.assert_rejected(capsys, ["periodic-jones", str(path)],
                             "chain 'p': infinite chain must advance by a nonzero translate")

    @pytest.mark.parametrize("path, value, message", [
        (["chains", 0, "basepoint"], ["x", 0],
         "chains[0]: chain 'ring': basepoint must be two integers [arc, vertex]"),
        (["chains", 0, "basepoint"], [0.5, True],
         "chains[0]: chain 'ring': basepoint must be two integers [arc, vertex]"),
        (["cell", "basis"], [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]],
         "cell: cell basis is too large: its volume overflows"),
    ])
    def test_malformed_system_rejected(self, path, value, message, chainmail_file, capsys):
        with open(chainmail_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with open(chainmail_file, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        self.assert_rejected(capsys, ["periodic-jones", chainmail_file], message)
