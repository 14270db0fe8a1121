"""File format round trips, trajectory parsing, report rendering."""

import copy
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbcjones.errors import PbcJonesError
from pbcjones.fixtures import chainmail_system, hopf_link, melt_dump_text, trefoil
from pbcjones.io_formats import (TRAJECTORY_FORMATS, AnalysisReport, canonical_dumps,
                                 curves_from_json_obj, curves_to_json_obj,
                                 read_curves, read_system, read_trajectory,
                                 report_text, select_interior_chains,
                                 system_from_json_obj, system_to_json_obj,
                                 unwrap_chain, write_curves, write_system)
from pbcjones.laurent import LaurentPoly


class TestSystemJson:
    def test_round_trip_is_byte_identical(self, tmp_path):
        system = chainmail_system()
        first = canonical_dumps(system_to_json_obj(system))
        again = canonical_dumps(system_to_json_obj(system_from_json_obj(json.loads(first))))
        assert first == again

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sys.json"
        write_system(str(path), chainmail_system())
        system = read_system(str(path))
        assert [c.id for c in system.chains] == ["ring"]
        assert system.cell.periodic == (True, False, False)

    def test_missing_cell(self):
        with pytest.raises(PbcJonesError, match="missing 'cell'"):
            system_from_json_obj({"format": "pbcjones/system-v1", "chains": []})

    def test_unsupported_format(self):
        with pytest.raises(PbcJonesError, match="unsupported format"):
            system_from_json_obj({"format": "pbcjones/system-v9", "cell": {}, "chains": []})

    def test_bad_basis_shape(self):
        obj = system_to_json_obj(chainmail_system())
        obj["cell"]["basis"] = [[1, 0, 0], [0, 1, 0]]
        with pytest.raises(PbcJonesError, match="cell.basis"):
            system_from_json_obj(obj)

    def test_periodic_flags_must_be_booleans(self):
        obj = system_to_json_obj(chainmail_system())
        obj["cell"]["periodic"] = [1, 0, 0]
        with pytest.raises(PbcJonesError, match="three booleans"):
            system_from_json_obj(obj)

    @pytest.mark.parametrize("field,value,where", [
        ("origin", [0.0, float("nan"), 0.0], "cell origin"),
        ("origin", [float("inf"), 0.0, 0.0], "cell origin"),
        ("basis", [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]], "cell basis"),
        ("basis", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, float("-inf")]], "cell basis"),
    ])
    def test_non_finite_cell_is_rejected(self, field, value, where):
        obj = system_to_json_obj(chainmail_system())
        obj["cell"][field] = value
        with pytest.raises(PbcJonesError, match=f"^cell: {where} must be"):
            system_from_json_obj(obj)

    def test_chain_error_names_its_index(self):
        obj = system_to_json_obj(chainmail_system())
        obj["chains"][0]["topology"] = "sideways"
        with pytest.raises(PbcJonesError, match=r"chains\[0\]"):
            system_from_json_obj(obj)

    @pytest.mark.parametrize("basepoint", [["x", 0], [0.5, True], [0, 1.0]])
    def test_basepoint_must_be_two_integers(self, basepoint):
        obj = system_to_json_obj(chainmail_system())
        obj["chains"][0]["basepoint"] = basepoint
        with pytest.raises(PbcJonesError, match=r"^chains\[0\]: .*basepoint must be two integers"):
            system_from_json_obj(obj)

    def test_overflowing_cell_volume_is_rejected(self):
        obj = system_to_json_obj(chainmail_system())
        obj["cell"]["basis"] = [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]
        with pytest.raises(PbcJonesError, match="^cell: cell basis is too large"):
            system_from_json_obj(obj)

    def test_cell_basis_beyond_float_range(self):
        obj = system_to_json_obj(chainmail_system())
        obj["cell"]["basis"][0][0] = 10**400
        with pytest.raises(PbcJonesError, match="^cell: cell basis must be a 3x3 matrix of numbers"):
            system_from_json_obj(obj)

    def test_arc_overflowing_fractional_coordinates_is_out_of_reach(self):
        obj = system_to_json_obj(chainmail_system())
        obj["cell"]["origin"] = [-1e308, 0.0, 0.0]
        obj["chains"][0]["arcs"][0][0][0] = 1e308
        with pytest.raises(PbcJonesError, match="reaches more than"):
            system_from_json_obj(obj)

    @pytest.mark.parametrize("value", [True, "1.5", 10**400])
    def test_coordinates_must_be_numbers_in_range(self, value):
        obj = system_to_json_obj(chainmail_system())
        obj["chains"][0]["arcs"][0][0][1] = value
        with pytest.raises(PbcJonesError, match=r"^chains\[0\]\.arcs\[0\]\[0\]: "):
            system_from_json_obj(obj)

    def test_non_numeric_coordinate(self):
        obj = system_to_json_obj(chainmail_system())
        obj["chains"][0]["arcs"][0][0][1] = "up"
        with pytest.raises(PbcJonesError, match="non-numeric"):
            system_from_json_obj(obj)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "cell": [,]\n}\n')
        with pytest.raises(PbcJonesError, match=r"broken\.json:2"):
            read_system(str(path))


class TestCurvesJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curves.json"
        curves = list(hopf_link()) + [trefoil()]
        write_curves(str(path), curves)
        back = read_curves(str(path))
        assert [c.id for c in back] == [c.id for c in curves]
        for a, b in zip(back, curves):
            assert a.closed == b.closed
            assert np.allclose(a.vertices, b.vertices)

    def test_byte_identical(self):
        curves = list(hopf_link())
        first = canonical_dumps(curves_to_json_obj(curves))
        again = canonical_dumps(curves_to_json_obj(curves_from_json_obj(json.loads(first))))
        assert first == again

    def test_closed_must_be_boolean(self):
        obj = curves_to_json_obj([trefoil()])
        obj["curves"][0]["closed"] = "yes"
        with pytest.raises(PbcJonesError, match="boolean"):
            curves_from_json_obj(obj)

    def test_curve_constructor_errors_are_located(self):
        obj = curves_to_json_obj([trefoil()])
        obj["curves"][0]["vertices"][-1] = obj["curves"][0]["vertices"][0]
        with pytest.raises(PbcJonesError, match=r"curves\[0\]"):
            curves_from_json_obj(obj)


# frame 0 declares its 2 atoms; frame 1 declares nothing and holds 3
TWO_FRAMES = """ITEM: TIMESTEP
0
ITEM: NUMBER OF ATOMS
2
ITEM: BOX BOUNDS pp pp pp
0 10
0 10
0 10
ITEM: ATOMS id mol x y z
1 1 1 1 1
2 1 2 1 1
ITEM: TIMESTEP
1
ITEM: BOX BOUNDS pp pp pp
0 10
0 10
0 10
ITEM: ATOMS id mol x y z
1 1 1 1 1
2 1 2 1 1
3 1 3 2 1
"""


class TestLammpsDump:
    def test_parses_melt_snapshot(self, tmp_path):
        path = tmp_path / "melt.dump"
        path.write_text(melt_dump_text())
        frames = read_trajectory(str(path))
        assert len(frames) == 1
        frame = frames[0]
        assert frame.timestep == 0
        assert len(frame.ids) == 98
        chains = frame.chains()
        assert sorted(chains) == list(range(1, 8))
        assert all(len(p) == 14 for p in chains.values())
        assert np.allclose(frame.bounds, [[0.0, 12.0]] * 3)

    def test_reading_does_not_import_numpy_ma(self, tmp_path):
        # a first np.unique call without return_index imports numpy.ma
        path = tmp_path / "melt.dump"
        path.write_text(melt_dump_text())
        code = ("import sys\n"
                "from pbcjones.io_formats import read_trajectory\n"
                f"frame, = read_trajectory({str(path)!r})\n"
                "assert len(frame.chains()) == 7\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_scaled_coordinates_match_unscaled(self, tmp_path):
        plain = tmp_path / "plain.dump"
        scaled = tmp_path / "scaled.dump"
        plain.write_text(melt_dump_text())
        scaled.write_text(melt_dump_text(scaled=True))
        a = read_trajectory(str(plain))[0]
        b = read_trajectory(str(scaled))[0]
        assert np.allclose(a.positions, b.positions, atol=1e-8)

    def test_rows_ordered_by_atom_id(self, tmp_path):
        text = melt_dump_text()
        head, tail = text.split("ITEM: ATOMS id mol x y z\n")
        rows = tail.strip().split("\n")
        path = tmp_path / "shuffled.dump"
        path.write_text(head + "ITEM: ATOMS id mol x y z\n"
                        + "\n".join(reversed(rows)) + "\n")
        a = read_trajectory(str(path))[0].chains()
        ref = read_trajectory_text(tmp_path, text)[0].chains()
        for mol in ref:
            assert np.allclose(a[mol], ref[mol])

    def test_frames_sorted_by_timestep(self, tmp_path):
        t0 = melt_dump_text(seed=1)
        t1 = melt_dump_text(seed=2).replace("ITEM: TIMESTEP\n0", "ITEM: TIMESTEP\n100", 1)
        path = tmp_path / "two.dump"
        path.write_text(t1 + t0)
        frames = read_trajectory(str(path))
        assert [f.timestep for f in frames] == [0, 100]

    def test_missing_mol_column(self, tmp_path):
        text = melt_dump_text().replace("ITEM: ATOMS id mol x y z", "ITEM: ATOMS id x y z")
        path = tmp_path / "bad.dump"
        path.write_text(text)
        with pytest.raises(PbcJonesError, match="molecule ids"):
            read_trajectory(str(path))

    def test_unknown_position_columns(self, tmp_path):
        text = melt_dump_text().replace("ITEM: ATOMS id mol x y z", "ITEM: ATOMS id mol q r s")
        path = tmp_path / "bad.dump"
        path.write_text(text)
        with pytest.raises(PbcJonesError, match="need x y z"):
            read_trajectory(str(path))

    def test_declared_count_mismatch(self, tmp_path):
        text = melt_dump_text().replace("ITEM: NUMBER OF ATOMS\n98", "ITEM: NUMBER OF ATOMS\n99")
        path = tmp_path / "bad.dump"
        path.write_text(text)
        with pytest.raises(PbcJonesError, match="declares 99 atoms"):
            read_trajectory(str(path))

    def test_declared_count_ends_with_its_frame(self, tmp_path):
        # the second frame has no NUMBER OF ATOMS item; the first frame's 2 is not its count
        path = tmp_path / "two.dump"
        path.write_text(TWO_FRAMES)
        frames = read_trajectory(str(path))
        assert [f.timestep for f in frames] == [0, 1]
        assert [len(f.positions) for f in frames] == [2, 3]

    def test_box_bounds_change_only_when_all_three_rows_are_read(self, tmp_path):
        # a second BOX BOUNDS item cut short leaves the frame's bounds as they were
        text = ("ITEM: TIMESTEP\n0\nITEM: BOX BOUNDS pp pp pp\n0 10\n0 10\n0 10\n"
                "ITEM: BOX BOUNDS pp pp pp\n0 2\nITEM: ATOMS id mol xs ys zs\n1 1 0.5 0.5 0.5\n")
        frame, = read_trajectory_text(tmp_path, text)
        assert frame.bounds.tolist() == [[0, 10]] * 3
        assert frame.positions.tolist() == [[5, 5, 5]]

    def test_duplicate_atom_ids(self, tmp_path):
        text = melt_dump_text()
        text = text.replace("\n2 1 ", "\n1 1 ", 1)
        path = tmp_path / "bad.dump"
        path.write_text(text)
        with pytest.raises(PbcJonesError, match="duplicate atom ids"):
            read_trajectory(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dump"
        path.write_text("\n")
        with pytest.raises(PbcJonesError, match="no frames"):
            read_trajectory(str(path))

    def test_atoms_before_any_timestep(self, tmp_path):
        text = "ITEM: ATOMS id mol x y z\n1 1 1 1 1\n" + melt_dump_text()
        with pytest.raises(PbcJonesError, match=r":1: .* comes before any TIMESTEP value"):
            read_trajectory_text(tmp_path, text)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bin.dump"
        path.write_bytes(b"ITEM: TIMESTEP\n\xff\n")
        with pytest.raises(PbcJonesError, match="not UTF-8 text"):
            read_trajectory(str(path))

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(PbcJonesError, match="unknown trajectory format"):
            read_trajectory("whatever", format="csv")


def read_trajectory_text(tmp_path, text):
    path = tmp_path / "ref.dump"
    path.write_text(text)
    return read_trajectory(str(path))


class TestXyzMol:
    def make(self, tmp_path, text):
        path = tmp_path / "frame.xyzm"
        path.write_text(text)
        return str(path)

    def test_two_frames(self, tmp_path):
        text = ("4\nbox 0 10 0 10 0 10\n"
                "1 1.0 1.0 1.0\n1 2.0 1.0 1.0\n2 5.0 5.0 5.0\n2 6.0 5.0 5.0\n"
                "2\n0 10 0 10 0 10\n"
                "1 3.0 3.0 3.0\n1 4.0 3.0 3.0\n")
        frames = read_trajectory(self.make(tmp_path, text), format="xyz-mol")
        assert len(frames) == 2
        chains = frames[0].chains()
        assert sorted(chains) == [1, 2]
        assert np.allclose(chains[2], [[5, 5, 5], [6, 5, 5]])
        assert np.allclose(frames[1].bounds, [[0, 10]] * 3)

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_lines(self, sep, tmp_path):
        # str.splitlines would end the comment line again at the separator
        # and read the rows one line late
        path = tmp_path / "frame.xyzm"
        path.write_text(f"2\n0 10 0 10 0 10{sep}\n1 1 1 1\n1 2 1 1\n", encoding="utf-8")
        frame, = read_trajectory(str(path), format="xyz-mol")
        assert np.allclose(frame.chains()[1], [[1, 1, 1], [2, 1, 1]])

    def test_bad_count(self, tmp_path):
        with pytest.raises(PbcJonesError, match="atom count"):
            read_trajectory(self.make(tmp_path, "two\nbox\n"), format="xyz-mol")

    def test_missing_box(self, tmp_path):
        text = "1\njust a comment\n1 0 0 0\n"
        with pytest.raises(PbcJonesError, match="box bounds"):
            read_trajectory(self.make(tmp_path, text), format="xyz-mol")

    def test_truncated(self, tmp_path):
        text = "3\n0 1 0 1 0 1\n1 0 0 0\n"
        with pytest.raises(PbcJonesError, match="truncated"):
            read_trajectory(self.make(tmp_path, text), format="xyz-mol")

    def test_row_needs_molecule(self, tmp_path):
        text = "1\n0 1 0 1 0 1\n0.0 0.0 0.0\n"
        with pytest.raises(PbcJonesError, match="molecule ids are required"):
            read_trajectory(self.make(tmp_path, text), format="xyz-mol")


# tokens that make readers take many paths: section heads, counts, bad numbers
TOKENS = st.sampled_from([
    "ITEM: TIMESTEP", "ITEM: NUMBER OF ATOMS", "ITEM: BOX BOUNDS pp pp pp",
    "ITEM: ATOMS id mol x y z", "ITEM: ATOMS id mol xs ys zs", "ITEM: ATOMS id x y z",
    "ITEM:", "0", "1", "2", "-1", "0.5", "1e308", "-1e308", "1e999", "nan", "inf", "a",
    "99999999999999999999", "box",
])
LINES = st.one_of(st.lists(TOKENS, min_size=1, max_size=6).map(" ".join),
                  st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
# valid frames of each format, for soups that are edits of a readable file
TEMPLATES = [
    ["ITEM: TIMESTEP", "5", "ITEM: NUMBER OF ATOMS", "2", "ITEM: BOX BOUNDS pp pp pp",
     "0 1", "0 1", "0 1", "ITEM: ATOMS id mol xs ys zs", "1 1 0.2 0.2 0.2", "2 1 0.3 0.2 0.2"],
    ["2", "0 10 0 10 0 10", "1 1 1 1", "1 2 1 1"],
]


@st.composite
def soups(draw):
    if draw(st.booleans()):
        return draw(st.lists(LINES, max_size=30))
    lines = list(draw(st.sampled_from(TEMPLATES))) * draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(LINES)]
    return lines


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(soups())
def test_line_soup_gives_frames_or_a_located_error(tmp_path, lines):
    path = tmp_path / "soup"
    text = "\n".join(lines)
    path.write_text(text, encoding="utf-8")
    # str.splitlines splits at every separator that a text-mode file iteration does, and more
    n_lines = len(text.splitlines())
    for fmt in TRAJECTORY_FORMATS:
        try:
            frames = read_trajectory(str(path), fmt)
        except PbcJonesError as exc:
            located = re.match(re.escape(f"{path}:") + r"(?:(\d+):)?", str(exc))
            assert located, f"{fmt} error does not start with the path: {exc}"
            if located[1] is not None:
                assert 1 <= int(located[1]) <= n_lines, f"{fmt} names a line past the file: {exc}"
            continue
        assert frames
        for frame in frames:
            assert np.all(np.isfinite(frame.positions)) and np.all(np.isfinite(frame.bounds))


class TestUnwrap:
    def test_jump_across_face(self):
        bounds = np.array([[0.0, 10.0]] * 3)
        pts = np.array([[9.5, 5, 5], [0.5, 5, 5], [1.5, 5, 5]])
        out = unwrap_chain(pts, bounds)
        assert np.allclose(out[:, 0], [9.5, 10.5, 11.5])

    def test_non_periodic_axis_untouched(self):
        bounds = np.array([[0.0, 10.0]] * 3)
        pts = np.array([[9.5, 5, 5], [0.5, 5, 5]])
        out = unwrap_chain(pts, bounds, periodic=(False, True, True))
        assert np.allclose(out, pts)

    def test_interior_steps_unchanged(self):
        bounds = np.array([[0.0, 10.0]] * 3)
        pts = np.array([[2.0, 2, 2], [3.0, 2.5, 2], [4.0, 3, 2]])
        assert np.allclose(unwrap_chain(pts, bounds), pts)


class TestInteriorSelection:
    def test_keeps_only_interior_chains(self, tmp_path):
        path = tmp_path / "melt.dump"
        path.write_text(melt_dump_text(interior=False, seed=3))
        frame = read_trajectory(str(path))[0]
        system = select_interior_chains(frame)
        kept = {c.id for c in system.chains}
        # brute check against the same unwrap rule
        expected = set()
        for mol, pts in frame.chains().items():
            p = unwrap_chain(pts, frame.bounds)
            if np.all((p > frame.bounds[:, 0]) & (p < frame.bounds[:, 1])):
                expected.add(f"mol{mol}")
        assert kept == expected
        assert 0 < len(kept) < 7

    def test_interior_melt_keeps_everything(self, tmp_path):
        path = tmp_path / "melt.dump"
        path.write_text(melt_dump_text())
        system = select_interior_chains(read_trajectory(str(path))[0])
        assert len(system.chains) == 7
        assert all(c.topology == "open" for c in system.chains)

    def test_empty_selection_warns(self, tmp_path):
        text = ("2\n0 1 0 1 0 1\n"
                "1 0.0 0.5 0.5\n1 0.9 0.5 0.5\n")
        path = tmp_path / "edge.xyzm"
        path.write_text(text)
        frame = read_trajectory(str(path), format="xyz-mol")[0]
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            system = select_interior_chains(frame)
        assert not system.chains
        assert any("no interior chains" in str(w.message) for w in rec)


class TestReports:
    def test_integers_past_the_digit_limit_raise(self):
        obj = {"polynomial": LaurentPoly({0: 10**4300}).to_json_obj()}
        with pytest.raises(PbcJonesError, match="^an integer has more than 4300 digits"):
            canonical_dumps(obj)

    def test_serialization_is_stable(self):
        rep = AnalysisReport("jones", {"directions": 50, "seed": 0},
                             {"polynomial": LaurentPoly({-2: -1, -10: -1}).to_json_obj()})
        again = AnalysisReport("jones", {"seed": 0, "directions": 50},
                              {"polynomial": LaurentPoly({-10: -1, -2: -1}).to_json_obj()})
        assert rep.to_json() == again.to_json()
        obj = json.loads(rep.to_json())
        assert obj["format"] == "pbcjones/report-v1"
        assert obj["generator"]["name"] == "pbcjones"

    def test_text_renders_polynomials_compactly(self):
        poly = LaurentPoly({4: 1, 12: 1, 16: -1})
        rep = AnalysisReport("jones", {"directions": 1},
                             {"polynomial": poly.to_json_obj()})
        text = report_text(rep)
        assert f"polynomial: {poly}" in text
        assert "coeffs" not in text

    def test_text_nested_structures(self):
        rep = AnalysisReport("slk", {}, {"values": [1, 2], "nested": {"a": True}})
        text = report_text(rep)
        assert text.startswith("pbcjones slk\n")
        assert "  values:" in text
        assert "    a: True" in text


# any JSON value, including what Python's json module reads as inf and nan,
# with extra weight on numbers at the edges of float range
EDGE_NUMBERS = st.sampled_from([10**400, -10**400, 2**63, 1e308, -1e308, 1e-320, 0.5])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | EDGE_NUMBERS | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)


@st.composite
def edited(draw, base):
    """base with up to three of its subtrees (or itself) replaced by any JSON value."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, obj
        for _ in range(draw(st.integers(0, 5))):
            if not (isinstance(node, (dict, list)) and node):
                break
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = node[key]
        if parent is None:
            obj = draw(JSON_VALUES)
        else:
            parent[key] = draw(JSON_VALUES)
    return obj


SYSTEM_OBJ = system_to_json_obj(chainmail_system())
CURVES_OBJ = curves_to_json_obj([trefoil(6)])
POLY_OBJ = LaurentPoly({-2: -1, 3: 2}).to_json_obj()


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON_VALUES, edited(SYSTEM_OBJ), edited(CURVES_OBJ), edited(POLY_OBJ)))
def test_json_readers_return_or_raise_pbcjones_error(obj):
    for reader in (system_from_json_obj, curves_from_json_obj, LaurentPoly.from_json_obj):
        try:
            reader(obj)
        except PbcJonesError:
            pass
