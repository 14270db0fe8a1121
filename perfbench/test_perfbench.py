"""Tests of the benchmark itself: gates, seeds, tracing and exit codes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.fixture(scope="module")
def chainmail_pass(tmp_path_factory):
    wl = workloads.Chainmail(0, str(tmp_path_factory.mktemp("chainmail")))
    return wl.run_pass()


def test_chainmail_pass_matches_reference(chainmail_pass):
    assert chainmail_pass.problems == []
    assert workloads.check_reference("chainmail", chainmail_pass.outputs,
                                     REFERENCE["chainmail"]) == []


def test_corrupted_reference_is_caught(chainmail_pass):
    bad = copy.deepcopy(REFERENCE["chainmail"])
    coeffs = bad["cutoff3"]["v_cutoff"]["coeffs"]
    key = sorted(coeffs)[0]
    coeffs[key] += 1
    assert workloads.check_reference("chainmail", chainmail_pass.outputs, bad) == ["cutoff3"]


def test_run_exits_nonzero_on_corrupted_reference(tmp_path):
    bad = copy.deepcopy(REFERENCE)
    coeffs = bad["open_trefoil"]["poly"]["coeffs"]
    key = sorted(coeffs)[0]
    coeffs[key] = coeffs[key] + 1e-12
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(bad))
    proc = _run("perfbench/run.py", "--workload", "open_trefoil", "--seed", "0",
                "--seconds", "0.1", "--trace", "0", "--reference", str(path))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("perfbench/run.py", "--workload", "chainmail", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_seed_zero_is_identity_and_others_are_rigid():
    rot, shift = workloads.rigid_motion(0)
    assert np.array_equal(rot, np.eye(3)) and not shift.any()
    for seed in (1, 2, 77):
        rot, shift = workloads.rigid_motion(seed)
        assert np.allclose(rot @ rot.T, np.eye(3)) and np.isclose(np.linalg.det(rot), 1.0)
        again = workloads.rigid_motion(seed)
        assert np.array_equal(rot, again[0]) and np.array_equal(shift, again[1])
    assert not np.array_equal(workloads.rigid_motion(1)[1], workloads.rigid_motion(2)[1])


def test_shifted_dump_moves_box_and_atoms():
    text = "ITEM: BOX BOUNDS pp pp pp\n0.0 10.0\n0.0 10.0\n0.0 10.0\n" \
           "ITEM: ATOMS id mol x y z\n1 1 1.0 2.0 3.0\n"
    out = workloads.shifted_dump(text, np.array([1.0, -2.0, 0.5])).splitlines()
    assert out[1:4] == ["1.0000000000 11.0000000000", "-2.0000000000 8.0000000000",
                        "0.5000000000 10.5000000000"]
    assert out[5] == "1 1 2.0000000000 0.0000000000 3.5000000000"


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        traced_child()

    traced_child = tracer._wrap("child", child)
    tracer._wrap("parent", parent)()
    assert 0.02 <= tracer.self_s["child"] < 0.05
    assert 0.01 <= tracer.self_s["parent"] < 0.03
    (_, child_id, child_parent, *_), (_, parent_id, _, *_) = tracer.spans
    assert child_parent == parent_id and [s[3] for s in tracer.spans] == ["child", "parent"]


def test_tracer_restores_every_binding():
    from pbcjones import cli, jones3d
    from pbcjones.diagram import Diagram

    before = (jones3d.project, cli.main, Diagram.smooth, sys.modules["pbcjones.bracket"].terminal_graph)
    tracer = tracing.Tracer()
    tracer.install()
    assert jones3d.project is not before[0]
    tracer.unpatch()
    after = (jones3d.project, cli.main, Diagram.smooth, sys.modules["pbcjones.bracket"].terminal_graph)
    assert after == before
