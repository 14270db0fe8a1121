"""CLI reports compared byte for byte with reports stored in tests/golden.

Each case runs ``main`` in a fresh working directory that holds the
fixture inputs under short relative names, so the paths embedded in the
reports do not depend on where the test runs.  A case's stdout is also
saved there under its own name, so later cases can read an earlier
report (``--frozen-components``, ``normalize``) or a written system.

The stored reports are the reference: a change that alters any report
byte fails here.  After an intended format change, rewrite them with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of tests/golden.
"""

import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from pbcjones.cli import main
from pbcjones.fixtures import (chainmail_system, hopf_link, jersey_system, melt_dump_text,
                               open_trefoil, twill_system)
from pbcjones.io_formats import write_curves, write_system

GOLDEN = Path(__file__).with_name("golden")

# (report name, expected exit code, argv); cases run in this order
CASES = [
    ("hopf_jones.json", 0, ["jones", "hopf.json"]),
    ("hopf_jones.txt", 0, ["jones", "hopf.json", "--output", "text"]),
    ("open_trefoil_jones.json", 0, ["jones", "open_trefoil.json", "--directions", "50"]),
    ("chainmail_periodic.json", 0, ["periodic-jones", "chainmail.json"]),
    ("chainmail_frozen.json", 0, ["periodic-jones", "chainmail.json",
                                  "--frozen-components", "chainmail_periodic.json"]),
    ("chainmail_cell.json", 0, ["cell-jones", "chainmail.json"]),
    ("chainmail_slk.json", 0, ["slk", "chainmail.json", "--direction", "0.23,1,0.4"]),
    ("chainmail_cutoff.json", 0, ["cutoff-verify", "chainmail.json", "--copies", "2"]),
    ("chainmail_cutoff_oblique.json", 1, ["cutoff-verify", "chainmail.json", "--copies", "2",
                                          "--direction", "0.05,0.1,1"]),
    ("chainmail_normalize.json", 0, ["normalize", "chainmail_periodic.json"]),
    ("jersey_periodic.json", 0, ["periodic-jones", "jersey.json", "--directions", "9",
                                 "--crossing-cap", "64", "--on-cap", "skip"]),
    ("jersey_cell.txt", 0, ["cell-jones", "jersey.json", "--directions", "9",
                            "--output", "text"]),
    ("twill_slk.json", 0, ["slk", "twill.json", "--axis", "0"]),
    ("twill_basepoint.json", 0, ["periodic-jones", "twill.json", "--directions", "4",
                                 "--basepoint-search"]),
    ("melt_ingest.json", 0, ["ingest", "melt.dump", "--system-out", "melt.json"]),
    ("melt_periodic.json", 0, ["periodic-jones", "melt.json", "--directions", "12"]),
    ("melt_cell.json", 0, ["cell-jones", "melt.json", "--directions", "12"]),
]


def write_inputs(directory: Path) -> None:
    write_curves(str(directory / "hopf.json"), list(hopf_link()))
    write_curves(str(directory / "open_trefoil.json"), [open_trefoil(0.5)])
    write_system(str(directory / "chainmail.json"), chainmail_system())
    write_system(str(directory / "jersey.json"), jersey_system())
    write_system(str(directory / "twill.json"), twill_system())
    (directory / "melt.dump").write_text(melt_dump_text())


def run_cases(directory: Path):
    """Run every case in directory; yields (name, exit code, expected code, stdout)."""
    write_inputs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, expected_rc, argv in CASES:
            out = StringIO()
            with redirect_stdout(out):
                rc = main(argv)
            Path(name).write_text(out.getvalue(), encoding="utf-8")
            yield name, rc, expected_rc, out.getvalue()
    finally:
        os.chdir(cwd)


def test_reports_are_byte_identical(tmp_path):
    for name, rc, expected_rc, text in run_cases(tmp_path):
        assert rc == expected_rc, name
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        assert text == golden, f"{name} differs from tests/golden/{name}"


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _, _ in CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, rc, expected_rc, text in run_cases(Path(tmp)):
            if rc != expected_rc:
                sys.exit(f"{name}: exit code {rc}, expected {expected_rc}")
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"wrote tests/golden/{name}")
