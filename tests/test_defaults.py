"""Every tolerance default is ``errors.DEFAULT_TOLERANCE`` itself.

The checks use identity, not equality: a ``1e-9`` literal written in
another module compiles to another float object, so a default that
copies the value instead of naming the constant fails here.
"""

import dataclasses
import inspect

import pytest

from pbcjones import cli, cutoff, geometry, laurent, pbc
from pbcjones.errors import DEFAULT_TOLERANCE
from pbcjones.jones3d import SamplingConfig

FUNCTION_DEFAULTS = [
    (geometry.project_many, "tol"),
    (geometry.project_translates, "tol"),
    (geometry.project, "tol"),
    (geometry.is_generic, "tol"),
    (laurent.divide_by_d_power, "zero_tol"),
    (pbc.cell_curves, "tol"),
    (pbc.normalized, "zero_tol"),
    (pbc.slk_p, "tol"),
    (cutoff.verify_cutoff_factorization, "tol"),
]

TOLERANCE_COMMANDS = [
    ["jones", "in.json"],
    ["cell-jones", "in.json"],
    ["periodic-jones", "in.json"],
    ["normalize", "in.json"],
    ["slk", "in.json"],
    ["cutoff-verify", "in.json", "--copies", "1"],
]


@pytest.mark.parametrize("func, name", FUNCTION_DEFAULTS,
                         ids=[f"{f.__module__}.{f.__name__}" for f, _ in FUNCTION_DEFAULTS])
def test_function_default(func, name):
    assert inspect.signature(func).parameters[name].default is DEFAULT_TOLERANCE


def test_sampling_config_default():
    field = {f.name: f for f in dataclasses.fields(SamplingConfig)}["tolerance"]
    assert field.default is DEFAULT_TOLERANCE
    assert SamplingConfig().tolerance is DEFAULT_TOLERANCE


@pytest.mark.parametrize("argv", TOLERANCE_COMMANDS, ids=[a[0] for a in TOLERANCE_COMMANDS])
def test_parsed_tolerance_default(argv):
    assert cli.build_parser().parse_args(argv).tolerance is DEFAULT_TOLERANCE


def test_normalization_results_takes_the_tolerance_from_its_caller():
    param = inspect.signature(cli._normalization_results).parameters["tol"]
    assert param.default is inspect.Parameter.empty
