"""The package surface, and the count check every module shares."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsgdiff
from wsgdiff import errors, operators, problems, solve1d, solve2d, spectral, weights
from wsgdiff import (
    P1Q0,
    ParameterError,
    assemble_wsgd_matrix,
    boundary_columns,
    grunwald_coefficients,
    scan_sign,
    shifted_pair_weights,
    verify_weight_properties,
    wsgd2_weights,
    wsgd3_weights,
)

MODULES = (errors, weights, operators, spectral, problems, solve1d, solve2d)


def test_package_exports_each_module_list_once():
    want = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert wsgdiff.__all__ == want
    assert len(set(want)) == len(want)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wsgdiff, name) is getattr(module, name), (module.__name__, name)


def test_problem_records_are_exported_in_order():
    assert problems.__all__[:4] == ["ExampleId", "Problem1D", "Problem2D", "SeparableSource"]
    assert wsgdiff.SeparableSource is problems.SeparableSource


#: Every count a weight, operator or spectral routine takes, as (argument name, call).
_COUNTED = {
    "grunwald_coefficients": ("count", lambda n: grunwald_coefficients(1.5, n)),
    "wsgd2_weights": ("count", lambda n: wsgd2_weights(1.5, P1Q0, n)),
    "wsgd3_weights": ("count", lambda n: wsgd3_weights(1.5, n)),
    "shifted_pair_weights": ("count", lambda n: shifted_pair_weights(1.5, 1, 0, n)),
    "verify_weight_properties": ("count", lambda n: verify_weight_properties(1.5, P1Q0, n)),
    "assemble_wsgd_matrix": ("n", lambda n: assemble_wsgd_matrix(1.5, P1Q0, n).to_dense()),
    "boundary_columns": ("n", lambda n: boundary_columns(1.5, P1Q0, n, 1.0, 0.5)),
    "scan_sign": ("samples", lambda n: scan_sign(1.5, P1Q0, n)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 100.5, 100.0])
@pytest.mark.parametrize("routine", sorted(_COUNTED))
def test_counts_go_through_one_check(routine, value):
    # non-finite and fractional counts used to escape as numpy errors, crash
    # or be truncated; an integral float is the integer it equals
    name, call = _COUNTED[routine]
    if value == 100.0:
        np.testing.assert_equal(call(value), call(100))
    else:
        with pytest.raises(ParameterError, match=f"{name}=.*got {value}"):
            call(value)


@pytest.mark.parametrize("value", ["8", None, [8], 8 + 0j])
@pytest.mark.parametrize("routine", sorted(_COUNTED))
def test_non_numeric_counts_are_parameter_errors(routine, value):
    # np.isfinite used to raise numpy's TypeError for these
    name, call = _COUNTED[routine]
    with pytest.raises(ParameterError, match=rf"{name}=.*\(not a number\)"):
        call(value)


def test_non_numeric_solver_config_counts_name_the_argument():
    with pytest.raises(ParameterError, match=r"N=4 spatial intervals, got '8' \(not a number\)"):
        solve1d.SolverConfig1D(N="8", M=2)
    with pytest.raises(ParameterError, match=r"Nx=4 intervals, got '8' \(not a number\)"):
        solve2d.SolverConfig2D(Nx="8", Ny=8, M=2)
    with pytest.raises(ParameterError, match=r"M=1 time steps, got None \(not a number\)"):
        solve2d.SolverConfig2D(Nx=8, Ny=8, M=None)


def test_fractional_count_says_so():
    with pytest.raises(ParameterError) as caught:
        wsgd2_weights(1.5, P1Q0, 8.5)
    assert str(caught.value) == "need at least count=3 weights, got 8.5 (not a whole number)"
    for value in (2.0, math.nan):
        with pytest.raises(ParameterError) as caught:
            wsgd2_weights(1.5, P1Q0, value)
        assert "whole number" not in str(caught.value)


_NUMPY_ONLY_RUN = """
import sys
from wsgdiff import (
    P1QM1, PQR, SolverConfig1D, SolverConfig2D, assemble_wsgd_matrix,
    certify_negative_definite, cli, cn_wsgd_run, make_example, run_2d,
    steady_solve_3wsgd,
)
from wsgdiff import solve1d

cn_wsgd_run(make_example("ex2", 1.5), SolverConfig1D(N=2 * solve1d._GS_MIN_N, M=4))
cn_wsgd_run(make_example("ex3", 1.5), SolverConfig1D(N=16, M=4, scheme=P1QM1))
steady_solve_3wsgd(make_example("ex0", 1.5), 16)
for splitting in ("pr", "lod"):
    run_2d(make_example("ex4", 1.2, 1.8), SolverConfig2D(Nx=8, Ny=8, M=2, splitting=splitting))
assert not certify_negative_definite(assemble_wsgd_matrix(1.5, PQR, 16))
assert cli.main(["converge", "--example", "ex1", "--alpha", "1.5", "--resolutions", "8,16"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solvers_run_on_numpy_alone(tmp_path):
    # every LAPACK, BLAS and FFT call goes through numpy, so a process that
    # runs each solver, the certification and a study loads no scipy
    paths = (str(Path(wsgdiff.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_RUN],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
