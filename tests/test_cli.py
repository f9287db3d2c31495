"""Command-line interface: output formats, exit codes, config-file grammar,
report round-trips, and determinism."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsgdiff
from wsgdiff import ParameterError
from wsgdiff.cli import StudyConfig, cmd_converge, main, read_report_csv
from wsgdiff.problems import ExampleId

from oracles import binomial_gl
from _tables import STEADY


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_classical_values(capsys):
    rc = main(["coeffs", "--alpha", "2.0", "--scheme", "p1q0", "--count", "4"])
    assert rc == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[0] == ["k", "w"]
    got = [float(r[1]) for r in rows[1:]]
    assert got == [1.0, -2.0, 1.0, 0.0]
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2, 3]


def test_coeffs_base_sequence_matches_oracle(capsys):
    rc = main(["coeffs", "--alpha", "1.5", "--scheme", "gl", "--count", "10"])
    assert rc == 0
    rows = _parse_csv(capsys.readouterr().out)
    got = np.array([float(r[1]) for r in rows[1:]])
    np.testing.assert_allclose(got, binomial_gl(1.5, 10), rtol=0, atol=1e-14)


def test_coeffs_markdown_format(capsys):
    rc = main(["coeffs", "--alpha", "1.5", "--count", "3", "--format", "md"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| 0 | 7.50000E-01 |" in out
    assert "| 2 | -9.37500E-02 |" in out


def test_coeffs_out_file(tmp_path, capsys):
    target = tmp_path / "w.csv"
    rc = main(["coeffs", "--alpha", "1.5", "--count", "3", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    rows = _parse_csv(target.read_text())
    assert float(rows[1][1]) == 0.75


def test_coeffs_rejects_out_of_range_order(capsys):
    rc = main(["coeffs", "--alpha", "2.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "fractional order" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_degenerate_order_upwind_pair(capsys):
    rc = main(["spectrum", "--alpha", "1.0", "--scheme", "p1q0", "--samples", "128"])
    assert rc == 0
    captured = capsys.readouterr()
    body, summary = captured.out, captured.err
    fs = [abs(float(r[1])) for r in _parse_csv(body)[1:]]
    assert max(fs) <= 1e-14
    assert "sign change: no" in summary


def test_spectrum_degenerate_order_centered_pair(capsys):
    rc = main(["spectrum", "--alpha", "1.0", "--scheme", "p1qm1", "--samples", "256"])
    assert rc == 0
    rows = _parse_csv(capsys.readouterr().out)[1:]
    assert len(rows) == 256
    xs = np.array([float(r[0]) for r in rows])
    fs = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(fs, -2.0 * np.sin(xs / 2.0) ** 4, rtol=0, atol=1e-12)


def test_spectrum_triple_scheme_reports_sign_change(tmp_path, capsys):
    target = tmp_path / "f.csv"
    rc = main(
        ["spectrum", "--alpha", "1.5", "--scheme", "pqr", "--samples", "4096", "--out", str(target)]
    )
    assert rc == 0
    summary = capsys.readouterr().err
    assert "sign change: yes" in summary
    assert "max 3.53553E-01" in summary
    assert len(_parse_csv(target.read_text())) == 4097


def test_spectrum_rejects_base_scheme():
    # the raw coefficient sequence has no closed-form symbol: argparse usage error
    rc = main(["spectrum", "--alpha", "1.5", "--scheme", "gl"])
    assert rc == 2


# ---------------------------------------------------------------------------
# solve1d / solve2d
# ---------------------------------------------------------------------------


def test_solve1d_steady_summary_and_solution(tmp_path, capsys):
    target = tmp_path / "u.csv"
    rc = main(
        ["solve1d", "--example", "ex0", "--alpha", "1.1", "--n", "8", "--out", str(target)]
    )
    assert rc == 0
    summary = capsys.readouterr().err
    assert summary.startswith("max error ")
    max_err = float(summary.split("max error ")[1].split(";")[0])
    l2_err = float(summary.split("l2 error ")[1].strip())
    want = STEADY[1.1][0]
    assert max_err == pytest.approx(want[1], rel=1e-3)
    assert l2_err == pytest.approx(want[3], rel=1e-3)
    rows = _parse_csv(target.read_text())
    assert rows[0] == ["x", "u"]
    assert len(rows) == 10
    assert float(rows[1][1]) == 0.0
    assert float(rows[-1][1]) == 1.0


def test_solve1d_time_dependent_runs(capsys):
    rc = main(["solve1d", "--example", "ex1", "--alpha", "1.5", "--n", "16", "--m", "8"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "max error" in captured.err
    rows = _parse_csv(captured.out)
    assert len(rows) == 18  # header + 17 nodes


def test_solve1d_rejects_2d_example(capsys):
    rc = main(["solve1d", "--example", "ex4", "--alpha", "1.5"])
    assert rc == 2
    assert "two-dimensional" in capsys.readouterr().err


def test_solve2d_rejects_1d_example(capsys):
    rc = main(["solve2d", "--example", "ex1"])
    assert rc == 2
    assert "one-dimensional" in capsys.readouterr().err


def test_solve2d_full_grid_output(tmp_path, capsys):
    target = tmp_path / "u2.csv"
    rc = main(["solve2d", "--n", "8", "--m", "4", "--out", str(target)])
    assert rc == 0
    assert "max error" in capsys.readouterr().err
    rows = _parse_csv(target.read_text())
    assert rows[0] == ["x", "y", "u"]
    assert len(rows) == 1 + 81
    # boundary frame is identically zero for the catalog 2D problem
    corner_vals = [float(r[2]) for r in rows[1:] if r[0] in ("0.0", "1.0")]
    assert corner_vals and all(v == 0.0 for v in corner_vals)


@pytest.mark.parametrize(
    "extra",
    [["--scheme", "p1qm1"], ["--theta", "0.2"], ["--m", "4"], ["--source-sampling", "midpoint"]],
)
def test_solve1d_rejects_stepping_flags_for_steady_example(capsys, extra):
    # the steady pqr solve used to ignore each of these and exit 0
    rc = main(["solve1d", "--example", "ex0", "--alpha", "1.5", "--n", "8", *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{extra[0]} do not apply" in captured.err
    assert captured.out == ""


def test_solve1d_explicit_defaults_match_omitted_flags(capsys):
    base = ["solve1d", "--example", "ex1", "--alpha", "1.5", "--n", "16"]
    assert main(base) == 0
    omitted = capsys.readouterr()
    defaults = ["--m", "16", "--theta", "0.5", "--scheme", "p1q0", "--source-sampling", "average"]
    assert main([*base, *defaults]) == 0
    assert capsys.readouterr() == omitted


@pytest.mark.parametrize(
    "command",
    [
        ["solve2d", "--n", "8"],
        ["converge", "--example", "ex4", "--alpha", "1.2", "--beta", "1.8", "--resolutions", "8,16"],
    ],
)
def test_full_splitting_is_a_usage_error(capsys, command):
    # the dense Kronecker splitting is gone; both commands used to run it for N <= 16
    assert main([*command, "--splitting", "full"]) == 2
    captured = capsys.readouterr()
    assert "'full'" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_steady_reproduces_reference_rows(tmp_path, capsys):
    report = tmp_path / "steady.csv"
    rc = main(
        [
            "converge",
            "--example",
            "ex0",
            "--alpha",
            "1.1",
            "--resolutions",
            "8,16,32",
            "--out",
            str(report),
        ]
    )
    assert rc == 0
    progress = capsys.readouterr().err
    assert "[ex0 pqr alpha=1.1] N=8 done" in progress
    assert "[ex0 pqr alpha=1.1] N=32 done" in progress
    records = read_report_csv(str(report))
    assert len(records) == 3
    for rec, want in zip(records, STEADY[1.1][:3]):
        assert rec.N == want[0]
        assert rec.max_err == pytest.approx(want[1], rel=1e-3)
        assert rec.l2_err == pytest.approx(want[3], rel=1e-3)
    assert records[0].rate_max is None
    assert records[1].rate_max == pytest.approx(STEADY[1.1][1][2], abs=0.05)
    assert records[2].rate_l2 == pytest.approx(STEADY[1.1][2][4], abs=0.05)


def test_converge_deterministic_reruns(tmp_path):
    args = [
        "converge",
        "--example",
        "ex0",
        "--alpha",
        "1.9",
        "--resolutions",
        "8,16",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_converge_report_roundtrip_is_exact(tmp_path):
    report = tmp_path / "r.csv"
    assert (
        main(
            [
                "converge",
                "--example",
                "ex1",
                "--alpha",
                "1.5",
                "--scheme",
                "p1qm1",
                "--resolutions",
                "8,16",
                "--out",
                str(report),
            ]
        )
        == 0
    )
    first = read_report_csv(str(report))
    second = read_report_csv(str(report))
    assert first == second
    assert first[1].rate_max is not None


def test_converge_stdout_is_only_the_report(tmp_path, capsys):
    # progress goes to stderr, so `wsgdiff converge ... > t.csv` parses back
    args = ["converge", "--example", "ex1", "--alpha", "1.5", "--resolutions", "8,16"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "[ex1 p1q0 alpha=1.5] N=16 done" in captured.err
    piped, written = tmp_path / "piped.csv", tmp_path / "written.csv"
    piped.write_text(captured.out)
    assert main(args + ["--out", str(written)]) == 0
    assert piped.read_text() == written.read_text()
    assert [rec.N for rec in read_report_csv(str(piped))] == [8, 16]


@pytest.mark.parametrize(
    "flag,value", [("--theta", "abc"), ("--beta", "xyz"), ("--alpha", "1.5,x")]
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_converge_malformed_number_is_usage_error(tmp_path, capsys, flag, value, source):
    args = ["converge", "--example", "ex4", "--splitting", "pr", "--resolutions", "8,16"]
    settings = {"--alpha": "1.2", flag: value}
    if source == "flag":
        args += [item for pair in settings.items() for item in pair]
    else:
        cfg = tmp_path / "study.cfg"
        cfg.write_text("".join(f"{key[2:]} = {val}\n" for key, val in settings.items()))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert "malformed number" in capsys.readouterr().err


def test_converge_rejects_unknown_source_sampling(capsys):
    rc = main(
        [
            "converge",
            "--example",
            "ex4",
            "--alpha",
            "1.2",
            "--splitting",
            "pr",
            "--resolutions",
            "8,16",
            "--source-sampling",
            "bogus",
        ]
    )
    assert rc == 2
    assert "unknown source sampling" in capsys.readouterr().err


def test_converge_markdown_output(capsys):
    rc = main(
        [
            "converge",
            "--example",
            "ex0",
            "--alpha",
            "1.5",
            "--resolutions",
            "8,16",
            "--format",
            "md",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "## ex0 pqr alpha=1.5" in out
    assert "| N | max error | rate | l2 error | rate |" in out


def test_converge_2d_study_includes_splitting_column(tmp_path, capsys):
    report = tmp_path / "r2.csv"
    rc = main(
        [
            "converge",
            "--example",
            "ex4",
            "--alpha",
            "1.2",
            "--beta",
            "1.8",
            "--splitting",
            "pr",
            "--resolutions",
            "8,16",
            "--out",
            str(report),
        ]
    )
    assert rc == 0
    assert "[ex4/pr p1q0 alpha=1.2] N=16 done" in capsys.readouterr().err
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["splitting"] == "pr" for row in rows)
    assert all(row["beta"] == "1.8" for row in rows)


def test_converge_rejects_2d_without_splitting(capsys):
    rc = main(
        ["converge", "--example", "ex4", "--alpha", "1.2", "--resolutions", "8,16"]
    )
    assert rc == 2
    assert "splitting" in capsys.readouterr().err


def test_converge_rejects_non_doubling_resolutions(capsys):
    rc = main(
        ["converge", "--example", "ex0", "--alpha", "1.5", "--resolutions", "8,24"]
    )
    assert rc == 2
    assert "double the previous" in capsys.readouterr().err


def test_converge_requires_core_settings(capsys):
    rc = main(["converge", "--example", "ex0", "--alpha", "1.5"])
    assert rc == 2
    assert "resolution list" in capsys.readouterr().err


def test_converge_rejects_triple_scheme_for_studies(capsys):
    rc = main(
        [
            "converge",
            "--example",
            "ex1",
            "--alpha",
            "1.5",
            "--scheme",
            "pqr",
            "--resolutions",
            "8,16",
        ]
    )
    assert rc == 2
    assert "unsupported scheme" in capsys.readouterr().err


@pytest.mark.parametrize(
    "example,extra,message",
    [
        ("ex1", ["--beta", "1.7"], "beta and splittings"),
        ("ex2", ["--splitting", "pr"], "beta and splittings"),
        ("ex4", ["--splitting", "pr", "--theta", "nan"], "theta must be finite"),
        ("ex0", ["--scheme", "p1qm1"], "unsupported scheme"),
        ("ex1", ["--scheme", ","], "at least one scheme"),
    ],
)
def test_converge_rejects_settings_the_example_ignores(capsys, example, extra, message):
    # each of these used to run, ignore the setting (or run nothing), and exit 0
    rc = main(["converge", "--example", example, "--alpha", "1.5", "--resolutions", "8,16", *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_study_config_checks_direct_construction():
    # configs built without the CLI, as a script or benchmark would
    def study(example, **kw):
        fields = dict(alphas=(1.5,), schemes=("p1q0",), resolutions=(8, 16)) | kw
        return StudyConfig(example=ExampleId.from_tag(example), **fields)

    study("ex0", schemes=("pqr",))
    study("ex4", alphas=(1.2,), beta=1.8, splittings=("pr",))
    study("ex2", schemes=("p1q0", "p1qm1"))
    for bad in (
        dict(example="ex0"),
        dict(example="ex1", schemes=()),
        dict(example="ex0", schemes=("pqr", "p1q0")),
        dict(example="ex1", schemes=("pqr",)),
        dict(example="ex1", beta=1.7),
        dict(example="ex3", theta=float("inf")),
        dict(example="ex4", splittings=("pr", "bogus")),
        dict(example="ex4", splittings=("pr",), theta=float("nan")),
    ):
        with pytest.raises(ParameterError):
            study(**bad)


_STEPPING_STUDIES = {
    "ex0": ["--example", "ex0", "--alpha", "1.5"],
    "ex4": ["--example", "ex4", "--alpha", "1.2", "--beta", "1.8", "--splitting", "pr"],
}


@pytest.mark.parametrize(
    "setting", [("theta", "0.2"), ("source-sampling", "midpoint")], ids=["theta", "sampling"]
)
@pytest.mark.parametrize("example", sorted(_STEPPING_STUDIES))
@pytest.mark.parametrize("source", ["flag", "config"])
def test_converge_rejects_stepping_settings_without_1d_stepping(
    tmp_path, capsys, source, example, setting
):
    # the steady solve and the 2D splittings never read theta or the source
    # sampling; both used to be accepted, ignored, and exit 0
    key, value = setting
    args = ["converge", *_STEPPING_STUDIES[example], "--resolutions", "8,16"]
    if source == "flag":
        args += [f"--{key}", value]
    else:
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "theta and source sampling do not apply" in captured.err
    assert captured.out == ""


def test_study_config_passes_only_set_stepping_settings():
    def study(example, **kw):
        fields = dict(alphas=(1.5,), schemes=("p1q0",), resolutions=(8, 16)) | kw
        return StudyConfig(example=ExampleId.from_tag(example), **fields)

    for bad in (
        dict(example="ex0", schemes=("pqr",), theta=0.5),
        dict(example="ex0", schemes=("pqr",), source_sampling="average"),
        dict(example="ex4", alphas=(1.2,), beta=1.8, splittings=("pr",), theta=0.5),
        dict(example="ex4", alphas=(1.2,), beta=1.8, splittings=("pr",), source_sampling="midpoint"),
    ):
        with pytest.raises(ParameterError, match="do not apply"):
            study(**bad)
    # unset settings take the solver's defaults; set ones reach the solver
    default = cmd_converge(study("ex1"))
    assert cmd_converge(study("ex1", theta=0.5, source_sampling="average")) == default
    assert cmd_converge(study("ex1", theta=1.0)) != default
    assert cmd_converge(study("ex1", source_sampling="midpoint")) != default


def test_converge_steady_accepts_explicit_triple_scheme(capsys):
    args = ["converge", "--example", "ex0", "--alpha", "1.5", "--resolutions", "8,16"]
    rc = main(args + ["--scheme", "pqr"])
    assert rc == 0
    assert all(row[1] == "pqr" for row in _parse_csv(capsys.readouterr().out)[1:])


def test_read_report_rejects_foreign_csv(tmp_path):
    bogus = tmp_path / "other.csv"
    bogus.write_text("a,b\n1,2\n")
    with pytest.raises(ParameterError, match="not a convergence report"):
        read_report_csv(str(bogus))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_drives_study(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# steady reference study\n"
        "example = ex0\n"
        "alpha = 1.5\n"
        "resolutions = 8,16\n"
        "format = md\n"
    )
    rc = main(["converge", "--config", str(cfg)])
    assert rc == 0
    assert "## ex0 pqr alpha=1.5" in capsys.readouterr().out


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("example = ex0\nalpha = 1.5\nresolutions = 8,16\nformat = md\n")
    rc = main(["converge", "--config", str(cfg), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "example,scheme,splitting" in out
    assert "##" not in out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("example = ex0\nwidth = 3\n")
    rc = main(["converge", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "study.cfg:2" in err


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("example ex0\n")
    rc = main(["converge", "--config", str(cfg)])
    assert rc == 2
    assert "expected 'key = value'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# top-level behavior
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert "wsgdiff" in capsys.readouterr().out


def test_module_entry_point_runs(tmp_path):
    # run the package the tests import, wherever it was loaded from
    paths = (str(Path(wsgdiff.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-m", "wsgdiff", "--version"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"wsgdiff {wsgdiff.__version__}"


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_unwritable_out_path_is_runtime_error(tmp_path, capsys):
    rc = main(
        [
            "coeffs",
            "--alpha",
            "1.5",
            "--out",
            str(tmp_path / "missing-dir" / "w.csv"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
