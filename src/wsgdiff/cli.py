"""Command-line front end: weight dumps, spectral scans, solves, and studies.

Subcommands
-----------

- ``coeffs``   : dump a weight sequence as ``k, w_k`` rows.
- ``spectrum`` : sample a generating function on ``[0, pi]`` and dump
  ``x, f`` rows plus a min/max summary line.
- ``solve1d``  : run one 1D benchmark at a single resolution and dump the
  final-time solution as ``x, u`` rows.
- ``solve2d``  : run the 2D benchmark and dump ``x, y, u`` rows.
- ``converge`` : refinement study over a resolution ladder, emitting a
  convergence table (N, max error, rate, L2 error, rate) as CSV or
  markdown.  This is the command that regenerates the reference tables.

Conventions shared by all subcommands: ``--out PATH`` writes the main
output to a file (stdout otherwise), and human-facing text — summary lines,
study progress, errors — always goes to stderr, so stdout carries nothing
but the main output; CSV cells for real numbers use full
``repr`` precision so reports can be parsed back losslessly, while human-
facing summaries and markdown tables use 6-significant-digit scientific
notation.  Exit codes: 0 on success, 2 for usage/parameter errors, 1 for
runtime (solver/IO) failures.  Output is deterministic: re-running a
command with the same configuration produces byte-identical files.

The ``converge`` subcommand also reads a flat key-value config file via
``--config FILE``.  The grammar is one ``key = value`` pair per line,
``#`` starts a comment, blank lines are ignored; keys are the long flag
names (``example``, ``alpha``, ``beta``, ``scheme``, ``splitting``,
``resolutions``, ``theta``, ``source-sampling``, ``format``, ``out``), and
list-valued entries separate items with commas.  Explicit command-line
flags win over config-file entries.

Error-norm conventions in reports: the time-dependent 1D studies report
the maximum-norm error maximized over all time levels and the L2 error at
the final time; the steady and 2D studies report both norms at the final
level.  These match the conventions of the reference tables.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from . import weights as wt
from .errors import ParameterError, SolverError
from .operators import operator_weights
from .problems import (
    ErrorRecord,
    ExampleId,
    attach_rates,
    make_example,
)
from .solve1d import SOURCE_SAMPLING, SolverConfig1D, cn_wsgd_run, steady_solve_3wsgd
from .solve2d import SPLITTINGS, SolverConfig2D, run_2d
from .spectral import SPECTRAL_SCHEMES, generating_function, scan_sign

__all__ = ["StudyConfig", "main", "read_report_csv"]

_FORMATS = ("csv", "md")

#: Column order of convergence-report CSV files.
_REPORT_COLUMNS = (
    "example",
    "scheme",
    "splitting",
    "alpha",
    "beta",
    "N",
    "M",
    "max_err",
    "rate_max",
    "l2_err",
    "rate_l2",
)


def _sci(value: float) -> str:
    """Human-facing scientific notation with 6 significant digits."""
    return f"{value:.5E}"


def _rate_str(rate: Optional[float]) -> str:
    return "" if rate is None else f"{rate:.2f}"


@dataclass(frozen=True)
class StudyConfig:
    """Fully resolved configuration of one convergence study.

    Settings the example would ignore are rejected: ``beta`` or splittings
    in 1D, any scheme but ``"pqr"`` for ``ex0``, and ``theta`` or
    ``source_sampling`` (``None``: the solver's default) for ``ex0``/``ex4``.
    """

    example: ExampleId
    alphas: tuple[float, ...]
    schemes: tuple[str, ...]
    resolutions: tuple[int, ...]
    beta: Optional[float] = None
    splittings: tuple[str, ...] = ()
    theta: Optional[float] = None
    source_sampling: Optional[str] = None
    fmt: str = "csv"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.resolutions:
            raise ParameterError("the resolution list must not be empty")
        for coarse, fine in zip(self.resolutions, self.resolutions[1:]):
            if fine != 2 * coarse:
                raise ParameterError(
                    "resolutions must be strictly increasing with each double the"
                    f" previous (rate columns assume factor 2); got {self.resolutions}"
                )
        if not self.alphas:
            raise ParameterError("need at least one alpha")
        if not self.schemes:
            raise ParameterError("need at least one scheme")
        if self.fmt not in _FORMATS:
            raise ParameterError(f"unknown format {self.fmt!r}; expected one of {_FORMATS!r}")
        allowed = (wt.PQR,) if self.example is ExampleId.STEADY else wt.PAIR_SCHEMES
        for scheme in self.schemes:
            if scheme not in allowed:
                raise ParameterError(
                    f"unsupported scheme {scheme!r} for {self.example.value} studies;"
                    f" expected one of {allowed!r}"
                )
        for splitting in self.splittings:
            if splitting not in SPLITTINGS:
                raise ParameterError(
                    f"unknown splitting {splitting!r}; expected one of {SPLITTINGS!r}"
                )
        if self.example is ExampleId.TWO_DIMENSIONAL:
            if not self.splittings:
                raise ParameterError("2D studies need at least one splitting")
        elif self.beta is not None or self.splittings:
            raise ParameterError(
                f"example {self.example.value} is 1D; beta and splittings do not apply"
            )
        if self.theta is not None and not math.isfinite(self.theta):
            raise ParameterError(f"theta must be finite, got {self.theta}")
        if self.source_sampling not in (None, *SOURCE_SAMPLING):
            raise ParameterError(
                f"unknown source sampling {self.source_sampling!r};"
                f" expected one of {SOURCE_SAMPLING!r}"
            )
        if self.example in (ExampleId.STEADY, ExampleId.TWO_DIMENSIONAL) and (
            self.theta is not None or self.source_sampling is not None
        ):
            raise ParameterError(
                f"example {self.example.value} has no theta-weighted 1D stepping;"
                " theta and source sampling do not apply"
            )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def cmd_coeffs(alpha: float, scheme: str, count: int, fmt: str = "csv") -> str:
    """Render a weight sequence as CSV (full precision) or markdown."""
    values = operator_weights(alpha, scheme, count)
    if fmt == "csv":
        return _csv_text(("k", "w"), ((k, repr(float(v))) for k, v in enumerate(values)))
    lines = [f"| k | w_k ({scheme}, alpha={alpha:g}) |", "| ---: | ---: |"]
    lines += [f"| {k} | {_sci(float(v))} |" for k, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def _cli_coeffs(args: argparse.Namespace) -> int:
    text = cmd_coeffs(args.alpha, args.scheme, args.count, args.format)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(alpha: float, scheme: str, samples: int) -> tuple[str, str]:
    """Sample a generating function; return (CSV text, summary line)."""
    import numpy as np

    scan = scan_sign(alpha, scheme, samples)
    xs = np.linspace(0.0, np.pi, samples)
    fs = generating_function(alpha, scheme, xs)
    body = _csv_text(
        ("x", "f"),
        ((repr(float(x)), repr(float(f))) for x, f in zip(xs, fs)),
    )
    summary = (
        f"min {_sci(scan.min_value)} at x={scan.argmin:.6f};"
        f" max {_sci(scan.max_value)} at x={scan.argmax:.6f};"
        f" sign change: {'yes' if scan.sign_change else 'no'}\n"
    )
    return body, summary


def _cli_spectrum(args: argparse.Namespace) -> int:
    body, summary = cmd_spectrum(args.alpha, args.scheme, args.samples)
    _emit(body, args.out)
    sys.stderr.write(summary)
    return 0


# ---------------------------------------------------------------------------
# solve1d / solve2d
# ---------------------------------------------------------------------------


def _cli_solve1d(args: argparse.Namespace) -> int:
    example = ExampleId.from_tag(args.example)
    if example is ExampleId.TWO_DIMENSIONAL:
        raise ParameterError("example ex4 is two-dimensional; use the solve2d subcommand")
    # Unset stepping flags stay None, so SolverConfig1D's defaults apply and
    # the steady solve can tell a given flag from an absent one.
    stepping = {
        name: getattr(args, name)
        for name in ("m", "theta", "scheme", "source_sampling")
        if getattr(args, name) is not None
    }
    problem = make_example(example, args.alpha)
    if example is ExampleId.STEADY:
        if stepping:
            flags = ", ".join("--" + name.replace("_", "-") for name in stepping)
            raise ParameterError(f"example ex0 is the steady pqr solve; {flags} do not apply")
        sol = steady_solve_3wsgd(problem, args.n)
    else:
        stepping["M"] = stepping.pop("m", args.n)
        sol = cn_wsgd_run(problem, SolverConfig1D(N=args.n, **stepping))
    body = _csv_text(
        ("x", "u"),
        ((repr(float(x)), repr(float(u))) for x, u in zip(sol.x, sol.values)),
    )
    _emit(body, args.out)
    if sol.max_err_final is not None:
        sys.stderr.write(
            f"max error {_sci(sol.max_err_final)}; l2 error {_sci(sol.l2_err_final)}\n"
        )
    return 0


def _cli_solve2d(args: argparse.Namespace) -> int:
    example = ExampleId.from_tag(args.example)
    if example is not ExampleId.TWO_DIMENSIONAL:
        raise ParameterError(f"example {example.value} is one-dimensional; use solve1d")
    problem = make_example(example, args.alpha, args.beta)
    config = SolverConfig2D(
        Nx=args.n,
        Ny=args.n,
        M=args.m if args.m is not None else args.n,
        scheme=args.scheme,
        splitting=args.splitting,
    )
    sol = run_2d(problem, config)
    rows = []
    for i, xv in enumerate(sol.x):
        for j, yv in enumerate(sol.y):
            rows.append((repr(float(xv)), repr(float(yv)), repr(float(sol.values[i, j]))))
    _emit(_csv_text(("x", "y", "u"), rows), args.out)
    if sol.max_err_final is not None:
        sys.stderr.write(
            f"max error {_sci(sol.max_err_final)}; l2 error {_sci(sol.l2_err_final)}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _study_case_errors(
    config: StudyConfig, alpha: float, scheme: str, splitting: Optional[str], n: int
) -> tuple[float, float]:
    """Run one (alpha, scheme, splitting, N) cell and return its error pair."""
    problem = make_example(config.example, alpha, config.beta)
    if config.example is ExampleId.STEADY:
        sol = steady_solve_3wsgd(problem, n)
        return sol.max_err_final, sol.l2_err_final
    if config.example is ExampleId.TWO_DIMENSIONAL:
        sol2 = run_2d(
            problem,
            SolverConfig2D(Nx=n, Ny=n, M=n, scheme=scheme, splitting=splitting),
        )
        return sol2.max_err_final, sol2.l2_err_final
    stepping = {"theta": config.theta, "source_sampling": config.source_sampling}
    sol1 = cn_wsgd_run(
        problem,
        SolverConfig1D(
            N=n,
            M=n,
            scheme=scheme,
            **{name: value for name, value in stepping.items() if value is not None},
        ),
    )
    return sol1.max_err_running, sol1.l2_err_final


def _study_blocks(config: StudyConfig):
    """Yield (block label fields, records) per (splitting, scheme, alpha)."""
    for splitting in config.splittings or (None,):
        for scheme in config.schemes:
            for alpha in config.alphas:
                records = []
                for n in config.resolutions:
                    max_err, l2_err = _study_case_errors(
                        config, alpha, scheme, splitting, n
                    )
                    records.append(ErrorRecord(n, n, max_err, l2_err))
                    sys.stderr.write(
                        f"[{config.example.value}"
                        f"{'/' + splitting if splitting else ''}"
                        f" {scheme} alpha={alpha:g}] N={n} done\n"
                    )
                yield (splitting, scheme, alpha), attach_rates(records)


def cmd_converge(config: StudyConfig) -> str:
    """Run a convergence study and render the report in the configured format."""
    blocks = list(_study_blocks(config))
    beta_cell = "" if config.beta is None else repr(float(config.beta))
    if config.fmt == "csv":
        rows = []
        for (splitting, scheme, alpha), records in blocks:
            for rec in records:
                rows.append(
                    (
                        config.example.value,
                        scheme,
                        splitting or "",
                        repr(float(alpha)),
                        beta_cell,
                        rec.N,
                        rec.M,
                        repr(rec.max_err),
                        "" if rec.rate_max is None else repr(rec.rate_max),
                        repr(rec.l2_err),
                        "" if rec.rate_l2 is None else repr(rec.rate_l2),
                    )
                )
        return _csv_text(_REPORT_COLUMNS, rows)
    lines = []
    for (splitting, scheme, alpha), records in blocks:
        title = f"{config.example.value} {scheme} alpha={alpha:g}"
        if splitting:
            title += f" splitting={splitting}"
        if config.beta is not None:
            title += f" beta={config.beta:g}"
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| N | max error | rate | l2 error | rate |")
        lines.append("| ---: | ---: | ---: | ---: | ---: |")
        for rec in records:
            lines.append(
                f"| {rec.N} | {_sci(rec.max_err)} | {_rate_str(rec.rate_max)}"
                f" | {_sci(rec.l2_err)} | {_rate_str(rec.rate_l2)} |"
            )
        lines.append("")
    return "\n".join(lines)


def read_report_csv(path: str) -> list[ErrorRecord]:
    """Parse a convergence-report CSV back into its ErrorRecord list.

    Full-precision ``repr`` cells round-trip exactly, so the records parsed
    here compare equal to the ones the study computed.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != _REPORT_COLUMNS:
            raise ParameterError(f"{path} is not a convergence report")
        for row in reader:
            records.append(
                ErrorRecord(
                    N=int(row["N"]),
                    M=int(row["M"]),
                    max_err=float(row["max_err"]),
                    l2_err=float(row["l2_err"]),
                    rate_max=float(row["rate_max"]) if row["rate_max"] else None,
                    rate_l2=float(row["rate_l2"]) if row["rate_l2"] else None,
                )
            )
    return records


def _load_config_file(path: str) -> dict[str, str]:
    """Parse the flat key-value study config grammar."""
    known = {
        "example",
        "alpha",
        "beta",
        "scheme",
        "splitting",
        "resolutions",
        "theta",
        "source-sampling",
        "format",
        "out",
    }
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ParameterError(
                    f"{path}:{lineno}: unknown key {key!r}; known keys: {sorted(known)}"
                )
            entries[key] = value
    return entries


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _resolve_study(args: argparse.Namespace) -> StudyConfig:
    """Merge config-file entries and flags (flags win) into a StudyConfig."""
    file_entries = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str):
        return flag_value if flag_value is not None else file_entries.get(key)

    example_raw = pick(args.example, "example")
    if example_raw is None:
        raise ParameterError("converge needs an example (flag --example or config key)")
    example = ExampleId.from_tag(example_raw)
    alphas_raw = pick(args.alpha, "alpha")
    if alphas_raw is None:
        raise ParameterError("converge needs at least one alpha")
    resolutions_raw = pick(args.resolutions, "resolutions")
    if resolutions_raw is None:
        raise ParameterError("converge needs a resolution list")
    beta_raw = pick(args.beta, "beta")
    theta_raw = pick(args.theta, "theta")
    try:
        alphas = tuple(float(a) for a in _split_list(alphas_raw))
        resolutions = tuple(int(r) for r in _split_list(resolutions_raw))
        beta = float(beta_raw) if beta_raw is not None else None
        theta = float(theta_raw) if theta_raw is not None else None
    except ValueError as exc:
        raise ParameterError(f"malformed number: {exc}") from None
    default_scheme = wt.PQR if example is ExampleId.STEADY else wt.P1Q0
    splittings_raw = pick(args.splitting, "splitting")
    return StudyConfig(
        example=example,
        alphas=alphas,
        schemes=tuple(_split_list(pick(args.scheme, "scheme") or default_scheme)),
        resolutions=resolutions,
        beta=beta,
        splittings=tuple(_split_list(splittings_raw)) if splittings_raw else (),
        theta=theta,
        source_sampling=pick(args.source_sampling, "source-sampling") or None,
        fmt=pick(args.format, "format") or "csv",
        out=pick(args.out, "out"),
    )


def _cli_converge(args: argparse.Namespace) -> int:
    config = _resolve_study(args)
    try:
        report = cmd_converge(config)
    except (ParameterError, SolverError) as exc:
        raise type(exc)(f"{exc} (example={config.example.value})") from exc
    _emit(report, config.out)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsgdiff",
        description="Weighted-shift difference operators for two-sided fractional"
        " diffusion: weight dumps, spectral scans, solvers, convergence studies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dump a weight sequence")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", choices=wt.SCHEME_TAGS, default=wt.P1Q0)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cli_coeffs)

    p = sub.add_parser("spectrum", help="sample a generating function on [0, pi]")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", choices=SPECTRAL_SCHEMES, default=wt.P1Q0)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cli_spectrum)

    p = sub.add_parser("solve1d", help="run a 1D benchmark at one resolution")
    p.add_argument("--example", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", choices=wt.PAIR_SCHEMES, default=None)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=None, help="time steps (defaults to N)")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--source-sampling", choices=SOURCE_SAMPLING, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cli_solve1d)

    p = sub.add_parser("solve2d", help="run the 2D benchmark at one resolution")
    p.add_argument("--example", default="ex4")
    p.add_argument("--alpha", type=float, default=1.2)
    p.add_argument("--beta", type=float, default=1.8)
    p.add_argument("--scheme", choices=wt.PAIR_SCHEMES, default=wt.P1Q0)
    p.add_argument("--splitting", choices=SPLITTINGS, default="pr")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--m", type=int, default=None, help="time steps (defaults to N)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cli_solve2d)

    p = sub.add_parser("converge", help="refinement study reproducing a reference table")
    p.add_argument("--config", default=None, help="flat key=value study file")
    p.add_argument("--example", default=None)
    p.add_argument("--alpha", default=None, help="comma-separated list")
    p.add_argument("--beta", default=None)
    p.add_argument("--scheme", default=None, help="comma-separated list")
    p.add_argument("--splitting", default=None, help="comma-separated list (2D only)")
    p.add_argument("--resolutions", default=None, help="comma-separated doubling ladder")
    p.add_argument("--theta", default=None)
    p.add_argument("--source-sampling", dest="source_sampling", default=None)
    p.add_argument("--format", default=None, choices=_FORMATS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cli_converge)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
