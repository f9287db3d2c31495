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

The last three share one runner, ``_solve``, the only code that turns a cell
(one alpha, scheme, splitting and N) into a solver call; a single solve is a
one-cell study, so it passes the :class:`StudyConfig` checks too.

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
import itertools
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from . import weights as wt
from .errors import ParameterError, SolverError, real_number
from .operators import operator_weights
from .problems import (
    EX4_ORDERS,
    ErrorRecord,
    ExampleId,
    attach_rates,
    make_example,
)
from .solve1d import SOURCE_SAMPLING, Solution, SolverConfig1D, cn_wsgd_run, steady_solve_3wsgd
from .solve2d import SPLITTINGS, SolverConfig2D, run_2d
from .spectral import SPECTRAL_SCHEMES, generating_function, scan_sign

__all__ = ["StudyConfig", "main"]

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
    An ``ex4`` study without ``beta`` runs with, and reports, the catalog's.
    Each alpha's problem is built once here, so an order the example refuses
    stops the study before its first solve.
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
            if self.beta is None:
                object.__setattr__(self, "beta", EX4_ORDERS[1])
        elif self.beta is not None or self.splittings:
            raise ParameterError(
                f"example {self.example.value} is 1D; beta and splittings do not apply"
            )
        if self.theta is not None:
            real_number("theta", self.theta)
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
        for alpha in self.alphas:
            make_example(self.example, alpha, self.beta)


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


def _cli_coeffs(args: argparse.Namespace) -> None:
    text = cmd_coeffs(args.alpha, args.scheme, args.count, args.format)
    _emit(text, args.out)


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


def _cli_spectrum(args: argparse.Namespace) -> None:
    body, summary = cmd_spectrum(args.alpha, args.scheme, args.samples)
    _emit(body, args.out)
    sys.stderr.write(summary)


# ---------------------------------------------------------------------------
# The cell runner, and solve1d / solve2d
# ---------------------------------------------------------------------------


def _solve(
    config: StudyConfig, alpha: float, scheme: str, splitting: Optional[str], n: int, m=None
) -> Solution:
    """Run one (alpha, scheme, splitting, N) cell of ``config`` with ``m`` steps (default N).

    The solvers are called as ``(problem, N)`` or ``(problem, config)``
    through this module's attributes, where a tracer can rebind them.
    """
    problem = make_example(config.example, alpha, config.beta)
    m = n if m is None else m
    if config.example is ExampleId.STEADY:
        return steady_solve_3wsgd(problem, n)
    if config.example is ExampleId.TWO_DIMENSIONAL:
        return run_2d(problem, SolverConfig2D(Nx=n, Ny=n, M=m, scheme=scheme, splitting=splitting))
    stepping = {"theta": config.theta, "source_sampling": config.source_sampling}
    stepping = {name: value for name, value in stepping.items() if value is not None}
    return cn_wsgd_run(problem, SolverConfig1D(N=n, M=m, scheme=scheme, **stepping))


def _write_solution(sol: Solution, out: Optional[str]) -> None:
    """Emit ``x,u`` (1D) or ``x,y,u`` (2D) rows and the error summary line."""
    if sol.y is None:
        header, rows = ("x", "u"), zip(sol.x, sol.values)
    else:
        header = ("x", "y", "u")
        rows = ((x, y, u) for (x, y), u in zip(itertools.product(sol.x, sol.y), sol.values.flat))
    _emit(_csv_text(header, (tuple(repr(float(v)) for v in row) for row in rows)), out)
    if sol.max_err_final is not None:
        summary = f"max error {_sci(sol.max_err_final)}; l2 error {_sci(sol.l2_err_final)}"
        sys.stderr.write(summary + "\n")


def _cli_solve1d(args: argparse.Namespace) -> None:
    example = ExampleId.from_tag(args.example)
    if example is ExampleId.TWO_DIMENSIONAL:
        raise ParameterError("example ex4 is two-dimensional; use the solve2d subcommand")
    if example is ExampleId.STEADY:
        names = ("m", "theta", "scheme", "source_sampling")
        given = [name for name in names if getattr(args, name) is not None]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ParameterError(f"example ex0 is the steady pqr solve; {flags} do not apply")
    config = StudyConfig(
        example=example,
        alphas=(args.alpha,),
        schemes=(args.scheme or (wt.PQR if example is ExampleId.STEADY else wt.P1Q0),),
        resolutions=(args.n,),
        theta=args.theta,
        source_sampling=args.source_sampling,
    )
    sol = _solve(config, args.alpha, config.schemes[0], None, args.n, args.m)
    _write_solution(sol, args.out)


def _cli_solve2d(args: argparse.Namespace) -> None:
    example = ExampleId.from_tag(args.example)
    if example is not ExampleId.TWO_DIMENSIONAL:
        raise ParameterError(f"example {example.value} is one-dimensional; use solve1d")
    config = StudyConfig(
        example=example,
        alphas=(args.alpha,),
        schemes=(args.scheme,),
        resolutions=(args.n,),
        beta=args.beta,
        splittings=(args.splitting,),
    )
    sol = _solve(config, args.alpha, args.scheme, args.splitting, args.n, args.m)
    _write_solution(sol, args.out)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _study_blocks(config: StudyConfig):
    """Yield (block label fields, records) per (splitting, scheme, alpha); a record's
    max error is the running one where the run tracked it, else the final-time one."""
    for splitting in config.splittings or (None,):
        for scheme in config.schemes:
            for alpha in config.alphas:
                records = []
                for n in config.resolutions:
                    sol = _solve(config, alpha, scheme, splitting, n)
                    max_err = sol.max_err_running
                    if max_err is None:
                        max_err = sol.max_err_final
                    records.append(ErrorRecord(n, n, max_err, sol.l2_err_final))
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


#: Keys of a study's config file, the long names of the ``converge`` flags.
_STUDY_KEYS = (
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
)


def _load_config_file(path: str) -> dict[str, str]:
    """Parse the flat key-value study config grammar."""
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _STUDY_KEYS:
                raise ParameterError(
                    f"{path}:{lineno}: unknown key {key!r}; known keys: {sorted(_STUDY_KEYS)}"
                )
            entries[key] = value
    return entries


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _resolve_study(args: argparse.Namespace) -> StudyConfig:
    """Merge config-file entries and flags (flags win) into a StudyConfig."""
    settings = _load_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key.replace("-", "_")) for key in _STUDY_KEYS}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    if "example" not in settings:
        raise ParameterError("converge needs an example (flag --example or config key)")
    example = ExampleId.from_tag(settings["example"])
    if "alpha" not in settings:
        raise ParameterError("converge needs at least one alpha")
    if "resolutions" not in settings:
        raise ParameterError("converge needs a resolution list")
    try:
        alphas = tuple(float(a) for a in _split_list(settings["alpha"]))
        resolutions = tuple(int(r) for r in _split_list(settings["resolutions"]))
        beta = float(settings["beta"]) if "beta" in settings else None
        theta = float(settings["theta"]) if "theta" in settings else None
    except ValueError as exc:
        raise ParameterError(f"malformed number: {exc}") from None
    default_scheme = wt.PQR if example is ExampleId.STEADY else wt.P1Q0
    return StudyConfig(
        example=example,
        alphas=alphas,
        schemes=tuple(_split_list(settings.get("scheme") or default_scheme)),
        resolutions=resolutions,
        beta=beta,
        splittings=tuple(_split_list(settings.get("splitting", ""))),
        theta=theta,
        source_sampling=settings.get("source-sampling") or None,
        fmt=settings.get("format") or "csv",
        out=settings.get("out"),
    )


def _cli_converge(args: argparse.Namespace) -> None:
    config = _resolve_study(args)
    try:
        report = cmd_converge(config)
    except (ParameterError, SolverError) as exc:
        raise type(exc)(f"{exc} (example={config.example.value})") from exc
    _emit(report, config.out)


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
    p.add_argument("--alpha", type=float, default=EX4_ORDERS[0])
    p.add_argument("--beta", type=float, default=EX4_ORDERS[1])
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
        args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
