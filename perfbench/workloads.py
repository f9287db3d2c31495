"""Workloads, reference errors and the correctness gate of the benchmark.

A workload is a list of blocks.  A block is one ladder of grids for one
(example, scheme, splitting, alpha): the benchmark runs it as one
``wsgdiff.cli.cmd_converge`` call, so the ladder keeps the doubling order
that observed rates need.  The seed shuffles the order of the blocks and
changes nothing the checks depend on.

Every cell is checked against a reference before its time counts: the
frozen tables in ``tests/_tables.py`` (read, never edited), or, for cells
beyond them, ``references.json`` next to this file.  Those extra cells must
also show second order against the previous rung of their ladder.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLES_PATH = ROOT / "tests" / "_tables.py"
OWN_REFERENCES_PATH = HERE / "references.json"

#: Relative error tolerances of the acceptance suite.
TOL_1D = 0.01
TOL_2D = 0.02
#: Observed order a cell beyond the frozen tables must show against the
#: previous rung (the dense path measured 1.998 to 2.004).
ORDER_RANGE = (1.95, 2.05)

#: (example, scheme, splitting, alpha, N); splitting is "" in 1D.
CellKey = tuple[str, str, str, float, int]


@dataclass(frozen=True)
class Block:
    """One resolution ladder of one convergence study."""

    example: str
    scheme: str
    alpha: float
    resolutions: tuple[int, ...]
    splitting: str = ""
    beta: Optional[float] = None

    @property
    def label(self) -> str:
        where = f"/{self.splitting}" if self.splitting else ""
        return f"{self.example}{where} {self.scheme} alpha={self.alpha:g}"

    @property
    def tolerance(self) -> float:
        return TOL_2D if self.example == "ex4" else TOL_1D

    def key(self, n: int) -> CellKey:
        return (self.example, self.scheme, self.splitting, self.alpha, n)


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: tuple[Block, ...]

    @property
    def finest_n(self) -> int:
        """The largest grid: its cells give ``finest_cell_s`` and ``finest_max_err``."""
        return max(b.resolutions[-1] for b in self.blocks)

    def ordered_blocks(self, seed: int, index: int) -> list[Block]:
        """The blocks of study ``index`` of a run, in the order its seed picks."""
        blocks = list(self.blocks)
        random.Random(f"{self.name}:{seed}:{index}").shuffle(blocks)
        return blocks


def _doubling(first: int, last: int) -> tuple[int, ...]:
    out = [first]
    while out[-1] < last:
        out.append(2 * out[-1])
    return tuple(out)


def _blocks(example, schemes, alphas, resolutions) -> tuple[Block, ...]:
    return tuple(Block(example, s, a, resolutions) for s in schemes for a in alphas)


_BOTH = ("p1q0", "p1qm1")
_ALPHAS = (1.1, 1.5, 1.9)

WORKLOADS = {
    # Large 1D grids: the dense per-step solve and right-hand-side product
    # dominate.  ex3 has variable coefficients, so a constant-coefficient
    # fast path that slows it shows here.
    "ladder1d": Workload(
        "ladder1d",
        (
            Block("ex2", "p1q0", 1.5, _doubling(256, 2048)),
            Block("ex3", "p1q0", 1.5, _doubling(256, 1024)),
        ),
    ),
    # The paper's 1D tables: 114 small cells where per-step Python overhead,
    # source evaluation and norms outweigh the linear algebra.
    "tables1d": Workload(
        "tables1d",
        _blocks("ex0", ("pqr",), (1.1, 1.9), _doubling(8, 256))
        + _blocks("ex1", _BOTH, _ALPHAS, _doubling(16, 512))
        + _blocks("ex2", _BOTH, _ALPHAS, _doubling(16, 512))
        + _blocks("ex3", _BOTH, _ALPHAS, _doubling(16, 256)),
    ),
    # 2D splittings: many right-hand sides per sweep (BLAS-3), dense
    # products on (N-1)^2 arrays, and the heaviest source evaluation.
    "adi2d": Workload(
        "adi2d",
        (
            Block("ex4", "p1q0", 1.2, _doubling(64, 256), "pr", 1.8),
            Block("ex4", "p1q0", 1.2, _doubling(64, 128), "lod", 1.8),
        ),
    ),
}


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    max_err: float
    l2_err: float
    #: True for cells beyond the frozen tables, which also need an order check.
    extended: bool = False


def load_references() -> dict[CellKey, Reference]:
    """Frozen table rows plus this benchmark's own rows, keyed by cell."""
    spec = importlib.util.spec_from_file_location("_frozen_tables", TABLES_PATH)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    refs: dict[CellKey, Reference] = {}

    def add(example, scheme, splitting, alpha, rows):
        for n, max_err, _, l2_err, _ in rows:
            refs[(example, scheme, splitting, alpha, n)] = Reference(max_err, l2_err)

    for alpha, rows in tables.STEADY.items():
        add("ex0", "pqr", "", alpha, rows)
    for example, table in (("ex1", tables.EX1), ("ex2", tables.EX2), ("ex3", tables.EX3)):
        for scheme, by_alpha in table.items():
            for alpha, rows in by_alpha.items():
                add(example, scheme, "", alpha, rows)
    # The 2D tables are for the catalog's default orders alpha=1.2, beta=1.8.
    for splitting, by_scheme in tables.EX4.items():
        for scheme, rows in by_scheme.items():
            add("ex4", scheme, splitting, 1.2, rows)

    for cell in json.loads(OWN_REFERENCES_PATH.read_text())["cells"]:
        key = (cell["example"], cell["scheme"], cell["splitting"], cell["alpha"], cell["N"])
        refs[key] = Reference(cell["max_err"], cell["l2_err"], extended=True)
    return refs


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    key: CellKey
    max_err: Optional[float]
    l2_err: Optional[float]
    failure: str = ""

    @property
    def ok(self) -> bool:
        return not self.failure


def _report_errors(block: Block, report: str) -> dict[int, tuple[float, float]]:
    """Error pairs by N from a CSV convergence report, for this block's rows."""
    errors = {}
    for row in csv.DictReader(io.StringIO(report)):
        if (
            row["example"] == block.example
            and row["scheme"] == block.scheme
            and row["splitting"] == block.splitting
            and float(row["alpha"]) == block.alpha
        ):
            errors[int(row["N"])] = (float(row["max_err"]), float(row["l2_err"]))
    return errors


def _cell_failure(
    block: Block,
    ref: Optional[Reference],
    got: Optional[tuple[float, float]],
    previous: Optional[tuple[float, float]],
) -> str:
    if got is None:
        return "missing from the report"
    if not all(math.isfinite(e) for e in got):
        return f"non-finite error {got}"
    if ref is None:
        return "no reference to check against"
    tol = block.tolerance
    for label, value, want in (("max", got[0], ref.max_err), ("l2", got[1], ref.l2_err)):
        if not abs(value - want) <= tol * abs(want):
            return f"{label} error {value:.6e} misses reference {want:.6e} by more than {tol:.0%}"
    if ref.extended:
        if previous is None or not all(math.isfinite(e) and e > 0.0 for e in previous + got):
            return "no usable previous rung for the order check"
        low, high = ORDER_RANGE
        for label, coarse, fine in zip(("max", "l2"), previous, got):
            order = math.log2(coarse / fine)
            if not low <= order <= high:
                return f"observed {label} order {order:.4f} outside [{low}, {high}]"
    return ""


def grade_block(block: Block, refs: dict[CellKey, Reference], outcome) -> list[CellResult]:
    """Check every cell of a block; ``outcome`` is the CSV report or the exception raised."""
    if isinstance(outcome, BaseException):
        reason = f"study raised {type(outcome).__name__}: {outcome}"
        return [CellResult(block.key(n), None, None, reason) for n in block.resolutions]
    errors = _report_errors(block, outcome)
    results = []
    previous = None
    for n in block.resolutions:
        got = errors.get(n)
        failure = _cell_failure(block, refs.get(block.key(n)), got, previous)
        results.append(CellResult(block.key(n), *(got or (None, None)), failure))
        previous = got
    return results


def _synthetic_report(block: Block, errors: dict[int, tuple[float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("example", "scheme", "splitting", "alpha", "N", "max_err", "l2_err"))
    for n, (max_err, l2_err) in errors.items():
        row = (block.example, block.scheme, block.splitting, repr(block.alpha), n)
        writer.writerow(row + (repr(max_err), repr(l2_err)))
    return buf.getvalue()


def gate_self_check(refs: dict[CellKey, Reference]) -> list[str]:
    """Show that the gate passes reference values and trips on bad cells.

    For the largest cell of every block: reference errors pass; an error off
    by one point more than the tolerance (2% in 1D), a NaN error, and a study
    that raises must each fail.  Returns the expectations that did not hold.
    """
    problems = []
    for block in dict.fromkeys(b for workload in WORKLOADS.values() for b in workload.blocks):
        n = block.resolutions[-1]
        good = {}
        for m in block.resolutions:
            ref = refs[block.key(m)]
            good[m] = (ref.max_err, ref.l2_err)
        if not all(r.ok for r in grade_block(block, refs, _synthetic_report(block, good))):
            problems.append(f"{block.label}: the gate rejects the reference errors")
        off = 1.0 + block.tolerance + 0.01
        bad_cases = {
            f"error {off - 1.0:.0%} off": {**good, n: (good[n][0] * off, good[n][1])},
            "NaN error": {**good, n: (good[n][0], math.nan)},
        }
        for label, errors in bad_cases.items():
            if grade_block(block, refs, _synthetic_report(block, errors))[-1].ok:
                problems.append(f"{block.label} N={n}: the gate passes a cell with {label}")
        if any(r.ok for r in grade_block(block, refs, RuntimeError("self-check"))):
            problems.append(f"{block.label}: the gate passes cells of a study that raised")
    return problems
