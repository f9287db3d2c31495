"""Benchmark of wsgdiff's convergence studies, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ladder1d --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  Load is a closed loop with one
client: each study runs in a fresh interpreter (``study.py``), its cells
back to back in one single-threaded process, and the next study starts
when the previous one has ended.  BLAS keeps its default thread count; the
record shows it.  Studies start while the time left is at least the
longest study so far; an untraced run makes at least three, a traced run
at least one untraced/traced pair.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's studies: ``study_s``, ``finest_cell_s``, ``setup_s`` (also sampled by
extra interpreters that stop before the first solve), ``peak_rss_mib``,
``finest_max_err`` and ``cell_pass_frac``.  ``--trace 1`` alternates
untraced and traced studies and reports, per boundary of ``tracer.py``,
calls and self time, the computed LU work, and the tracing overhead.

Every cell is checked against its reference (``workloads.py``); a failed
cell never counts as a timed success.  The human-readable report goes to
stderr, a full record to ``.perfbench-out/``, and the last line of stdout is
the JSON result.  Exit status: 0 when every cell passes, 1 when any cell
fails, 2 when the benchmark cannot run (no wsgdiff sources, a study that
crashed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import BOUNDARIES, COUNTERS
from workloads import (
    HERE,
    ROOT,
    SRC,
    TABLES_PATH,
    WORKLOADS,
    gate_self_check,
    load_references,
)

OUT_DIR = ROOT / ".perfbench-out"
#: Studies per untraced run at least, however short --seconds is: the
#: medians of the two largest workloads need three.
MIN_STUDIES = 3
SETUP_PROBES = 3
STUDY_TIMEOUT_S = 150.0


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _log(text: str = "") -> None:
    print(text, file=sys.stderr, flush=True)


def _spawn(tmp: Path, workload: str, seed: int, index: int, mode: str) -> dict:
    """Run one study (or set-up probe) in a fresh interpreter and load its record."""
    record = tmp / f"{mode}-{index}.json"
    command = [
        sys.executable, str(HERE / "study.py"),
        "--workload", workload, "--seed", str(seed), "--index", str(index),
        "--mode", mode, "--record", str(record),
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--t0", repr(t0)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=STUDY_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} {index} took longer than {STUDY_TIMEOUT_S:.0f} s") from None
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not record.exists():
        raise BenchmarkError(
            f"{mode} {index} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(record.read_text())
    result["wall_s"] = wall
    # Progress text of the program, on either stream, stays out of the result.
    result["progress_lines"] = {
        "stdout": len(proc.stdout.splitlines()),
        "stderr": len(proc.stderr.splitlines()),
    }
    return result


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _studies(tmp, args, traced: bool) -> list[dict]:
    """Closed loop: the next study (or untraced/traced pair) starts after the last ends."""
    begin = time.monotonic()
    studies: list[dict] = []
    longest = 0.0
    rounds = 0
    while rounds < (1 if traced else MIN_STUDIES) or (
        time.monotonic() - begin + longest <= args.seconds
    ):
        start = time.monotonic()
        studies.append(_spawn(tmp, args.workload, args.seed, rounds, "study"))
        if traced:
            studies.append(_spawn(tmp, args.workload, args.seed, rounds, "traced"))
        longest = max(longest, time.monotonic() - start)
        rounds += 1
    return studies


def _cells(studies):
    return [cell for study in studies for cell in study["cells"]]


def _end_to_end(studies, probes, workload) -> dict:
    cells = _cells(studies)
    passing = [s for s in studies if not any(c["failure"] for c in s["cells"])]
    # Several blocks may reach the largest grid (12 in tables1d): their
    # solves are summed per study, and the worst of their errors is kept.
    finest = [[c for c in s["cells"] if c["key"][4] == workload.finest_n] for s in passing]
    return {
        "study_s": (_median(s["study_s"] for s in passing), "s", len(passing)),
        "finest_cell_s": (
            _median(sum(c["seconds"] for c in f) for f in finest),
            "s",
            len(finest),
        ),
        "setup_s": (
            _median(r["setup_s"] for r in probes + studies),
            "s",
            len(probes) + len(studies),
        ),
        "peak_rss_mib": (_median(s["peak_rss_mib"] for s in studies), "MiB", len(studies)),
        "finest_max_err": (
            _median(max(c["max_err"] for c in f) for f in finest),
            "1",
            len(finest),
        ),
        "cell_pass_frac": (
            sum(not c["failure"] for c in cells) / len(cells),
            "1",
            len(cells),
        ),
    }


def _per_layer(studies) -> dict:
    traced = [s for s in studies if s["mode"] == "traced"]
    untraced = [s for s in studies if s["mode"] == "study"]
    metrics = {}
    for name in BOUNDARIES:
        stats = [s["trace"]["boundaries"][name] for s in traced]
        metrics[f"{name}.calls"] = (_median(b["calls"] for b in stats), "count", len(stats))
        metrics[f"{name}.self_s"] = (_median(b["self_s"] for b in stats), "s", len(stats))
        if name in COUNTERS:
            label, unit, _ = COUNTERS[name]
            metrics[f"{name}.{label}"] = (_median(b["counted"] for b in stats), unit, len(stats))
    overhead = _median(s["study_s"] for s in traced) / _median(s["study_s"] for s in untraced)
    metrics["trace.overhead"] = (overhead, "ratio", len(traced))
    return metrics


def _report_environment(env: dict) -> None:
    _log(
        f"environment: nproc={env['nproc']} affinity={env['affinity']}"
        f" python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
    )
    cpus = len(env["affinity"])
    for lib in env["openblas"]:
        _log(f"  {lib['library']}: {lib.get('config', '?')}; threads={lib.get('threads', '?')}")
        if lib.get("threads", 0) > cpus:
            _log(f"  warning: BLAS default of {lib['threads']} threads exceeds {cpus} CPUs")
    _log(f"  BLAS thread variables: {env['blas_env']}")


def _report_trace(studies, metrics) -> None:
    traced = [s for s in studies if s["mode"] == "traced"]
    total = _median(s["study_s"] for s in traced)
    _log(f"per layer (median of {len(traced)} traced studies, traced study_s {total:.3f} s):")
    for name in BOUNDARIES:
        calls = metrics[f"{name}.calls"][0]
        self_s = metrics[f"{name}.self_s"][0]
        _log(f"  {name:28s} calls {calls:>10.0f}  self {self_s:9.4f} s  {self_s / total:6.1%}")
    for name, (label, unit, _) in COUNTERS.items():
        _log(f"  {name + '.' + label:40s} {metrics[f'{name}.{label}'][0]:.4g} {unit} (computed)")
    _log(f"  trace.overhead = {metrics['trace.overhead'][0]:.3f} (traced / untraced study_s)")
    for note in traced[0]["trace"]["notes"]:
        _log(f"  note: {note}")
    _log("largest cells of the first traced study, by share of cell time:")
    cells = sorted(traced[0]["trace"]["cells"], key=lambda c: -c["seconds"])[:3]
    for cell in cells:
        shares = sorted(cell["self_s"].items(), key=lambda kv: -kv[1])
        text = ", ".join(
            f"{k} {v / cell['seconds']:.0%}" for k, v in shares if v > 0.005 * cell["seconds"]
        )
        _log(f"  {cell['block']} N={cell['N']} ({cell['seconds']:.2f} s): {text}")


def main() -> int:
    parser = argparse.ArgumentParser(description="wsgdiff convergence-study benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    missing = [p for p in (SRC / "wsgdiff" / "cli.py", TABLES_PATH) if not p.is_file()]
    if missing:
        _log(f"error: cannot benchmark without {', '.join(map(str, missing))}")
        return 2
    problems = gate_self_check(load_references())
    if problems:
        _log("error: the correctness gate failed its self-check:\n  " + "\n  ".join(problems))
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            tmp = Path(tmp)
            probes = []
            if not args.trace:
                probes = [
                    _spawn(tmp, args.workload, args.seed, -k, "setup")
                    for k in range(1, SETUP_PROBES + 1)
                ]
            studies = _studies(tmp, args, traced=bool(args.trace))
    except BenchmarkError as exc:
        _log(f"error: {exc}")
        return 2

    cells = _cells(studies)
    failures = [c for c in cells if c["failure"]]
    if args.trace:
        metrics = _per_layer(studies)
    else:
        metrics = _end_to_end(studies, probes, workload)
    correct = not failures and all(value is not None for value, _, _ in metrics.values())

    _log(
        f"wsgdiff benchmark: workload={args.workload} seed={args.seed} trace={args.trace};"
        f" {len(studies)} studies, one per fresh interpreter, closed loop, one client"
    )
    _report_environment(studies[0]["environment"])
    if args.trace:
        _report_trace(studies, metrics)
    else:
        for name, (value, unit, count) in metrics.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            _log(f"  {name:16s} {shown:>12s} {unit:4s} (n={count})")
    _log(
        f"cells: {len(cells)} attempted, {len(failures)} failed"
        f" (cell_fail_frac = {len(failures) / len(cells):.4g})"
    )
    for cell in failures[:20]:
        _log(f"  FAILED {cell['key']}: {cell['failure']}")

    OUT_DIR.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "args": vars(args),
                "environment": studies[0]["environment"],
                "metrics": {
                    k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()
                },
                "setup_probes": probes,
                "studies": studies,
            },
            indent=1,
        )
    )
    result = {
        "correct": correct,
        "attempted": len(cells),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
