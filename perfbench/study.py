"""Run one study of a workload in a fresh interpreter and write its record.

``run.py`` starts this script once per study, so nothing the program
caches survives from one study to the next, as for a user who runs one
study per process.  The study's blocks run back to back through the public
``wsgdiff.cli.cmd_converge``; its progress text goes to this process's
stdout and stderr, which the parent captures, and the JSON record goes to
the file named by ``--record``.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter (a system-wide clock on Linux), so ``setup_s`` runs from
interpreter start to the first solve: imports, study configs and reference
tables.  ``--mode setup`` stops there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import BOUNDARIES, CELL_BOUNDARIES, Tracer
from workloads import SRC, WORKLOADS, grade_block, load_references

_BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


def _openblas_libraries() -> list[dict]:
    """Version string and thread count of each OpenBLAS this process loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = int(threads())
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "blas_env": {name: os.environ.get(name) for name in _BLAS_ENV},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True, help="study number within the run")
    parser.add_argument("--mode", choices=("setup", "study", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import wsgdiff
    from wsgdiff import cli
    from wsgdiff.problems import ExampleId

    if Path(wsgdiff.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported wsgdiff from {wsgdiff.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload]
    blocks = workload.ordered_blocks(args.seed, args.index)
    configs = [
        cli.StudyConfig(
            example=ExampleId.from_tag(b.example),
            alphas=(b.alpha,),
            schemes=(b.scheme,),
            resolutions=b.resolutions,
            beta=b.beta,
            splittings=(b.splitting,) if b.splitting else (),
        )
        for b in blocks
    ]
    refs = load_references()
    record = {"mode": args.mode, "order": [b.label for b in blocks]}

    if args.mode != "setup":
        tracer = Tracer(BOUNDARIES if args.mode == "traced" else CELL_BOUNDARIES)
        tracer.install()
    record["setup_s"] = time.monotonic() - args.t0

    if args.mode != "setup":
        cells = []
        study_s = 0.0
        for block, config in zip(blocks, configs):
            tracer.block = block.label
            start = time.perf_counter()
            try:
                outcome = cli.cmd_converge(config)
            except Exception as exc:  # the gate counts the block's cells as failed
                traceback.print_exc()
                outcome = exc
            study_s += time.perf_counter() - start
            for result in grade_block(block, refs, outcome):
                cells.append(
                    {
                        "key": result.key,
                        "max_err": result.max_err,
                        "l2_err": result.l2_err,
                        "failure": result.failure,
                        "seconds": tracer.cell_seconds.get((block.label, result.key[4])),
                    }
                )
        record.update(
            study_s=study_s,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            cells=cells,
            trace=tracer.summary(),
            environment=environment(),
        )
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
