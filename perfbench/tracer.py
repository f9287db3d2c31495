"""Outside-in tracing of wsgdiff's layers.

Each boundary is a set of public names, rebound where their callers look
them up, so no source file changes: ``wsgdiff.cli:cn_wsgd_run`` is the
module attribute that ``cmd_converge`` calls, and
``wsgdiff.solve1d:lapack.dgetrf`` replaces ``solve1d.lapack`` with a proxy
whose ``dgetrf`` is wrapped (scipy's own module stays untouched).  The
problem callables are wrapped on the instance that ``make_example`` returns
to the CLI.

A boundary whose names are all gone reports ``calls=0`` and a note instead
of failing.  Spans are aggregated in memory: per boundary the number of
calls and the self time (the span's duration minus that of the spans nested
in it), and per cell (one solve of one grid) the self time of each boundary
inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from typing import Callable, Optional

#: The spans of one cell of a study, as ``cmd_converge`` calls the solvers.
CELL_BOUNDARIES = {
    "solve1d.run": ("wsgdiff.cli:cn_wsgd_run", "wsgdiff.cli:steady_solve_3wsgd"),
    "solve2d.run": ("wsgdiff.cli:run_2d",),
}

BOUNDARIES = {
    "cli.converge": ("wsgdiff.cli:cmd_converge",),
    **CELL_BOUNDARIES,
    "solve1d.assemble": ("wsgdiff.solve1d:assemble_cn_system",),
    "solve1d.lu_factor": ("wsgdiff.solve1d:lapack.dgetrf",),
    "solve1d.lu_solve": ("wsgdiff.solve1d:lapack.dgetrs",),
    "solve2d.build_operators": ("wsgdiff.solve2d:build_directional_operators",),
    "solve2d.lu_factor": ("wsgdiff.solve2d:lapack.dgetrf",),
    "solve2d.lu_solve": ("wsgdiff.solve2d:lapack.dgetrs",),
    "operators.assemble": (
        "wsgdiff.solve1d:assemble_wsgd_matrix",
        "wsgdiff.solve1d:assemble_3wsgd_matrix",
        "wsgdiff.solve2d:assemble_wsgd_matrix",
    ),
    "operators.boundary_columns": (
        "wsgdiff.solve1d:boundary_columns",
        "wsgdiff.solve2d:boundary_columns",
    ),
    "weights.generate": (
        "wsgdiff.weights:wsgd2_weights",
        "wsgdiff.weights:wsgd3_weights",
        "wsgdiff.weights:grunwald_coefficients",
    ),
    "problems.source": ("wsgdiff.cli:make_example->source",),
    "problems.exact": ("wsgdiff.cli:make_example->exact",),
    "problems.boundary": (
        "wsgdiff.cli:make_example->left_boundary",
        "wsgdiff.cli:make_example->right_boundary",
        "wsgdiff.cli:make_example->boundary",
    ),
    "problems.norm": (
        "wsgdiff.solve1d:l2_norm",
        "wsgdiff.solve1d:max_norm",
        "wsgdiff.solve2d:l2_norm",
        "wsgdiff.solve2d:max_norm",
    ),
}


def _lu_factor_flops(args, kwargs) -> float:
    n = args[0].shape[0]
    return 2.0 * n**3 / 3.0


def _lu_solve_bytes(args, kwargs) -> float:
    """Bytes of the factor read once per right-hand side: 8 n^2 each."""
    n = args[0].shape[0]
    rhs = args[2]
    return 8.0 * n * n * (rhs.shape[1] if rhs.ndim == 2 else 1)


#: Computed (not measured) work counts, by boundary.
COUNTERS = {
    "solve1d.lu_factor": ("flops_computed", "flop", _lu_factor_flops),
    "solve1d.lu_solve": ("bytes_computed", "B", _lu_solve_bytes),
    "solve2d.lu_solve": ("bytes_computed", "B", _lu_solve_bytes),
}


def _cell_size(args) -> Optional[int]:
    """Grid size of a solver call: ``(problem, config)`` or ``(problem, N)``."""
    if len(args) < 2:
        return None
    arg = args[1]
    for attr in ("N", "Nx"):
        if hasattr(arg, attr):
            return int(getattr(arg, attr))
    return arg if isinstance(arg, int) else None


class _Proxy:
    """Stands in for a module attribute, overriding a few of its names."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Wraps the named boundaries and aggregates their spans."""

    def __init__(self, boundaries: dict[str, tuple[str, ...]]):
        self.boundaries = boundaries
        #: Calls, self seconds and computed work, by boundary.
        self.stats = {name: [0, 0.0, 0.0] for name in boundaries}
        self.notes: list[str] = []
        #: Label of the block running now; the study sets it.
        self.block = ""
        #: Wall seconds of each cell span, by (block label, N).
        self.cell_seconds: dict[tuple[str, Optional[int]], float] = {}
        #: Self seconds of each boundary inside each cell span.
        self.cell_self: dict[tuple[str, Optional[int]], dict[str, float]] = {}
        self._stack: list[list[float]] = []
        self._instance_fields: dict[str, str] = {}

    def install(self) -> None:
        """Rebind every name that exists; note every boundary left without one."""
        for name, targets in self.boundaries.items():
            bound = [t for t in targets if self._bind(name, t)]
            if not bound:
                self.notes.append(f"{name}: none of {', '.join(targets)} found; reports calls=0")

    def _bind(self, name: str, target: str) -> bool:
        location, _, field = target.partition("->")
        module_name, _, attr_path = location.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if field:
            self._instance_fields[field] = name
            return self._wrap_factory(module, attr_path)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = module
        if owner_name:
            current = getattr(module, owner_name, None)
            if current is None:
                return False
            if not isinstance(current, _Proxy):
                current = _Proxy(current)
                setattr(module, owner_name, current)
            owner = current
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        setattr(owner, attr, self.wrap(name, original))
        return True

    def _wrap_factory(self, module, attr: str) -> bool:
        """Rebind a problem factory so the problems it returns carry wrapped callables."""
        factory = getattr(module, attr, None)
        if factory is None:
            return False
        if getattr(factory, "_perfbench_factory", False):
            return True

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            problem = factory(*args, **kwargs)
            if not dataclasses.is_dataclass(problem):
                return problem
            names = {f.name for f in dataclasses.fields(problem)}
            changes = {
                field: self.wrap(boundary, getattr(problem, field))
                for field, boundary in self._instance_fields.items()
                if field in names and callable(getattr(problem, field))
            }
            return dataclasses.replace(problem, **changes)

        traced_factory._perfbench_factory = True
        setattr(module, attr, traced_factory)
        return True

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name, (None, None, None))[2]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                if counter is not None:
                    stat[2] += counter(args, kwargs)

        if name not in CELL_BOUNDARIES:
            return traced

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            before = {k: s[1] for k, s in self.stats.items()}
            start = clock()
            try:
                return traced(*args, **kwargs)
            finally:
                key = (self.block, _cell_size(args))
                self.cell_seconds[key] = clock() - start
                self.cell_self[key] = {
                    k: s[1] - before[k] for k, s in self.stats.items() if s[1] > before[k]
                }

        return cell

    def summary(self) -> dict:
        return {
            "boundaries": {
                name: {"calls": calls, "self_s": self_s, "counted": counted}
                for name, (calls, self_s, counted) in self.stats.items()
            },
            "cells": [
                {"block": block, "N": n, "seconds": seconds, "self_s": self.cell_self[(block, n)]}
                for (block, n), seconds in self.cell_seconds.items()
            ],
            "notes": self.notes,
        }
