"""Deterministic worker pool for data-parallel raster stages.

Kernels receive disjoint row ranges and write disjoint output rows while
reading shared immutable inputs, so results are bit-identical no matter how
many workers run or how rows are split.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable

from .errors import ParameterError


def resolve_threads(threads: int) -> int:
    """Map the user-facing thread knob (0 = auto) to a concrete count."""
    if threads < 0:
        raise ParameterError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


class WorkerPool:
    """Runs row-strip kernels and independent tasks on a fixed thread count."""

    def __init__(self, threads: int = 0):
        self.workers = resolve_threads(threads)
        self._executor = ThreadPoolExecutor(self.workers) if self.workers > 1 else None

    def run_rows(self, kernel: Callable[[int, int], None], height: int) -> None:
        """Invoke kernel(row_start, row_stop) over a partition of [0, height)."""
        strips = self.workers if height >= 2 * self.workers else 1
        bounds = [height * i // strips for i in range(strips + 1)]
        self.run_tasks(partial(kernel, a, b) for a, b in zip(bounds, bounds[1:]))

    def run_tasks(self, tasks: Iterable[Callable[[], Any]]) -> list:
        """Run independent nullary tasks, in parallel when workers allow; return their results."""
        tasks = list(tasks)
        if self._executor is None or len(tasks) < 2:
            return [t() for t in tasks]
        futures = [self._executor.submit(t) for t in tasks]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# Stands in when a stage is given no pool: runs every kernel inline.
SERIAL = WorkerPool(1)
