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

# Rows per strip handed to a row kernel. One float64 raster of a 64x1920 strip
# is 0.94 MiB, inside a 2 MiB L2, so the front half's one-raster strips stay in
# cache; the tone map's strip kernel holds about 59 bytes per strip pixel
# (6.9 MiB at 64x1920), so its temporaries do not. Measured on a 2-vCPU Xeon,
# 32-row strips ran 1080p about 3% faster but 480x640 5.6% slower.
STRIP_ROWS = 64

# Auto runs a frame of fewer pixels on one worker, since a pool hand-off (a
# few hundred microseconds) there outweighs splitting a strip stage. Whole
# calls on 2 workers against 1, alternated in-process on a 2-vCPU Xeon, were
# faster in 33/90 pairs at 280x360 (100,800 pixels), 26/45 at 300x370
# (111,000), 29/45 at 310x380 and 34/45 at 300x400 (120,000).
POOLED_PIXELS = 110_000


class WorkerPool:
    """Runs row-strip kernels and independent tasks on a fixed thread count.

    ``threads`` 0 is auto: one worker per CPU, or one for ``pixels`` under ``POOLED_PIXELS``.
    """

    def __init__(self, threads: int = 0, pixels: int | None = None):
        if threads < 0:
            raise ParameterError(f"threads must be >= 0, got {threads}")
        if not threads and pixels is not None and pixels < POOLED_PIXELS:
            threads = 1
        self.workers = threads or os.cpu_count() or 1
        self._executor = ThreadPoolExecutor(self.workers) if self.workers > 1 else None

    def run_rows(self, kernel: Callable[[int, int], Any], height: int) -> list:
        """Invoke kernel(row_start, row_stop) on STRIP_ROWS-row strips of [0, height).

        Returns the kernels' results in strip order.
        """
        return self.run_tasks(
            partial(kernel, a, min(a + STRIP_ROWS, height)) for a in range(0, height, STRIP_ROWS)
        )

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
