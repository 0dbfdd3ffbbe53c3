"""WorkerPool: strips come back in order, and a worker's exception reaches the caller."""

import threading
import time

import pytest

from wdrtone.parallel import STRIP_ROWS, WorkerPool


def test_run_rows_returns_results_in_strip_order():
    height = 4 * STRIP_ROWS + 5

    def kernel(a, b):
        time.sleep(0.002 * (height - a) / STRIP_ROWS)  # earlier strips finish later
        return a, b

    with WorkerPool(3) as pool:
        got = pool.run_rows(kernel, height)
    assert got == [(a, min(a + STRIP_ROWS, height)) for a in range(0, height, STRIP_ROWS)]


def test_run_rows_reraises_a_later_strips_exception():
    raised_on = []

    def kernel(a, b):
        if a == 3 * STRIP_ROWS:
            raised_on.append(threading.get_ident())
            raise ValueError(f"bad strip at row {a}")
        return a

    with WorkerPool(3) as pool, pytest.raises(ValueError, match=f"bad strip at row {3 * STRIP_ROWS}"):
        pool.run_rows(kernel, 4 * STRIP_ROWS)
    assert raised_on and raised_on[0] != threading.get_ident()  # it was raised on a worker
