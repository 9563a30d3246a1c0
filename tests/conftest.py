import time

import pytest

from depthuq.toytrain import TrainConfig, ablate


@pytest.fixture(scope="session")
def full_ablation():
    """Five-seed loss ablation at the shipped defaults.

    The grid is by far the slowest part of the acceptance run, and two
    criteria read from it, so train it once per session.  Returns the
    flat rows plus the wall-clock the grid took.
    """
    started = time.perf_counter()
    rows = ablate((0, 1, 2, 3, 4), base=TrainConfig())
    elapsed = time.perf_counter() - started
    return rows, elapsed
