import itertools
from concurrent.futures import ProcessPoolExecutor

import pytest

from relaydmt import channel_sim, stbc


def all_dims(max_count: int, max_hops: int):
    """Every dimension with entries <= max_count and at most max_hops hops."""
    for n_hops in range(1, max_hops + 1):
        for counts in itertools.product(range(1, max_count + 1), repeat=n_hops + 1):
            yield counts


@pytest.fixture(scope="session")
def dims_to_5_4():
    return list(all_dims(5, 4))


@pytest.fixture(scope="session")
def dims_to_5_3():
    return list(all_dims(5, 3))


@pytest.fixture(scope="session")
def dims_to_4_3():
    return list(all_dims(4, 3))


@pytest.fixture(scope="session")
def dims_to_3_3():
    return list(all_dims(3, 3))


@pytest.fixture
def pool_sizes(monkeypatch):
    """``max_workers`` of every process pool the block runner opens.

    The outage and SER runners share ``channel_sim``'s block runner, so
    only that module opens pools: an outage run once in its pool scope,
    a coded run once in its one block map.
    """
    seen = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(channel_sim, "ProcessPoolExecutor", RecordingPool)
    return seen


@pytest.fixture
def no_draw(monkeypatch):
    """Make drawing a block fail the test, in the outage and the coded runner."""
    def draw(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(channel_sim, "_draw_hops", draw)
    monkeypatch.setattr(stbc, "_draw_hops", draw)
