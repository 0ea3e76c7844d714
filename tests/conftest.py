from functools import cached_property

import pytest

from priorityrank import metrics
from priorityrank.stats import RngStream


@pytest.fixture
def bfs_calls(monkeypatch) -> list[int]:
    """Log of the sources of every chunk that the shortest-path sweep runs."""
    calls = []
    sweep = metrics._frontier_sweep

    def logging(csr, sources, dtype):
        calls.extend(sources.tolist())
        return sweep(csr, sources, dtype)

    monkeypatch.setattr(metrics, "_frontier_sweep", logging)
    return calls


@pytest.fixture
def rng_streams(monkeypatch) -> list[tuple[int, ...]]:
    """Log of the paths of every ``RngStream`` whose numpy generator is built."""
    built = []
    generator = RngStream.__dict__["generator"].func

    def logging(stream):
        built.append(stream.path)
        return generator(stream)

    prop = cached_property(logging)
    prop.__set_name__(RngStream, "generator")
    monkeypatch.setattr(RngStream, "generator", prop)
    return built
