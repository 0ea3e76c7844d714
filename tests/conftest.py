from functools import cached_property

import pytest

from priorityrank import metrics, ranking
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
def ranked_rows(monkeypatch) -> dict[str, int]:
    """Count of the rows that the sampler ranks through a shared order hint
    ("hinted") and of those it argsorts ("sorted"), fallbacks included."""
    counts = {"hinted": 0, "sorted": 0}
    by_hint, by_sort = ranking._ranks_by_hint, ranking._ranks_by_sort

    def hinted(distances, sources, order):
        ranks = by_hint(distances, sources, order)
        if ranks is not None:
            counts["hinted"] += len(sources)
        return ranks

    def argsorted(distances, sources):
        counts["sorted"] += len(sources)
        return by_sort(distances, sources)

    monkeypatch.setattr(ranking, "_ranks_by_hint", hinted)
    monkeypatch.setattr(ranking, "_ranks_by_sort", argsorted)
    return counts


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
