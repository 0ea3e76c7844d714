from functools import cached_property

import pytest

from priorityrank import metrics, ranking
from priorityrank.metrics import NetworkProfile
from priorityrank.stats import RngStream


def _log_sweeps(monkeypatch, log) -> None:
    sweep = metrics._frontier_sweep

    def logging(csr, sources, dtype):
        log(sources)
        return sweep(csr, sources, dtype)

    monkeypatch.setattr(metrics, "_frontier_sweep", logging)


@pytest.fixture
def bfs_calls(monkeypatch) -> list[int]:
    """Log of the sources of every chunk that the shortest-path sweep runs."""
    calls = []
    _log_sweeps(monkeypatch, lambda sources: calls.extend(sources.tolist()))
    return calls


@pytest.fixture
def sweep_chunks(monkeypatch) -> list[int]:
    """Log of the size of every chunk that the shortest-path sweep runs, in
    order; a chunk redone with Python integers is logged twice."""
    sizes = []
    _log_sweeps(monkeypatch, lambda sources: sizes.append(len(sources)))
    return sizes


@pytest.fixture
def profile_calls(monkeypatch) -> dict[str, list]:
    """Log of the graphs whose ``NetworkProfile`` computes its ``pagerank``
    ("pagerank_centrality") or its ``transitivity`` ("transitivity")."""
    calls = {"pagerank_centrality": [], "transitivity": []}
    for key, name in (("pagerank_centrality", "pagerank"), ("transitivity", "transitivity")):
        compute = NetworkProfile.__dict__[name].func

        def logging(profile, log=calls[key], compute=compute):
            log.append(profile.graph)
            return compute(profile)

        prop = cached_property(logging)
        prop.__set_name__(NetworkProfile, name)
        monkeypatch.setattr(NetworkProfile, name, prop)
    return calls


@pytest.fixture
def ranked_rows(monkeypatch) -> dict[str, int]:
    """Count of the rows that the sampler sorts by packed keys ("packed"),
    of those whose values it gathers along the packed order ("gathered"),
    of those it argsorts ("sorted"), and of those it draws by exponential
    keys ("keyed")."""
    counts = {"packed": 0, "gathered": 0, "sorted": 0, "keyed": 0}
    by_keys, along_keys = ranking._rows_by_keys, ranking._rows_along_keys
    by_sort, top_keys = ranking._rows_by_sort, ranking._top_keys

    def packed(distances, sources):
        counts["packed"] += len(sources)
        return by_keys(distances, sources)

    def gathered(distances, sources, keys):
        counts["gathered"] += len(sources)
        return along_keys(distances, sources, keys)

    def argsorted(distances, sources):
        counts["sorted"] += len(sources)
        return by_sort(distances, sources)

    def keyed(keys, ks):
        counts["keyed"] += len(keys)
        return top_keys(keys, ks)

    monkeypatch.setattr(ranking, "_rows_by_keys", packed)
    monkeypatch.setattr(ranking, "_rows_along_keys", gathered)
    monkeypatch.setattr(ranking, "_rows_by_sort", argsorted)
    monkeypatch.setattr(ranking, "_top_keys", keyed)
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
