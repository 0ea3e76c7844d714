import pytest

from priorityrank import metrics


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
