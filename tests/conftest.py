import pytest

from priorityrank import metrics


@pytest.fixture
def bfs_calls(monkeypatch) -> list[int]:
    """Log of the sources of every per-source BFS that metrics runs."""
    calls = []
    bfs = metrics._bfs

    def counting(g, source):
        calls.append(source)
        return bfs(g, source)

    monkeypatch.setattr(metrics, "_bfs", counting)
    return calls
