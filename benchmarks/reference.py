"""Output checks against independent references.

Path quantities come from scipy's C shortest-path routine and a dense
level-by-level path count; PageRank and transitivity from networkx; K-S
statistics from scipy.  Only the learned-spec check calls priorityrank, to
rebuild the spec through its public loader.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PROFILE_VECTORS = ("degree", "betweenness", "closeness", "closeness_farness", "pagerank")
PROFILE_SCALARS = ("n", "arc_count", "diameter", "density", "avg_path_length", "reciprocity",
                   "assortativity", "centralization", "transitivity")
BETWEENNESS_SAMPLE = 24  # vertices whose count betweenness is checked exactly


def read_edge_list(path: Path) -> tuple[int, np.ndarray, list[str]]:
    """Parse an edge list without priorityrank; also report format problems."""
    n = None
    arcs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if n is None and not arcs and line.startswith("n="):
            n = int(line[2:])
            continue
        a, b = line.split()
        arcs.append((int(a), int(b)))
    arr = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(arr.max()) + 1 if len(arr) else 0
    problems = []
    if (arr[:, 0] == arr[:, 1]).any():
        problems.append(f"{path.name}: self-loop")
    if ((arr < 0) | (arr >= n)).any():
        problems.append(f"{path.name}: vertex id outside [0, {n})")
    if len(np.unique(arr[:, 0] * max(n, 1) + arr[:, 1])) != len(arr):
        problems.append(f"{path.name}: duplicate arc")
    return n, arr, problems


def check_out_degrees(path: Path, n: int, allowed: set[int], exact: bool) -> list[str]:
    """Every vertex has an out-degree from ``allowed``; with ``exact`` (a
    constant k) that means exactly k distinct targets each."""
    got_n, arcs, problems = read_edge_list(path)
    if got_n != n:
        problems.append(f"{path.name}: n={got_n}, expected {n}")
        return problems
    outdeg = np.bincount(arcs[:, 0], minlength=n)
    bad = [int(v) for v in np.flatnonzero(~np.isin(outdeg, sorted(allowed)))]
    if bad:
        what = f"exactly {next(iter(allowed))}" if exact else "a resampled source degree"
        problems.append(f"{path.name}: {len(bad)} vertices lack {what} targets, e.g. vertex {bad[0]}")
    return problems


def check_learned_spec(path: Path, kind: str) -> list[str]:
    """The spec rebuilds through ``spec_from_json_dict`` and round-trips."""
    from priorityrank.distance import spec_from_json_dict

    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = _non_finite(doc, path.name)
    try:
        spec = spec_from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"{path.name}: spec does not rebuild: {exc!r}"]
    if spec.kind != kind:
        problems.append(f"{path.name}: kind {spec.kind!r}, expected {kind!r}")
    if json.loads(json.dumps(spec.to_json_dict())) != doc:
        problems.append(f"{path.name}: rebuilt spec serialises differently")
    return problems


def _non_finite(doc, where: str, allow_none: tuple[str, ...] = ()) -> list[str]:
    bad = []

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, k)
        elif isinstance(value, list):
            for v in value:
                walk(v, key)
        elif value is None:
            if key not in allow_none:
                bad.append(key)
        elif isinstance(value, float) and not math.isfinite(value):
            bad.append(key)

    walk(doc, "")
    return [f"{where}: missing or non-finite value under {key!r}" for key in sorted(set(bad))]


class PathReference:
    """All-pairs hop distances and shortest-path counts of one directed graph."""

    def __init__(self, n: int, arcs: np.ndarray):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        self.n = n
        adj = csr_matrix((np.ones(len(arcs)), (arcs[:, 0], arcs[:, 1])), shape=(n, n))
        self.dist = shortest_path(adj, method="D", directed=True, unweighted=True)
        finite = np.isfinite(self.dist)
        levels = int(self.dist[finite].max()) if finite.any() else 0
        dense = adj.toarray()
        frontier = np.eye(n)
        self.sigma = np.eye(n)
        for level in range(1, levels + 1):
            frontier = np.where(self.dist == level, frontier @ dense, 0.0)
            self.sigma += frontier
        off = finite & (self.dist > 0)
        self.pair_dist = self.dist[off]
        self.reach = off.sum(axis=1)
        self.total = np.where(off, self.dist, 0.0).sum(axis=1)

    def betweenness_count(self, v: int) -> float:
        """Shortest s->t paths through v, summed over ordered pairs s, t != v."""
        through = self.dist[:, [v]] + self.dist[[v], :] == self.dist
        into = self.sigma[:, v].copy()
        out = self.sigma[v, :].copy()
        into[v] = out[v] = 0.0
        return float(into @ (through @ out))

    def betweenness_total(self) -> float:
        """Every shortest path of length d passes d - 1 interior vertices."""
        off = np.isfinite(self.dist) & (self.dist > 0)
        return float((self.sigma[off] * (self.dist[off] - 1.0)).sum())


def _close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64),
                            rtol=rtol, atol=atol))


def check_profile(path: Path, n: int, arcs: np.ndarray, seed: int) -> list[str]:
    """The profile JSON is complete, finite, and its diameter, path length,
    degree, closeness, betweenness, PageRank and transitivity agree with the
    independent references."""
    import networkx as nx

    name = path.name
    doc = json.loads(path.read_text(encoding="utf-8"))
    missing = [k for k in PROFILE_SCALARS + PROFILE_VECTORS if k not in doc]
    if missing:
        return [f"{name}: missing keys {missing}"]
    problems = _non_finite(doc, name)
    if any(len(doc[k]) != n for k in PROFILE_VECTORS):
        return problems + [f"{name}: a centrality vector is not of length {n}"]
    ref = PathReference(n, arcs)
    expect = {
        "n": n,
        "arc_count": len(arcs),
        "diameter": float(ref.pair_dist.max()) if len(ref.pair_dist) else 0.0,
        "avg_path_length": float(ref.pair_dist.mean()) if len(ref.pair_dist) else 0.0,
        "density": len(arcs) / (n * (n - 1)),
    }
    for key, value in expect.items():
        if not _close(doc[key], value):
            problems.append(f"{name}: {key} {doc[key]} != reference {value}")
    degree = np.bincount(arcs[:, 0], minlength=n) + np.bincount(arcs[:, 1], minlength=n)
    closeness = np.divide(ref.reach, ref.total, out=np.zeros(n), where=ref.total > 0)
    for key, value in (("degree", degree), ("closeness", closeness), ("closeness_farness", ref.total / n)):
        if not _close(doc[key], value):
            problems.append(f"{name}: {key} vector differs from the reference")
    betweenness = np.asarray(doc["betweenness"], dtype=np.float64)
    if not _close(betweenness.sum(), ref.betweenness_total()):
        problems.append(f"{name}: betweenness total differs from the path-count identity")
    top = np.argsort(-betweenness, kind="stable")[: BETWEENNESS_SAMPLE // 3]
    rest = np.random.default_rng([seed, n]).choice(n, size=min(n, BETWEENNESS_SAMPLE), replace=False)
    for v in sorted(set(top.tolist()) | set(rest.tolist())):
        expected = ref.betweenness_count(v)
        if not _close(betweenness[v], expected):
            problems.append(f"{name}: betweenness[{v}] {betweenness[v]} != reference {expected}")
            break
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs.tolist())
    pagerank = nx.pagerank(g, alpha=0.85, tol=1e-13, max_iter=2000)
    if not _close(doc["pagerank"], [pagerank[v] for v in range(n)], rtol=1e-6, atol=1e-9):
        problems.append(f"{name}: pagerank differs from networkx")
    if not _close(doc["transitivity"], nx.transitivity(g.to_undirected())):
        problems.append(f"{name}: transitivity differs from networkx")
    return problems


def check_compare(path: Path, profile_a: Path, profile_b: Path) -> list[str]:
    """K-S statistics match scipy on the two profiles' vectors; the side-by-side
    profiles match the separately written profile outputs."""
    from scipy.stats import ks_2samp

    name = path.name
    doc = json.loads(path.read_text(encoding="utf-8"))
    a = json.loads(profile_a.read_text(encoding="utf-8"))
    b = json.loads(profile_b.read_text(encoding="utf-8"))
    keys = ("alpha", "degree", "betweenness", "closeness", "profiles")
    if any(k not in doc for k in keys):
        return [f"{name}: missing keys"]
    problems = _non_finite(doc, name)
    for vector in ("degree", "betweenness", "closeness"):
        entry = doc[vector]
        expected = ks_2samp(a[vector], b[vector]).statistic
        if not _close(entry.get("statistic"), expected):
            problems.append(f"{name}: {vector} K-S statistic {entry.get('statistic')} != scipy {expected}")
        p = entry.get("p_value")
        if not (isinstance(p, float) and 0.0 <= p <= 1.0) or entry.get("pass") != (p >= doc["alpha"]):
            problems.append(f"{name}: {vector} p-value or pass flag is inconsistent")
    for side, profile in (("a", a), ("b", b)):
        if doc["profiles"].get(side) != {k: profile[k] for k in PROFILE_SCALARS}:
            problems.append(f"{name}: profile {side} differs from the profile output")
    return problems


def check_recreate(path: Path, n: int, arcs: np.ndarray, runs: int, pilot: int) -> list[str]:
    """The report names a winner from among its finalists, the finalists are
    the best pilot candidates, each finalist has ``runs`` run records, and the
    source profile's path scalars match the reference."""
    name = path.name
    doc = json.loads(path.read_text(encoding="utf-8"))
    if any(k not in doc for k in ("config", "source_profile", "candidates", "finalists", "winner")):
        return [f"{name}: missing keys"]
    problems = _non_finite(doc, name, allow_none=("pilot_statistic", "error", "assortativity"))
    if doc["config"].get("runs") != runs or doc["config"].get("pilot_runs") != pilot:
        problems.append(f"{name}: config does not echo runs={runs}, pilot={pilot}")
    finalists = doc["finalists"]
    kinds = [f["kind"] for f in finalists]
    scored = sorted((c["pilot_statistic"], c["kind"]) for c in doc["candidates"]
                    if c["pilot_statistic"] is not None)
    if not finalists or kinds != [kind for _, kind in scored[: len(finalists)]]:
        problems.append(f"{name}: finalists {kinds} are not the best pilot candidates")
    for f in finalists:
        if len(f["runs"]) != runs or len(set(f["seeds"])) != runs:
            problems.append(f"{name}: finalist {f['kind']} has {len(f['runs'])} runs, expected {runs}")
        elif not _close(f["mean_statistic"], np.mean([r["statistic_mean"] for r in f["runs"]])):
            problems.append(f"{name}: finalist {f['kind']} mean statistic is not the mean of its runs")
    if finalists and doc["winner"] != min(finalists, key=lambda f: (f["mean_statistic"], f["kind"]))["kind"]:
        problems.append(f"{name}: winner {doc['winner']!r} is not the best finalist")
    ref = PathReference(n, arcs)
    source = doc["source_profile"]
    for key, value in (("n", n), ("arc_count", len(arcs)), ("diameter", ref.pair_dist.max()),
                       ("avg_path_length", ref.pair_dist.mean())):
        if not _close(source.get(key), value):
            problems.append(f"{name}: source {key} {source.get(key)} != reference {value}")
    return problems


def winner_statistic(path: Path) -> float:
    """Mean combined K-S statistic of the winning family against its source."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return next(f["mean_statistic"] for f in doc["finalists"] if f["kind"] == doc["winner"])
