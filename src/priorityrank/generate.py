"""Network generators: the rank-based priority sampler plus six baselines.

The priority sampler builds, for every vertex, a local ranking of all other
vertices from a distance function, then draws that vertex's out-neighbours
without replacement using the 1/rank probability mass.  Centrality-based
distance kinds need a frozen reference graph for their centrality vectors:
when re-creating a source network the source itself is the reference; when
generating from scratch a random bootstrap graph seeds the centralities and
one refinement pass regenerates the network from its own.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distance import DistanceContext, DistanceFunction, RandomDistance
from .graph import AttributeTable, Graph, symmetrize
from .metrics import assortativity
from .ranking import sample_rows
from .stats import RngStream


@dataclass(frozen=True)
class DegreeSpec:
    """Out-degree budget per vertex: a constant k, or i.i.d. resampling from
    a source network's out-degree sequence."""

    mode: str
    k: int | None = None
    histogram: tuple[int, ...] | None = None

    @classmethod
    def constant(cls, k: int) -> "DegreeSpec":
        if k < 1:
            raise ValueError(f"constant out-degree must be >= 1, got {k}")
        return cls(mode="constant", k=int(k))

    @classmethod
    def resample(cls, out_degrees) -> "DegreeSpec":
        histogram = tuple(int(d) for d in out_degrees)
        if not histogram:
            raise ValueError("resample spec needs a non-empty out-degree sequence")
        if any(d < 0 for d in histogram):
            raise ValueError("out-degree sequence must be non-negative")
        return cls(mode="resample", histogram=histogram)

    def draws(self, n: int, rng: RngStream) -> np.ndarray:
        if self.mode == "constant":
            if self.k > n - 1:
                raise ValueError(f"constant out-degree {self.k} exceeds n-1 = {n - 1}")
            return np.full(n, self.k, dtype=np.int64)
        hist = np.array(self.histogram, dtype=np.int64)
        picks = rng.generator.integers(0, len(hist), size=n)
        ks = hist[picks]
        over = ks > n - 1
        if over.any():
            warnings.warn(
                f"{int(over.sum())} resampled out-degree(s) clamped to n-1 = {n - 1}",
                stacklevel=2,
            )
            ks = np.minimum(ks, n - 1)
        return ks


# Sources per block: about _BLOCK_CELLS distance cells, so a block's
# transient arrays stay O(block·n), 0.5 MB each.
_BLOCK_CELLS = 2**16


def _generation_pass(
    n: int,
    attrs: AttributeTable | None,
    spec: DistanceFunction,
    degrees: DegreeSpec,
    stream: RngStream,
    reference: Graph | None,
    centralities,
) -> Graph:
    ks = degrees.draws(n, stream.child(0))
    ctx = DistanceContext(
        n=n,
        attrs=attrs,
        reference=reference,
        rng=stream.child(1),
        centralities=centralities,
    )
    # one contiguous n x n stream of uniforms, read a block of rows at a
    # time, so the draws do not depend on the block size
    uniforms = stream.child(2).generator
    order = spec.order(ctx)
    block = max(1, _BLOCK_CELLS // n)
    heads, tails = [], []
    for start in range(0, n, block):
        u = uniforms.random((min(block, n - start), n))
        sources = np.arange(start, start + len(u))
        live = ks[sources] > 0
        sources = sources[live]
        if not len(sources):
            continue
        heads.append(np.repeat(sources, ks[sources]))
        tails.append(sample_rows(spec.rows(ctx, sources), sources, ks[sources], u[live], order))
    if not heads:
        return Graph(n)
    return Graph(n, np.column_stack([np.concatenate(heads), np.concatenate(tails)]))


def priority_rank_generate(
    n: int,
    attrs: AttributeTable | None,
    spec: DistanceFunction,
    degrees: DegreeSpec,
    seed: int,
    *,
    reference: Graph | None = None,
    centralities=None,
) -> Graph:
    """Generate a directed graph by rank-based priority sampling.

    Every vertex i receives its out-degree budget, ranks all other vertices
    with the distance function, and draws that many distinct targets.  The
    output is deterministic for a fixed seed.  The pass runs in one thread,
    a block of sources at a time.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if attrs is not None and attrs.n != n:
        raise ValueError(f"attribute table has {attrs.n} rows for n={n}")
    root = RngStream(seed)
    if spec.requires_centrality and reference is None and centralities is None:
        # No reference context: bootstrap from a random graph of the same
        # shape, then regenerate once more from the intermediate network's
        # own centralities.
        bootstrap = _generation_pass(n, attrs, RandomDistance(), degrees, root.child(1), None, None)
        first = _generation_pass(n, attrs, spec, degrees, root.child(2), bootstrap, None)
        return _generation_pass(n, attrs, spec, degrees, root.child(3), first, None)
    return _generation_pass(n, attrs, spec, degrees, root.child(0), reference, centralities)


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Each ordered pair (i, j), i != j, becomes an arc with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    gen = RngStream(seed).generator
    mat = gen.random((n, n)) < p
    np.fill_diagonal(mat, False)
    return Graph(n, np.column_stack(np.nonzero(mat)))


def gen_watts_strogatz(n: int, k_neighbors: int, p_rewire: float, seed: int) -> Graph:
    """Ring lattice with forward arcs i -> i+1 .. i+k (mod n), each arc's head
    rewired with probability p_rewire to a uniform non-self, non-duplicate
    target.  Arc count stays n * k_neighbors."""
    if k_neighbors < 1:
        raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
    if n <= 2 * k_neighbors:
        raise ValueError(f"need n > 2 * k_neighbors, got n={n}, k={k_neighbors}")
    if not 0.0 <= p_rewire <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {p_rewire}")
    gen = RngStream(seed).generator
    out_sets: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for off in range(1, k_neighbors + 1):
            out_sets[i].add((i + off) % n)
    for i in range(n):
        for off in range(1, k_neighbors + 1):
            j = (i + off) % n
            if j not in out_sets[i]:
                continue  # already rewired away earlier in the sweep
            if gen.random() < p_rewire:
                if len(out_sets[i]) >= n - 1:
                    continue  # no free target remains
                while True:
                    t = int(gen.integers(0, n))
                    if t != i and t not in out_sets[i]:
                        break
                out_sets[i].discard(j)
                out_sets[i].add(t)
    return Graph(n, ((i, j) for i in range(n) for j in out_sets[i]))


def gen_barabasi_albert(n: int, k: int, n0: int | None = None, seed: int = 0) -> Graph:
    """Growth with degree-proportional target choice; every undirected link is
    stored as a symmetric arc pair.  The seed is a complete graph on n0
    vertices (n0 = k when omitted)."""
    if n0 is None:
        n0 = k
    if not (n0 >= k >= 1):
        raise ValueError(f"need n0 >= k >= 1, got n0={n0}, k={k}")
    if n <= n0:
        raise ValueError(f"need n > n0, got n={n}, n0={n0}")
    gen = RngStream(seed).generator
    edges = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
    deg = np.zeros(n, dtype=np.float64)
    deg[:n0] = max(n0 - 1, 1)  # a lone seed vertex still needs sampling mass
    for v in range(n0, n):
        weights = deg[:v].copy()
        cum = np.cumsum(weights)
        chosen: set[int] = set()
        while len(chosen) < min(k, v):
            u = gen.random() * cum[-1]
            t = min(int(np.searchsorted(cum, u, side="right")), v - 1)
            chosen.add(t)
        for t in chosen:
            edges.append((v, t))
            deg[t] += 2
        deg[v] += 2 * len(chosen)
    return symmetrize(Graph(n, edges))


def gen_forest_fire(n: int, p_burn: float, ambassadors: int = 1, seed: int = 0) -> Graph:
    """Sequential arrivals: each newcomer links to uniform ambassadors, then
    recursively spreads over the out-neighbourhoods of its targets, linking
    each unburned neighbour with probability p_burn.  A vertex burns at most
    once per arrival, so the output stays simple."""
    if not 0.0 <= p_burn < 1.0:
        raise ValueError(f"burn probability must be in [0, 1), got {p_burn}")
    if ambassadors < 1:
        raise ValueError(f"need at least one ambassador, got {ambassadors}")
    gen = RngStream(seed).generator
    out_adj: list[set[int]] = [set() for _ in range(n)]
    arcs: list[tuple[int, int]] = []
    for v in range(1, n):
        count = min(ambassadors, v)
        starts = sorted(int(t) for t in gen.choice(v, size=count, replace=False))
        burned = {v}
        burned.update(starts)
        frontier = deque(starts)
        for w in starts:
            arcs.append((v, w))
            out_adj[v].add(w)
        while frontier:
            w = frontier.popleft()
            for u in sorted(out_adj[w]):
                if u in burned:
                    continue
                if gen.random() < p_burn:
                    burned.add(u)
                    frontier.append(u)
                    arcs.append((v, u))
                    out_adj[v].add(u)
    return Graph(n, arcs)


def gen_dorogovtsev_goltsev_mendes(steps: int, max_vertices: int = 2_000_000) -> Graph:
    """Deterministic pseudo-fractal: start from one symmetric edge; each step
    attaches a new vertex to both ends of every existing undirected edge.
    Counts follow V_{t+1} = V_t + E_t and E_{t+1} = 3 E_t."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    v_count, e_count = 2, 1
    for _ in range(steps):
        v_count += e_count
        e_count *= 3
    if v_count > max_vertices:
        raise ValueError(
            f"{steps} steps would create {v_count} vertices, over the {max_vertices} budget"
        )
    edges: list[tuple[int, int]] = [(0, 1)]
    n = 2
    for _ in range(steps):
        new_edges = list(edges)
        for a, b in edges:
            new_vertex = n
            n += 1
            new_edges.append((a, new_vertex))
            new_edges.append((b, new_vertex))
        edges = new_edges
    return symmetrize(Graph(n, edges))


def gen_disassortative(
    n: int = 100,
    stop_threshold: float = -0.4,
    max_rounds: int = 200,
    seed: int = 0,
) -> Graph:
    """Rounds of skewed arc creation until degree assortativity drops below
    the threshold.

    Each round draws a fresh arc set: with the default n=100, vertices 0-9
    each create 30-40 arcs to uniform targets in [50, 100); vertices 10-49
    create up to 15 arcs and vertices 50-99 create 0-2 arcs, both to uniform
    targets anywhere.  Self-loops and duplicates are dropped after each
    round.  The stop test measures degree assortativity on the undirected
    view of the draw (arcs accumulate degree symmetrically there); a round
    that passes is returned as-is.  Other n scale the three bands
    proportionally (10% / 40% / 50%).
    """
    if stop_threshold >= 0:
        raise ValueError(f"stop threshold must be negative, got {stop_threshold}")
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    gen = RngStream(seed).generator
    hubs_end = n // 10
    mid_end = n // 2
    graph = Graph(n, ())
    for _ in range(max_rounds):
        arcs: set[tuple[int, int]] = set()
        for i in range(hubs_end):
            count = int(gen.integers(30, 41))
            for t in gen.integers(mid_end, n, size=count):
                if int(t) != i:
                    arcs.add((i, int(t)))
        for i in range(hubs_end, mid_end):
            count = int(gen.integers(0, 16))
            for t in gen.integers(0, n, size=count):
                if int(t) != i:
                    arcs.add((i, int(t)))
        for i in range(mid_end, n):
            count = int(gen.integers(0, 3))
            for t in gen.integers(0, n, size=count):
                if int(t) != i:
                    arcs.add((i, int(t)))
        graph = Graph(n, arcs)
        r = assortativity(symmetrize(graph))
        if r < stop_threshold:
            return graph
    warnings.warn(
        f"assortativity did not fall below {stop_threshold} within {max_rounds} rounds",
        stacklevel=2,
    )
    return graph
