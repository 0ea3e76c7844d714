"""Network generators: the rank-based priority sampler plus six baselines.

The priority sampler builds, for every vertex, a local ranking of all other
vertices from a distance function, then draws that vertex's out-neighbours
without replacement using the 1/rank probability mass.  Kinds that rank every
source's targets by one shared vector (centrality scores, or the random
kind's all-tied vector) draw from it without per-source rows; a per-source
row with no tied targets takes its draws as slots of its sorted order, and
a source that its learned kind proves tie-free along a shared order takes
them as slots of that order without evaluating its row.
A pass reads one ``DistanceContext``: vertex count, attributes, and the
centrality vectors of a frozen reference graph as its ``NetworkProfile``.
When re-creating a source network the source itself is the reference; when
generating from scratch a random bootstrap graph seeds the centralities and
one refinement pass regenerates the network from its own.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distance import DistanceContext, DistanceFunction, RandomDistance
from .graph import Graph, _check_cells, symmetrize
from .metrics import NetworkProfile
from .ranking import by_rejection, sample_shared, sample_sorted, sort_block
from .stats import RngStream, _whole


@dataclass(frozen=True)
class DegreeSpec:
    """Out-degree budget per vertex: a constant ``k``, or i.i.d. resampling
    from a source network's out-degree sequence ``histogram``.  A spec holds
    exactly one of the two."""

    k: int | None = None
    histogram: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.k is None) == (self.histogram is None):
            raise ValueError("degree spec needs exactly one of k and histogram")
        if self.k is not None:
            k = _whole(self.k, "constant out-degree")
            if k < 1:
                raise ValueError(f"constant out-degree must be >= 1, got {k}")
            object.__setattr__(self, "k", k)
        else:
            if isinstance(self.histogram, np.ndarray) and self.histogram.dtype.kind in "iu":
                histogram = tuple(self.histogram.tolist())
            else:
                histogram = tuple(_whole(d, "out-degree") for d in self.histogram)
            if not histogram:
                raise ValueError("resample spec needs a non-empty out-degree sequence")
            if any(d < 0 for d in histogram):
                raise ValueError("out-degree sequence must be non-negative")
            object.__setattr__(self, "histogram", histogram)

    @classmethod
    def constant(cls, k: int) -> "DegreeSpec":
        return cls(k=k)

    @classmethod
    def resample(cls, out_degrees) -> "DegreeSpec":
        return cls(histogram=out_degrees)

    def draws(self, n: int, rng: RngStream) -> np.ndarray:
        if self.k is not None:
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


def _row_draws(sources, ks, positions, rows, stream: RngStream):
    """Heads and tails of the draws of ``sources`` from their distance rows,
    sorted a block at a time by ``sort_block``.

    ``positions`` holds ks slots for every source where ``by_rejection``
    holds, source after source.  Such a source whose row has no tied
    targets takes its slots of its sorted row.  Every other source draws
    exponential keys (``sample_sorted``) from its own row of n uniforms of
    ``stream``, in source order.  Which path a source takes depends only on
    n, its k and its own row, so the draws do not depend on the block
    size."""
    n = len(ks)
    block = max(1, _BLOCK_CELLS // n)
    direct = by_rejection(n, ks[sources])
    ends = np.cumsum(np.where(direct, ks[sources], 0))
    heads, tails = [], []
    for start in range(0, len(sources), block):
        stop = min(start + block, len(sources))
        block_sources = sources[start:stop]
        marked = direct[start:stop]
        ranked = sort_block(rows(block_sources), block_sources, ~marked)
        owner = np.repeat(np.flatnonzero(marked), ks[block_sources[marked]])
        slots = positions[ends[stop - 1] - len(owner) : ends[stop - 1]]
        use = ranked.tie_free[owner]
        owner, slots = owner[use], slots[use]
        heads.append(block_sources[owner])
        tails.append(ranked.targets(owner, slots))
        # every keyed row is among the rows held in full
        keyed = ~(marked & ranked.tie_free)[ranked.rows]
        if keyed.any():
            chosen = ranked.rows[keyed]
            u = stream.generator.random((len(chosen), n))
            keyed_ks = ks[block_sources[chosen]]
            heads.append(np.repeat(block_sources[chosen], keyed_ks))
            tails.append(sample_sorted(ranked.perm[keyed], ranked.ordered[keyed], keyed_ks, u))
    return heads, tails


def _generation_pass(ctx: DistanceContext, spec: DistanceFunction, degrees: DegreeSpec, stream: RngStream) -> Graph:
    # stream children: 0 degrees, 2 sample_shared, 3 keyed rows; 1 is unused
    # (renumbering would change seeded graphs)
    n = ctx.n
    ks = degrees.draws(n, stream.child(0))
    shared = spec.shared_distances(ctx)
    sources = np.flatnonzero(ks > 0)
    fast = by_rejection(n, ks[sources])
    drawn = sources[fast]
    gen = stream.child(2).generator
    order = None
    if shared is None:
        # a tie-free row's targets, sorted, rank 1..n-1: their slots follow
        # the law of the vector 0..n-1 seen from n - 1, the slot sorted last
        draws = sample_shared(np.arange(n), np.full(len(drawn), n - 1), ks[drawn], gen)
        order, proven = spec.shared_order(ctx) or (None, np.zeros(n, dtype=bool))
        slotted = fast & proven[sources]
    else:
        draws = sample_shared(shared, drawn, ks[drawn], gen)
        slotted = fast
    taken = np.repeat(slotted[fast], ks[drawn])
    heads, tails = _row_draws(sources[~slotted], ks, draws[~taken], partial(spec.rows, ctx), stream.child(3))
    owners = np.repeat(sources[slotted], ks[sources[slotted]])
    targets = draws[taken]
    if order is not None:
        # a proven row sorts its targets along the order with no tie, so
        # slot s of source i is the order's entry s, skipping i, and its row
        # is never evaluated
        place = np.empty(n, dtype=np.int64)
        place[order] = np.arange(n)
        targets = order[targets + (targets >= place[owners])]
    heads.append(owners)
    tails.append(targets)
    return Graph(n, np.column_stack([np.concatenate(heads), np.concatenate(tails)]))


def priority_rank_generate(ctx: DistanceContext, spec: DistanceFunction, degrees: DegreeSpec, seed: int) -> Graph:
    """Generate a directed graph on the vertices of ``ctx`` by rank-based
    priority sampling.

    Every vertex i receives its out-degree budget, ranks all other vertices
    with the distance function, and draws that many distinct targets.  The
    output is deterministic for a fixed seed.  The pass runs in one thread.
    Where ``by_rejection`` holds, kinds with shared distances (centrality,
    random) draw targets through ``sample_shared`` and evaluate no rows,
    and the other kinds draw slots of their sorted rows through it, one
    call for the whole pass.  A source that ``spec.shared_order`` proves
    strictly increasing along its order maps its slots through the order;
    the other sources evaluate and sort their rows a block of sources at a
    time.  A row with tied targets, and every source over the rejection
    limit, draws exponential keys (``sample_sorted``).

    Many passes may share one context and what it caches.  A centrality
    kind given a context without centralities bootstraps its own reference.
    """
    root = RngStream(seed)
    if spec.requires_centrality and ctx.centralities is None:
        # No reference: bootstrap from a random graph of the same shape, then
        # regenerate once more from the intermediate network's centralities.
        bootstrap = _generation_pass(ctx, RandomDistance(), degrees, root.child(1))
        reference = DistanceContext(ctx.n, ctx.attrs, NetworkProfile(bootstrap))
        first = _generation_pass(reference, spec, degrees, root.child(2))
        reference = DistanceContext(ctx.n, ctx.attrs, NetworkProfile(first))
        return _generation_pass(reference, spec, degrees, root.child(3))
    return _generation_pass(ctx, spec, degrees, root.child(0))


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Each ordered pair (i, j), i != j, becomes an arc with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    _check_cells(n * n, "Erdős–Rényi draws")
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
            # a vertex keeps k < n - 1 arcs, and a rewired head is never a
            # lattice target still to visit
            if gen.random() < p_rewire:
                while True:
                    t = int(gen.integers(0, n))
                    if t != i and t not in out_sets[i]:
                        break
                out_sets[i].discard((i + off) % n)
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
        while len(chosen) < k:  # v >= n0 >= k candidates
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


# The most vertices a DGM graph may have, checked before it is built.
_DGM_MAX_VERTICES = 2_000_000


def gen_dorogovtsev_goltsev_mendes(steps: int) -> Graph:
    """Deterministic pseudo-fractal: start from one symmetric edge; each step
    attaches a new vertex to both ends of every existing undirected edge.
    Counts follow V_{t+1} = V_t + E_t and E_{t+1} = 3 E_t."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    v_count, e_count = 2, 1
    for _ in range(steps):
        v_count += e_count
        e_count *= 3
    if v_count > _DGM_MAX_VERTICES:
        raise ValueError(
            f"{steps} steps would create {v_count} vertices, over the {_DGM_MAX_VERTICES} budget"
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
    # written so that NaN fails too
    if not stop_threshold < 0:
        raise ValueError(f"stop threshold must be negative, got {stop_threshold}")
    max_rounds = _whole(max_rounds, "max_rounds")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    gen = RngStream(seed).generator
    # (first vertex, end, arc counts in [low, high), lowest target)
    bands = ((0, n // 10, 30, 41, n // 2), (n // 10, n // 2, 0, 16, 0), (n // 2, n, 0, 3, 0))
    graph = Graph(n, ())
    for _ in range(max_rounds):
        arcs: set[tuple[int, int]] = set()
        for start, stop, low, high, target_low in bands:
            for i in range(start, stop):
                for t in gen.integers(target_low, n, size=int(gen.integers(low, high))):
                    if int(t) != i:
                        arcs.add((i, int(t)))
        graph = Graph(n, arcs)
        r = NetworkProfile(symmetrize(graph)).assortativity
        if r < stop_threshold:
            return graph
    warnings.warn(
        f"assortativity did not fall below {stop_threshold} within {max_rounds} rounds",
        stacklevel=2,
    )
    return graph
