"""Distance functions that induce local vertex rankings.

A distance function maps an ordered vertex pair (i, j), i != j, to a
non-negative finite real.  Smaller distance means higher attachment
priority.  The catalog covers random draws, inverse-centrality scores,
attribute-space metrics, weighted aggregates, a hierarchical blend, and two
machine-learned distances fitted from a graph's adjacency structure.

Evaluation runs against a :class:`DistanceContext` holding the attribute
table and the centrality vectors of a reference graph.

``rows(ctx, sources)`` gives the distances from a block of sources to every
vertex as one (len(sources), n) array, ``row(ctx, i)`` is
``rows(ctx, [i])[0]`` and ``evaluate(ctx, i, j)`` is ``row(ctx, i)[j]``.

A kind whose every source ranks the targets by one vector returns it from
``shared_distances(ctx)``: the centrality kinds their target scores, the
random kind an all-tied vector.  Its rows broadcast that vector, and the
generator draws with ``ranking.sample_shared`` without evaluating rows.
Every other kind defines ``rows`` and runs work that all sources share once
per call.  If its rows all sort the targets the same way, but tie
differently per source (linear regression, naive Bayes), ``order(ctx)``
returns that permutation.  The order is only a hint: ``ranking.sort_rows``
checks every row against it and sorts any block with a row that is not
non-decreasing in it by packed keys, so correctness never depends on it.

Each kind is a frozen dataclass whose fields, in order and with tuples as
lists, are its JSON form after ``"kind"``; a centrality kind's kind is its
centrality.  ``spec_from_json_dict`` reads a missing or null field as its
default and raises ``ValueError`` on a malformed document, such as one
with a key that is not among the kind's fields.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import ClassVar, Mapping

import numpy as np

from . import metrics
from .graph import AttributeTable, Graph
from .stats import RngStream

CENTRALITY_KINDS = metrics.CENTRALITY_KINDS
DEFAULT_EPS = 1e-6

_VAR_FLOOR = 1e-9


def _check_eps(eps: float) -> None:
    # written so that NaN fails too
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")


class DistanceContext:
    """Evaluation context: vertex count, attributes and reference centralities.

    Centrality-based kinds read vectors computed on ``reference`` (or passed
    in directly via ``centralities``); they never see the graph being built.
    """

    def __init__(
        self,
        n: int | None = None,
        attrs: AttributeTable | None = None,
        reference: Graph | None = None,
        centralities: Mapping[str, np.ndarray] | None = None,
    ):
        if n is None:
            if attrs is not None:
                n = attrs.n
            elif reference is not None:
                n = reference.n
            else:
                raise ValueError("context needs n, attrs, or a reference graph")
        self.n = int(n)
        if attrs is not None and attrs.n != self.n:
            raise ValueError(f"attribute table has {attrs.n} rows, context n={self.n}")
        if reference is not None and reference.n != self.n:
            raise ValueError(f"reference graph has n={reference.n}, context n={self.n}")
        self.attrs = attrs
        self.reference = reference
        self._centralities: dict[str, np.ndarray] = dict(centralities or {})
        self._features: dict = {}
        self._scores: dict = {}

    @cached_property
    def _profile(self) -> metrics.NetworkProfile:
        # lazy: a kind pays only for the field it reads.  Not network_profile,
        # which benchmarks/probe.py counts as a full sweep per call.
        return metrics.NetworkProfile(self.reference)

    def centrality(self, kind: str) -> np.ndarray:
        if kind in self._centralities:
            return self._centralities[kind]
        if self.reference is None:
            raise ValueError(
                f"{kind} distance needs a reference graph or precomputed centralities"
            )
        if kind not in CENTRALITY_KINDS:
            raise ValueError(f"unknown centrality kind {kind!r}")
        return getattr(self._profile, kind)

    def features(self, encoder: "FeatureEncoder") -> np.ndarray:
        mat = self._features.get(encoder)
        if mat is None:
            if self.attrs is None:
                raise ValueError("learned distance needs an attribute table")
            mat = encoder.encode(self.attrs)
            self._features[encoder] = mat
        return mat


def reference_centralities(g: Graph) -> dict[str, np.ndarray]:
    """Precompute every centrality vector a context may ask for."""
    return metrics.network_profile(g).centralities()


@dataclass(frozen=True)
class DistanceFunction:
    """Base class; concrete kinds implement ``shared_distances`` or
    ``rows``, and may offer ``order``."""

    kind: ClassVar[str] = ""
    requires_attributes: ClassVar[bool] = False
    requires_centrality: ClassVar[bool] = False

    def rows(self, ctx: DistanceContext, sources: np.ndarray) -> np.ndarray:
        """Distances from each source in the 1-d integer array ``sources`` to
        every vertex, as a (len(sources), n) block that may be a read-only
        view.  Each source's own entry is a placeholder and must never be
        consumed.  A kind with shared distances broadcasts them."""
        shared = self.shared_distances(ctx)
        if shared is None:
            raise NotImplementedError
        return np.broadcast_to(shared, (len(sources), ctx.n))

    def row(self, ctx: DistanceContext, i: int) -> np.ndarray:
        """Distances from source i to every vertex: ``rows(ctx, [i])[0]``."""
        return self.rows(ctx, np.array([i], dtype=np.int64))[0]

    def order(self, ctx: DistanceContext) -> np.ndarray | None:
        """A permutation of the targets in which every row is non-decreasing
        up to rounding, or None when sources order targets differently.
        A hint only: ``ranking.sort_rows`` checks each row against it and
        sorts a block that fails by packed keys."""
        return None

    def shared_distances(self, ctx: DistanceContext) -> np.ndarray | None:
        """One length-n vector d such that every source i draws its targets
        with the law of ranking the vertices j != i by d[j], or None."""
        return None

    def evaluate(self, ctx: DistanceContext, i: int, j: int) -> float:
        if i == j:
            raise ValueError("distance is only queried for i != j")
        if not (0 <= i < ctx.n and 0 <= j < ctx.n):
            raise ValueError(f"vertex pair ({i}, {j}) outside context n={ctx.n}")
        return float(self.row(ctx, i)[j])

    def to_json_dict(self) -> dict:
        """``{"kind": ...}`` then every field in field order, tuples as lists."""
        return {"kind": self.kind, **{f.name: _json_value(getattr(self, f.name)) for f in fields(self)}}


def _json_value(value):
    if isinstance(value, FeatureEncoder):
        return value.to_json()
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class RandomDistance(DistanceFunction):
    """The paper's i.i.d. random distances, as their law: any continuous
    i.i.d. distances rank the targets in a uniform random permutation, so
    every ordered draw is uniform over ordered k-tuples of targets.  That is
    the law of an all-tied row, so every distance is 0.0."""

    kind: ClassVar[str] = "random"

    def shared_distances(self, ctx):
        return np.zeros(ctx.n)


@dataclass(frozen=True)
class CentralityDistance(DistanceFunction):
    """1 / (C(j) + eps) for a chosen centrality; depends on the target only,
    so every source shares one global ranking."""

    centrality: str
    eps: float = DEFAULT_EPS
    requires_centrality: ClassVar[bool] = True

    def __post_init__(self):
        if self.centrality not in CENTRALITY_KINDS:
            raise ValueError(f"unknown centrality {self.centrality!r}")
        _check_eps(self.eps)

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.centrality

    def shared_distances(self, ctx):
        return 1.0 / (ctx.centrality(self.centrality) + self.eps)

    def to_json_dict(self):
        return {"kind": self.centrality, "eps": self.eps}


def _numeric_column(ctx: DistanceContext, name: str) -> np.ndarray:
    if ctx.attrs is None:
        raise ValueError("attribute-based distance needs an attribute table")
    return ctx.attrs.numeric_array(name)


@dataclass(frozen=True)
class Euclidean1D(DistanceFunction):
    """|a_i - a_j| on a single numeric attribute."""

    attr: str
    kind: ClassVar[str] = "euclidean1d"
    requires_attributes: ClassVar[bool] = True

    def rows(self, ctx, sources):
        vals = _numeric_column(ctx, self.attr)
        out = np.subtract(vals, vals[sources, None])
        return np.abs(out, out=out)


@dataclass(frozen=True)
class Euclidean2D(DistanceFunction):
    """Euclidean distance over two numeric attributes."""

    attr1: str
    attr2: str
    kind: ClassVar[str] = "euclidean2d"
    requires_attributes: ClassVar[bool] = True

    def rows(self, ctx, sources):
        a = _numeric_column(ctx, self.attr1)
        b = _numeric_column(ctx, self.attr2)
        out = np.square(np.subtract(a, a[sources, None]))
        out += np.square(np.subtract(b, b[sources, None]))
        return np.sqrt(out, out=out)


@dataclass(frozen=True)
class CosineDistance(DistanceFunction):
    """1 - cosine similarity of the numeric attribute vectors."""

    attrs: tuple[str, ...] | None = None
    kind: ClassVar[str] = "cosine"
    requires_attributes: ClassVar[bool] = True

    def _matrix(self, ctx) -> np.ndarray:
        if ctx.attrs is None:
            raise ValueError("cosine distance needs an attribute table")
        names = self.attrs if self.attrs is not None else ctx.attrs.numeric_names()
        if not names:
            raise ValueError("cosine distance needs at least one numeric attribute")
        return np.column_stack([_numeric_column(ctx, n) for n in names])

    def rows(self, ctx, sources):
        mat = self._matrix(ctx)
        norms = np.linalg.norm(mat, axis=1)
        if (norms == 0.0).any():
            bad = int(np.argmin(norms))
            raise ValueError(f"vertex {bad} has a zero-norm attribute vector")
        out = np.empty((len(sources), ctx.n))
        for r, i in enumerate(sources.tolist()):
            # one product per source: a block matrix product may round
            # differently, and rows must not depend on the block
            np.matmul(mat, mat[i], out=out[r])
        out /= norms * norms[sources, None]
        np.subtract(1.0, out, out=out)
        return np.maximum(out, 0.0, out=out)


@dataclass(frozen=True)
class AggregateDistance(DistanceFunction):
    """Weighted sum of per-attribute distances: |difference| for numeric
    attributes, 0/1 mismatch for categorical ones."""

    weights: tuple[tuple[str, float], ...]
    kind: ClassVar[str] = "aggregate"
    requires_attributes: ClassVar[bool] = True

    def __post_init__(self):
        if not self.weights:
            raise ValueError("aggregate distance needs at least one attribute weight")
        for name, w in self.weights:
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"aggregate weight of {name!r} must be finite and non-negative, got {w}")

    def rows(self, ctx, sources):
        if ctx.attrs is None:
            raise ValueError("aggregate distance needs an attribute table")
        total = np.zeros((len(sources), ctx.n))
        term = np.empty_like(total)
        for name, w in self.weights:
            if ctx.attrs.column(name).is_numeric:
                vals = ctx.attrs.numeric_array(name)
                np.subtract(vals, vals[sources, None], out=term)
                np.abs(term, out=term)
            else:
                codes = ctx.attrs.codes(name)
                np.not_equal(codes, codes[sources, None], out=term)
            term *= w
            total += term
        return total


def make_age_sex_distance() -> AggregateDistance:
    """Social-affinity distance: |age_i - age_j| plus a 10-year penalty when
    the sex labels differ.  Expects an ``age`` numeric column and a ``sex``
    categorical column."""
    return AggregateDistance(weights=(("age", 1.0), ("sex", 10.0)))


@dataclass(frozen=True)
class HierarchicalMixDistance(DistanceFunction):
    """alpha * euclidean + (1 - alpha) * |class rank difference|."""

    alpha: float
    class_ranks: tuple[int, ...]
    euclid_attrs: tuple[str, ...] = ()
    kind: ClassVar[str] = "hierarchical_mix"
    requires_attributes: ClassVar[bool] = True

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    def rows(self, ctx, sources):
        if len(self.class_ranks) != ctx.n:
            missing = ctx.n - len(self.class_ranks)
            raise ValueError(f"class map leaves {missing} vertex(es) unmapped")
        ranks = np.array(self.class_ranks, dtype=np.float64)
        hier = np.subtract(ranks, ranks[sources, None])
        np.abs(hier, out=hier)
        if self.alpha == 0.0:
            return hier
        cols = [_numeric_column(ctx, name) for name in self.euclid_attrs]
        if not cols:
            raise ValueError("hierarchical mix with alpha > 0 needs euclidean attributes")
        sq = np.zeros_like(hier)
        term = np.empty_like(hier)
        for vals in cols:
            np.subtract(vals, vals[sources, None], out=term)
            sq += np.square(term, out=term)
        np.sqrt(sq, out=sq)
        sq *= self.alpha
        hier *= 1.0 - self.alpha
        sq += hier
        return sq


def make_hierarchical_mix_distance(
    alpha: float, class_map, euclid_attrs=()
) -> HierarchicalMixDistance:
    """Build the blend from a vertex -> integer class rank mapping."""
    if isinstance(class_map, Mapping):
        if not class_map:
            raise ValueError("class map is empty")
        n = max(class_map) + 1
        ranks = []
        for v in range(n):
            if v not in class_map:
                raise ValueError(f"vertex {v} is unmapped in the class map")
            ranks.append(int(class_map[v]))
    else:
        ranks = [int(r) for r in class_map]
    return HierarchicalMixDistance(
        alpha=float(alpha),
        class_ranks=tuple(ranks),
        euclid_attrs=tuple(euclid_attrs),
    )


@dataclass(frozen=True)
class FeatureEncoder:
    """Per-vertex feature layout: numeric columns pass through, categorical
    columns expand one-hot against the label set seen at build time."""

    columns: tuple[tuple[str, str, tuple[str, ...]], ...]

    @classmethod
    def from_table(cls, table: AttributeTable) -> "FeatureEncoder":
        cols = []
        for col in table.columns:
            labels = table.labels(col.name) if not col.is_numeric else ()
            cols.append((col.name, col.kind, labels))
        return cls(columns=tuple(cols))

    @cached_property
    def binary_mask(self) -> np.ndarray:
        mask = []
        for _, _, labels in self.columns:
            if labels:
                mask.extend([True] * len(labels))
            else:
                mask.append(False)
        return np.array(mask, dtype=bool)

    def encode(self, table: AttributeTable) -> np.ndarray:
        blocks = []
        for name, kind, labels in self.columns:
            col = table.column(name)
            if labels:
                if col.is_numeric:
                    raise ValueError(f"attribute {name!r} changed kind since fitting")
                block = np.zeros((table.n, len(labels)))
                index = {lab: k for k, lab in enumerate(labels)}
                for row, value in enumerate(col.values):
                    k = index.get(value)
                    if k is not None:
                        block[row, k] = 1.0
                blocks.append(block)
            else:
                blocks.append(table.numeric_array(name).reshape(-1, 1))
        return np.hstack(blocks) if blocks else np.zeros((table.n, 0))

    def to_json(self) -> list:
        return [[name, kind, list(labels)] for name, kind, labels in self.columns]

    @classmethod
    def from_json(cls, doc) -> "FeatureEncoder":
        return cls(
            columns=tuple((name, kind, tuple(labels)) for name, kind, labels in doc)
        )


@dataclass(frozen=True)
class TrainingSet:
    """Adjacency-labelled vertex-pair features: label 1 for an arc,
    0 for a sampled non-arc."""

    features: np.ndarray
    labels: np.ndarray
    encoder: FeatureEncoder

    @property
    def pair_binary_mask(self) -> np.ndarray:
        return np.tile(self.encoder.binary_mask, 2)


def _check_negative_ratio(negative_ratio: float) -> None:
    # written so that NaN fails too
    if not negative_ratio > 0:
        raise ValueError(f"negative_ratio must be > 0, got {negative_ratio}")


def build_training_set(
    g: Graph,
    attrs: AttributeTable,
    negative_ratio: float = 1.0,
    rng: RngStream | None = None,
) -> TrainingSet:
    """All adjacent pairs as positives plus uniformly sampled non-adjacent
    pairs as negatives, ceil(negative_ratio * positives) of them (capped by
    availability).  ``negative_ratio=math.inf`` keeps every non-arc."""
    if attrs.n != g.n:
        raise ValueError(f"attribute table has {attrs.n} rows for a graph of n={g.n}")
    _check_negative_ratio(negative_ratio)
    positives = g.arc_array
    if not len(positives):
        raise ValueError("graph has no arcs, so no positive examples")
    n = g.n
    free = np.ones((n, n), dtype=bool)
    np.fill_diagonal(free, False)
    free[positives[:, 0], positives[:, 1]] = False
    # row-major flat indices i * n + j of every non-arc
    non_arcs = np.flatnonzero(free)
    if not len(non_arcs):
        raise ValueError("graph is complete, so no negative examples")
    wanted = math.ceil(negative_ratio * len(positives)) if math.isfinite(negative_ratio) else len(non_arcs)
    wanted = min(wanted, len(non_arcs))
    if wanted < len(non_arcs):
        if rng is None:
            raise ValueError("negative subsampling needs an rng stream")
        picked = rng.generator.choice(len(non_arcs), size=wanted, replace=False)
        negatives = non_arcs[np.sort(picked)]
    else:
        negatives = non_arcs
    encoder = FeatureEncoder.from_table(attrs)
    phi = encoder.encode(attrs)
    feats = np.hstack(
        [
            phi[np.concatenate([positives[:, 0], negatives // n])],
            phi[np.concatenate([positives[:, 1], negatives % n])],
        ]
    )
    labels = np.concatenate(
        [np.ones(len(positives)), np.zeros(len(negatives))]
    )
    return TrainingSet(features=feats, labels=labels, encoder=encoder)


@dataclass(frozen=True)
class LinearRegressionDistance(DistanceFunction):
    """Least-squares fit of 1 - adjacency on pair features; negative raw
    outputs are clamped to zero."""

    beta: tuple[float, ...]
    encoder: FeatureEncoder
    kind: ClassVar[str] = "linear_regression"
    requires_attributes: ClassVar[bool] = True

    def _target_scores(self, ctx) -> np.ndarray:
        """phi(j) . beta_target for every vertex j, once per context."""
        scores = ctx._scores.get(self)
        if scores is None:
            phi = ctx.features(self.encoder)
            p = phi.shape[1]
            scores = ctx._scores[self] = phi @ np.array(self.beta, dtype=np.float64)[p : 2 * p]
        return scores

    def rows(self, ctx, sources):
        phi = ctx.features(self.encoder)
        p = phi.shape[1]
        beta = np.array(self.beta, dtype=np.float64)
        # one dot product per source: a block product may round differently,
        # and rows must not depend on the block
        consts = np.array([float(phi[i] @ beta[:p]) for i in sources.tolist()]) + beta[2 * p]
        out = np.add(self._target_scores(ctx), consts[:, None])
        return np.maximum(out, 0.0, out=out)

    def order(self, ctx):
        # a per-target score plus a per-source constant, clamped at 0
        return np.argsort(self._target_scores(ctx), kind="stable")


def fit_linear_regression_distance(ts: TrainingSet) -> LinearRegressionDistance:
    """Ordinary least squares with intercept on y = 1 - label.

    The minimum-norm solution comes from the normal equations.  The m x k
    design X is scaled by one power of two so that max|X| < 1 and the Gram
    matrix cannot overflow (a uniform scale keeps the minimum-norm solution).
    G = X^T X and X^T y are summed with ``np.einsum``, numpy's own loops, so
    no m-row operand reaches BLAS; only the k x k eigendecomposition of G
    does.  Eigenvalues at or below ``lambda_max * max(m, k) * eps`` count as
    zero, and the rank is the number kept.  Forming G squares the condition
    number, which costs accuracy in nearly collinear directions; the fit
    only ranks targets, and the betas agree with an SVD solve to about 1e-14
    on the pipeline's designs.
    """
    if ts.features.shape[0] < 2:
        raise ValueError("training set needs at least 2 rows")
    if len(np.unique(ts.labels)) < 2:
        raise ValueError("training set needs at least one example of each label")
    X = np.hstack([ts.features, np.ones((ts.features.shape[0], 1))])
    y = 1.0 - ts.labels
    m, k = X.shape
    _, exponent = np.frexp(np.max(np.abs(X)))
    X = np.ldexp(X, -exponent)
    gram = np.einsum("ij,ik->jk", X, X)
    moments = np.einsum("ij,i->j", X, y)
    eigvals, eigvecs = np.linalg.eigh(gram)
    kept = eigvals > eigvals[-1] * max(m, k) * np.finfo(np.float64).eps
    rank = int(np.count_nonzero(kept))
    basis = eigvecs[:, kept]
    beta = np.ldexp(basis @ ((basis.T @ moments) / eigvals[kept]), -exponent)
    if rank < k:
        warnings.warn(
            f"design matrix is rank-deficient (rank {rank} of {k}); "
            "using the minimum-norm solution",
            stacklevel=2,
        )
    return LinearRegressionDistance(beta=tuple(float(b) for b in beta), encoder=ts.encoder)


@dataclass(frozen=True)
class NaiveBayesDistance(DistanceFunction):
    """Posterior-odds distance P(no edge | features) / (P(edge | features) + eps).

    Continuous pair features carry per-class Gaussian statistics, one-hot
    features per-class Bernoulli rates with add-one smoothing.  Adjacent-looking
    pairs get small distances.
    """

    prior_edge: float
    prior_no_edge: float
    means: tuple        # (edge, no-edge) rows over 2p pair features
    variances: tuple
    bernoulli: tuple
    binary_mask: tuple
    eps: float = DEFAULT_EPS
    encoder: FeatureEncoder = field(kw_only=True)  # after eps in the JSON form
    kind: ClassVar[str] = "naive_bayes"
    requires_attributes: ClassVar[bool] = True

    def __post_init__(self):
        _check_eps(self.eps)

    @cached_property
    def _params(self):
        return (
            np.array(self.means),
            np.array(self.variances),
            np.array(self.bernoulli),
            np.array(self.binary_mask, dtype=bool),
        )

    def _half_scores(self, phi: np.ndarray, offset: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex class log-likelihoods for one half of the pair features."""
        means, variances, bern, mask = self._params
        p = phi.shape[1]
        cols = slice(offset, offset + p)
        out = []
        for c in range(2):
            mu = means[c, cols]
            var = variances[c, cols]
            # rates for continuous slots are placeholders; clip keeps log finite
            rate = np.clip(bern[c, cols], 1e-12, 1.0 - 1e-12)
            gauss = -0.5 * (np.log(2.0 * math.pi * var) + (phi - mu) ** 2 / var)
            berno = phi * np.log(rate) + (1.0 - phi) * np.log(1.0 - rate)
            half_mask = mask[cols]
            out.append(np.where(half_mask, berno, gauss).sum(axis=1))
        return out[0], out[1]

    def _scores(self, ctx) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        cached = ctx._scores.get(self)
        if cached is None:
            phi = ctx.features(self.encoder)
            p = phi.shape[1]
            src_edge, src_no = self._half_scores(phi, 0)
            dst_edge, dst_no = self._half_scores(phi, p)
            cached = (src_edge, src_no, dst_edge, dst_no)
            ctx._scores[self] = cached
        return cached

    def rows(self, ctx, sources):
        src_edge, src_no, dst_edge, dst_no = self._scores(ctx)
        # class log-scores, turned into posteriors in place
        p_edge = np.add((math.log(self.prior_edge) + src_edge[sources])[:, None], dst_edge)
        p_no = np.add((math.log(self.prior_no_edge) + src_no[sources])[:, None], dst_no)
        norm = np.maximum(p_edge, p_no)
        p_edge -= norm
        p_no -= norm
        np.exp(p_edge, out=p_edge)
        np.exp(p_no, out=p_no)
        np.add(p_edge, p_no, out=norm)
        p_no /= norm
        p_edge /= norm
        p_edge += self.eps
        p_no /= p_edge
        return p_no

    def order(self, ctx):
        # the distance falls as the edge log-odds, a per-source plus a
        # per-target sum, rise
        _, _, dst_edge, dst_no = self._scores(ctx)
        return np.argsort(dst_no - dst_edge, kind="stable")


def fit_naive_bayes_distance(ts: TrainingSet, eps: float = DEFAULT_EPS) -> NaiveBayesDistance:
    """Class-conditional Gaussian/Bernoulli fit; class order is (edge, no edge)."""
    if ts.features.shape[0] < 2:
        raise ValueError("training set needs at least 2 rows")
    counts = [int((ts.labels == 1).sum()), int((ts.labels == 0).sum())]
    if min(counts) < 1:
        raise ValueError("training set needs at least one example of each label")
    total = ts.features.shape[0]
    means, variances, bernoulli = [], [], []
    for label in (1.0, 0.0):
        rows = ts.features[ts.labels == label]
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), _VAR_FLOOR))
        bernoulli.append((rows.sum(axis=0) + 1.0) / (rows.shape[0] + 2.0))
    return NaiveBayesDistance(
        prior_edge=counts[0] / total,
        prior_no_edge=counts[1] / total,
        means=tuple(tuple(float(v) for v in row) for row in means),
        variances=tuple(tuple(float(v) for v in row) for row in variances),
        bernoulli=tuple(tuple(float(v) for v in row) for row in bernoulli),
        binary_mask=tuple(bool(b) for b in ts.pair_binary_mask),
        encoder=ts.encoder,
        eps=eps,
    )


# every catalog class by kind; a centrality kind's class holds it as a field
_KINDS = dict.fromkeys(CENTRALITY_KINDS, CentralityDistance)
_KINDS.update((c.kind, c) for c in DistanceFunction.__subclasses__() if c is not CentralityDistance)


# a field's JSON type by the head of its annotation; any other field is a list
_JSON_TYPES = {"float": ((int, float), "a number"), "str": (str, "a string")}


def _spec_value(value):
    return tuple(_spec_value(v) for v in value) if isinstance(value, list) else value


def spec_from_json_dict(doc) -> DistanceFunction:
    """Rebuild a distance function from its JSON document.

    Each field of the kind's class is read by name, lists as tuples; a
    missing or null field takes its default.  A malformed document, or a key
    that is no field of the kind, raises ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError(f"distance spec must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown distance kind {kind!r}")
    values = {"centrality": kind} if cls is CentralityDistance else {}
    known = {"kind"} | {f.name for f in fields(cls)} - values.keys()
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"{kind} spec has no field {unknown[0]!r}")
    try:
        for f in fields(cls):
            value = doc.get(f.name)
            if f.name in values or (value is None and f.default is not MISSING):
                continue
            if value is None:
                raise ValueError(f"{kind} spec needs field {f.name!r}")
            value = _spec_value(value)
            types, what = _JSON_TYPES.get(f.type.split("[")[0], (tuple, "a list"))
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{kind} spec field {f.name!r} must be {what}, got {value!r}")
            values[f.name] = FeatureEncoder.from_json(value) if f.name == "encoder" else value
        return cls(**values)
    except TypeError as exc:
        raise ValueError(f"bad {kind} spec: {exc}") from exc
