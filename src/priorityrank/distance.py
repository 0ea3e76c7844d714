"""Distance functions that induce local vertex rankings.

A distance function maps an ordered vertex pair (i, j), i != j, to a
non-negative finite real.  Smaller distance means higher attachment
priority.  The catalog covers random draws, inverse-centrality scores,
attribute-space metrics, weighted aggregates, a hierarchical blend, and two
machine-learned distances fitted from a graph's adjacency structure.

Evaluation runs against a :class:`DistanceContext` holding the attribute
table and the centrality vectors of a reference graph, read from its
``NetworkProfile`` or any mapping from kind to vector.

``rows(ctx, sources)`` gives the distances from a block of sources to every
vertex as one (len(sources), n) array.

A kind whose every source ranks the targets by one vector returns it from
``shared_distances(ctx)``: the centrality kinds their target scores, the
random kind an all-tied vector.  Its rows broadcast that vector, and the
generator draws with ``ranking.sample_shared`` without evaluating rows.
Every other kind defines ``rows`` and runs work that all sources share once
per call.  A kind whose rows all combine one per-target score with one
per-source term (linear regression, naive Bayes) returns from
``shared_order(ctx)`` the permutation of the targets by that score and a
proof: the mask of the sources whose rows, as ``rows`` computes them in
floating point, are strictly increasing along it.  A forward bound on the
rounding of each row's float steps gives the proof from the sorted scores
and the source's own terms, in O(1) per source after the sort, without
evaluating a row, and a proven source draws its targets straight from the
permutation.  The other sources evaluate their rows, which
``ranking.sort_block`` sorts by packed keys like every other kind's; ranks
depend only on the distances, so the draws never depend on the proof.

No row reaches BLAS.  The cosine products, both linear-regression terms
and the Euclidean sums are added one attribute or feature column at a
time, in column order, with elementwise ufuncs that round each step on
their own, so their bits depend on no block of sources, BLAS kernel or
SIMD width.  The linear-regression fit's ``np.linalg.eigh`` is the one
BLAS-kernel-dependent step left; the naive-Bayes rows' ``np.exp`` follows
numpy's SIMD dispatch.

Each kind is a frozen dataclass whose fields, in order and with tuples as
lists, are its JSON form after ``"kind"``; a centrality kind's kind is its
centrality.  ``spec_from_json_dict`` reads a missing or null field as its
default and raises ``ValueError`` on a malformed document, such as one
with a key that is not among the kind's fields.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import ClassVar, Mapping

import numpy as np

from . import metrics
from .graph import AttributeTable, Graph, _check_cells
from .stats import RngStream, _whole

CENTRALITY_KINDS = metrics.CENTRALITY_KINDS
DEFAULT_EPS = 1e-6

_VAR_FLOOR = 1e-9

# The unit roundoff u of float64, and a bound, in units of u, on the relative
# error that a naive-Bayes row's float steps after D add: one exp taken at
# 4 ulp, 8 u (numpy's own accuracy tables hold float64 exp to 1 ulp), and
# the five roundings after it come to at most 30 u.
_UNIT = 2.0**-53
_ROW_ERROR = 32


def _check_eps(eps: float) -> None:
    # written so that NaN fails too
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")


class DistanceContext:
    """Evaluation context, the one input of a generation pass: vertex
    count, attributes and centrality vectors.  The count is checked here
    once, a whole number of at least 2, for every pass that reads it.

    Centrality-based kinds read the vector of their kind from
    ``centralities``, a mapping from kind to an (n,) vector such as the
    ``NetworkProfile`` of a reference graph, or None; they never see the
    graph being built.  Attribute-based and learned kinds read the
    attribute table through ``table``, the one place that checks that there
    is one.  ``cached`` keeps what a kind derives from the context (a
    learned kind's features, scores and order) as long as the context
    lives, so the passes that share it, such as every run of a
    ``recreate``, compute each once.
    """

    def __init__(
        self,
        n: int | None = None,
        attrs: AttributeTable | None = None,
        centralities: Mapping[str, np.ndarray] | None = None,
    ):
        if n is None:
            if attrs is None:
                raise ValueError("context needs n or attrs")
            n = attrs.n
        self.n = _whole(n, "vertex count")
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got {self.n}")
        if attrs is not None and attrs.n != self.n:
            raise ValueError(f"attribute table has {attrs.n} rows, context n={self.n}")
        self.attrs = attrs
        self.centralities = centralities
        self._scores: dict = {}

    def centrality(self, kind: str) -> np.ndarray:
        if kind not in CENTRALITY_KINDS:
            raise ValueError(f"unknown centrality kind {kind!r}")
        vector = None if self.centralities is None else self.centralities.get(kind)
        if vector is None:
            raise ValueError(f"{kind} distance needs a reference graph or precomputed centralities")
        shape = np.shape(vector)
        if shape != (self.n,):
            raise ValueError(f"{kind} centrality has shape {shape}, context n={self.n}")
        return vector

    def cached(self, key, make):
        """``make()``, computed once per context under ``key``."""
        value = self._scores.get(key)
        if value is None:
            value = self._scores[key] = make()
        return value

    @property
    def table(self) -> AttributeTable:
        if self.attrs is None:
            raise ValueError("attribute-based distance needs an attribute table")
        return self.attrs


@dataclass(frozen=True)
class DistanceFunction:
    """Base class; concrete kinds implement ``shared_distances`` or
    ``rows``, and may offer ``shared_order``."""

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

    def shared_order(self, ctx: DistanceContext) -> tuple[np.ndarray, np.ndarray] | None:
        """``(order, proven)``, or None when sources order targets
        differently: ``order`` is a permutation of the targets in which
        every row is non-decreasing up to rounding, and ``proven`` marks the
        sources whose rows ``rows`` computes strictly increasing in it.  An
        unproven source's row is evaluated and sorted by
        ``ranking.sort_block``."""
        return None

    def shared_distances(self, ctx: DistanceContext) -> np.ndarray | None:
        """One length-n vector d such that every source i draws its targets
        with the law of ranking the vertices j != i by d[j], or None."""
        return None

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


@dataclass(frozen=True)
class Euclidean1D(DistanceFunction):
    """|a_i - a_j| on a single numeric attribute."""

    attr: str
    kind: ClassVar[str] = "euclidean1d"
    requires_attributes: ClassVar[bool] = True

    def rows(self, ctx, sources):
        vals = ctx.table.numeric_array(self.attr)
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
        return _euclidean(ctx, (self.attr1, self.attr2), sources)


def _euclidean(ctx, names, sources) -> np.ndarray:
    """The square root of the squared differences over the numeric
    attributes ``names``, summed in their order."""
    out = np.zeros((len(sources), ctx.n))
    for name in names:
        vals = ctx.table.numeric_array(name)
        term = np.subtract(vals, vals[sources, None])
        out += np.square(term, out=term)
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class CosineDistance(DistanceFunction):
    """1 - cosine similarity of the numeric attribute vectors."""

    attrs: tuple[str, ...] | None = None
    kind: ClassVar[str] = "cosine"
    requires_attributes: ClassVar[bool] = True

    def _matrix(self, ctx) -> np.ndarray:
        table = ctx.table
        names = self.attrs if self.attrs is not None else table.numeric_names()
        if not names:
            raise ValueError("cosine distance needs at least one numeric attribute")
        return np.column_stack([table.numeric_array(n) for n in names])

    def rows(self, ctx, sources):
        mat = self._matrix(ctx)
        norms = np.linalg.norm(mat, axis=1)
        if (norms == 0.0).any():
            bad = int(np.argmin(norms))
            raise ValueError(f"vertex {bad} has a zero-norm attribute vector")
        out = np.zeros((len(sources), ctx.n))
        for col in mat.T:
            out += col * col[sources, None]
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
        for item in self.weights:
            if not (isinstance(item, (tuple, list)) and len(item) == 2 and isinstance(item[0], str)):
                raise ValueError(f"{self.kind} spec field 'weights' must hold (name, number) pairs, got {item!r}")
            name, w = item
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"aggregate weight of {name!r} must be finite and non-negative, got {w}")

    def rows(self, ctx, sources):
        table = ctx.table
        total = np.empty((len(sources), ctx.n))
        term = np.empty_like(total) if len(self.weights) > 1 else None
        # a term is >= +0.0, and 0.0 + x and x * 1.0 are exact for such x: the
        # first term is the sum so far, and a weight of 1.0 multiplies nothing
        for k, (name, w) in enumerate(self.weights):
            out = term if k else total
            col = table.column(name)
            if col.is_numeric:
                np.subtract(col.array, col.array[sources, None], out=out)
                np.abs(out, out=out)
            else:
                np.not_equal(col.array, col.array[sources, None], out=out)
            if w != 1.0:
                out *= w
            if k:
                total += term
        return total


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
        for rank in self.class_ranks:
            try:
                finite = isinstance(rank, numbers.Real) and not isinstance(rank, bool) and math.isfinite(rank)
            except OverflowError:  # an int past the float range
                finite = False
            if not finite:
                raise ValueError(f"{self.kind} spec field 'class_ranks' must hold finite numbers, got {rank!r}")

    def rows(self, ctx, sources):
        mapped = len(self.class_ranks)
        if mapped != ctx.n:
            gap = f": {ctx.n - mapped} vertex(es) unmapped" if mapped < ctx.n else ""
            raise ValueError(f"class map has {mapped} ranks for {ctx.n} vertices{gap}")
        ranks = np.array(self.class_ranks, dtype=np.float64)
        hier = np.subtract(ranks, ranks[sources, None])
        np.abs(hier, out=hier)
        if self.alpha == 0.0:
            return hier
        if not self.euclid_attrs:
            raise ValueError("hierarchical mix with alpha > 0 needs euclidean attributes")
        sq = _euclidean(ctx, self.euclid_attrs, sources)
        sq *= self.alpha
        hier *= 1.0 - self.alpha
        sq += hier
        return sq


@dataclass(frozen=True)
class FeatureEncoder:
    """Per-vertex feature layout: numeric columns pass through, categorical
    columns expand one-hot against the sorted label set seen at build time.
    ``encode`` maps each label of the table being encoded to its slot in
    that set once, then sets each row's one from the column's codes; a label
    not seen at build time sets none."""

    columns: tuple[tuple[str, str, tuple[str, ...]], ...]

    @classmethod
    def from_table(cls, table: AttributeTable) -> "FeatureEncoder":
        return cls(columns=tuple((col.name, col.kind, col.labels) for col in table.columns))

    @cached_property
    def binary_mask(self) -> np.ndarray:
        mask = []
        for _, kind, labels in self.columns:
            if kind == "categorical":
                mask.extend([True] * len(labels))
            else:
                mask.append(False)
        return np.array(mask, dtype=bool)

    def encode(self, table: AttributeTable) -> np.ndarray:
        blocks = []
        for name, kind, labels in self.columns:
            col = table.column(name)
            if kind == "categorical":
                if col.is_numeric:
                    raise ValueError(f"attribute {name!r} changed kind since fitting")
                index = {lab: k for k, lab in enumerate(labels)}
                slot = np.array([index.get(lab, -1) for lab in col.labels], dtype=np.int64)[col.array]
                block = np.zeros((table.n, len(labels)))
                seen = np.flatnonzero(slot >= 0)
                block[seen, slot[seen]] = 1.0
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
    # a graph has no self-loops, so its arc codes and the diagonal's are disjoint
    excluded = np.sort(np.concatenate([g.codes, np.arange(n, dtype=np.int64) * (n + 1)]))
    free = n * n - len(excluded)
    if not free:
        raise ValueError("graph is complete, so no negative examples")
    wanted = free if negative_ratio * len(positives) >= free else math.ceil(negative_ratio * len(positives))
    encoder = FeatureEncoder.from_table(attrs)
    _check_cells((len(positives) + wanted) * 2 * len(encoder.binary_mask), "training set features")
    # draw ranks among the non-arcs, never listing them: the r-th non-arc in
    # row-major order is r plus the count of excluded codes e_k below it,
    # which are those with e_k - k <= r
    if wanted < free:
        if rng is None:
            raise ValueError("negative subsampling needs an rng stream")
        if wanted > free // 50:
            # numpy's choice then shuffles the tail of an arange(free)
            _check_cells(free, "negative draws")
        ranks = np.sort(rng.generator.choice(free, size=wanted, replace=False))
    else:
        ranks = np.arange(free, dtype=np.int64)
    negatives = ranks + np.searchsorted(excluded - np.arange(len(excluded)), ranks, side="right")
    pairs = np.concatenate([positives, np.stack(np.divmod(negatives, n), axis=1)])
    phi = encoder.encode(attrs)
    labels = np.concatenate([np.ones(len(positives)), np.zeros(wanted)])
    return TrainingSet(features=phi[pairs].reshape(len(pairs), -1), labels=labels, encoder=encoder)


def _encoder_array(spec: DistanceFunction, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The learned field ``name`` of ``spec`` as a float array, which must
    have ``shape``: the widths that the spec's encoder sets."""
    try:
        array = np.array(getattr(spec, name), dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{spec.kind} spec field {name!r} must be an array of numbers: {exc}") from exc
    if array.shape != shape:
        raise ValueError(
            f"{spec.kind} spec field {name!r} must have shape {shape} for its encoder, got {array.shape}"
        )
    return array


@dataclass(frozen=True)
class LinearRegressionDistance(DistanceFunction):
    """Least-squares fit of 1 - adjacency on pair features; negative raw
    outputs are clamped to zero."""

    beta: tuple[float, ...]
    encoder: FeatureEncoder
    kind: ClassVar[str] = "linear_regression"
    requires_attributes: ClassVar[bool] = True

    def _terms(self, ctx) -> tuple[np.ndarray, np.ndarray]:
        """The target scores phi(j) . beta_target and the source constants
        phi(i) . beta_source + intercept of every vertex, once per context."""

        def make():
            phi = self.encoder.encode(ctx.table)
            p = phi.shape[1]
            beta = _encoder_array(self, "beta", (2 * p + 1,))
            def dot(b):  # the features times b, summed in column order
                return sum((col * w for col, w in zip(phi.T, b)), np.zeros(ctx.n))
            return dot(beta[p : 2 * p]), dot(beta[:p]) + beta[2 * p]

        return ctx.cached(self, make)

    def rows(self, ctx, sources):
        scores, consts = self._terms(ctx)
        out = np.add(scores, consts[sources, None])
        return np.maximum(out, 0.0, out=out)

    def shared_order(self, ctx):
        def make():
            scores, consts = self._terms(ctx)
            order = np.argsort(scores, kind="stable")
            s = scores[order]
            with np.errstate(over="ignore", invalid="ignore"):
                # rounding is monotone, so the sums s_j + c_i rise strictly
                # along the order where every gap of s is over the spacing
                # of the largest sum; the clamp at 0 then ties only sums
                # <= 0, so the order's second sum, the very float that rows
                # computes, must be over 0
                spacing = np.spacing(np.abs(s).max() + np.abs(consts))
                return order, (np.diff(s).min() > spacing) & (s[1] + consts > 0)

        return ctx.cached((self, "order"), make)


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
    if (ts.labels == ts.labels[0]).all():
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
    eps: float = DEFAULT_EPS
    encoder: FeatureEncoder = field(kw_only=True)  # after eps in the JSON form
    kind: ClassVar[str] = "naive_bayes"
    requires_attributes: ClassVar[bool] = True

    def __post_init__(self):
        _check_eps(self.eps)
        for name in ("prior_edge", "prior_no_edge"):
            value = getattr(self, name)
            # written so that NaN fails too
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{self.kind} spec field {name!r} must be positive and finite, got {value}")

    @cached_property
    def _params(self):
        # the Bernoulli slots are the encoder's categorical ones, in both halves;
        # their rates on continuous slots are placeholders and go unchecked
        mask = np.tile(self.encoder.binary_mask, 2)
        means, variances, bern = (
            _encoder_array(self, name, (2, len(mask))) for name in ("means", "variances", "bernoulli")
        )
        if not np.isfinite(means).all():
            raise ValueError(f"{self.kind} spec field 'means' must be finite")
        if not (np.isfinite(variances) & (variances > 0)).all():
            raise ValueError(f"{self.kind} spec field 'variances' must be positive and finite")
        return means, variances, bern, mask

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
        def make():
            phi = self.encoder.encode(ctx.table)
            p = phi.shape[1]
            return self._half_scores(phi, 0) + self._half_scores(phi, p)

        return ctx.cached(self, make)

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

    def shared_order(self, ctx):
        # the distance falls as the edge log-odds, a per-source plus a
        # per-target sum, rise
        def make():
            src_edge, src_no, dst_edge, dst_no = self._scores(ctx)
            g = dst_no - dst_edge
            order = np.argsort(g, kind="stable")
            return order, self._proven(src_edge, src_no, dst_edge, dst_no, g[order])

        return ctx.cached((self, "order"), make)

    def _proven(self, src_edge, src_no, dst_edge, dst_no, g) -> np.ndarray:
        """Which sources' rows rise strictly along the sorted ``g = fl(f - e)``.

        With A_i, B_i the source's class terms and e_j, f_j the target's, a
        row entry reads X = fl(A_i + e_j) and Y = fl(B_i + f_j) only through
        D = fl(X - Y), since fl(Y - X) = -D and exp(0) = 1.  It is
        d(D) = 1 / (e^D (1 + eps) + eps) up to a relative error of
        ``_ROW_ERROR`` units u = 2^-53, and D lies within
        eps_i = 2.0001 u (|A_i| + max|e| + |B_i| + max|f|) of the exact
        A_i - B_i - (f_j - e_j).  So along the order D falls by at least
        delta - 2 eps_i per step, where delta bounds the exact gaps of f - e
        from below, and since d'/d = -rho(D) with rho(D) =
        e^D (1 + eps) / (e^D (1 + eps) + eps) increasing, log d rises by at
        least (delta - 2 eps_i) rho(D_low) per step.  That must beat the
        2 K u that rounding can take back.  |D| < 700 and eps <= 1 keep
        every float step's value normal (Higham, "Accuracy and Stability of
        Numerical Algorithms", 2002, ch. 2-3)."""
        if not self.eps <= 1:
            return np.zeros(len(g), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            # A_i and B_i as rows computes them
            a = math.log(self.prior_edge) + src_edge
            b = math.log(self.prior_no_edge) + src_no
            delta = np.diff(g).min() - 2.0001 * _UNIT * np.abs(g).max()
            err = 2.0001 * _UNIT * (np.abs(a) + np.abs(b) + (np.abs(dst_edge).max() + np.abs(dst_no).max()))
            # the range of D: one eps_i for D's rounding, one for the bounds'
            low = a - b - g[-1] - 2 * err
            high = a - b - g[0] + 2 * err
            rho = 1.0 / (1.0 + self.eps / (1.0 + self.eps) * np.exp(-low))
            return (np.maximum(-low, high) < 700) & ((delta - 2 * err) * rho > 2.0001 * _ROW_ERROR * _UNIT)


def fit_naive_bayes_distance(ts: TrainingSet) -> NaiveBayesDistance:
    """Class-conditional Gaussian/Bernoulli fit; class order is (edge, no edge)."""
    if ts.features.shape[0] < 2:
        raise ValueError("training set needs at least 2 rows")
    counts = [int((ts.labels == 1).sum()), int((ts.labels == 0).sum())]
    if min(counts) < 1:
        raise ValueError("training set needs at least one example of each label")
    total = ts.features.shape[0]
    means, variances, bernoulli = [], [], []
    # each class is summed once; these are the ufunc calls that rows.mean,
    # rows.var and rows.sum make, so the fit is the same to the bit
    for label, count in zip((1.0, 0.0), counts):
        rows = ts.features[ts.labels == label]
        sums = rows.sum(axis=0)
        mean = sums / count
        dev = rows - mean
        dev *= dev
        means.append(mean)
        variances.append(np.maximum(dev.sum(axis=0) / count, _VAR_FLOOR))
        bernoulli.append((sums + 1.0) / (count + 2.0))
    return NaiveBayesDistance(
        prior_edge=counts[0] / total,
        prior_no_edge=counts[1] / total,
        means=tuple(tuple(float(v) for v in row) for row in means),
        variances=tuple(tuple(float(v) for v in row) for row in variances),
        bernoulli=tuple(tuple(float(v) for v in row) for row in bernoulli),
        encoder=ts.encoder,
    )


# every catalog class by kind; a centrality kind's class holds it as a field
_KINDS = dict.fromkeys(CENTRALITY_KINDS, CentralityDistance)
_KINDS.update((c.kind, c) for c in DistanceFunction.__subclasses__() if c is not CentralityDistance)


# a field's JSON type by the head of its annotation; any other field is a list
_JSON_TYPES = {"float": ((int, float), "a number"), "str": (str, "a string")}


def _spec_value(value, name: str):
    """``value`` with its lists as tuples; a JSON object inside a list
    raises ``ValueError`` naming the field ``name``."""
    if not isinstance(value, list):
        return value
    for v in value:
        if isinstance(v, dict):
            raise ValueError(f"{name} must hold no JSON object, got {v!r}")
    return tuple(_spec_value(v, name) for v in value)


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
            value = _spec_value(value, f"{kind} spec field {f.name!r}")
            types, what = _JSON_TYPES.get(f.type.split("[")[0], (tuple, "a list"))
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{kind} spec field {f.name!r} must be {what}, got {value!r}")
            values[f.name] = FeatureEncoder.from_json(value) if f.name == "encoder" else value
        return cls(**values)
    except TypeError as exc:
        raise ValueError(f"bad {kind} spec: {exc}") from exc
