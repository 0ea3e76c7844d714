"""Re-creation pipeline: fit candidate distance functions to a source
network, race them, and regenerate families of statistically similar
networks.

Protocol: synthesize vertex attributes when none are given; build every
applicable catalog distance (fitting the learned kinds on the source
adjacency); run a short pilot per candidate scored by the mean two-sample
K-S statistic over the ``KS_KINDS`` vectors; advance the best
``_FINALISTS`` to full ``config.runs``-run aggregation with
out-degrees resampled from the source; pick the winner with the smallest
mean combined statistic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .distance import (
    CENTRALITY_KINDS,
    AggregateDistance,
    CentralityDistance,
    CosineDistance,
    DistanceContext,
    DistanceFunction,
    Euclidean1D,
    Euclidean2D,
    RandomDistance,
    _check_negative_ratio,
    build_training_set,
    fit_linear_regression_distance,
    fit_naive_bayes_distance,
)
from .generate import DegreeSpec, priority_rank_generate
from .graph import AttributeColumn, AttributeTable, Graph
from .metrics import NetworkProfile
from .stats import KsResult, RngStream, _whole, ks_two_sample


def generate_synthetic_attributes(n: int, seed: int) -> AttributeTable:
    """Four synthetic vertex attributes: a 10-level ordinal built by
    rank-discretizing normal draws, a 5-label uniform categorical, a
    log-normal(0, 1) column, and an exponential(1) column."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    root = RngStream(seed)
    normal = root.child(0).generator.normal(0.0, 1.0, size=n)
    order = np.argsort(np.argsort(normal, kind="stable"), kind="stable")
    ordinal = np.minimum(order * 10 // n, 9).astype(np.float64)
    labels = root.child(1).generator.integers(0, 5, size=n)
    categorical = tuple(f"c{int(lab)}" for lab in labels)
    lognormal = root.child(2).generator.lognormal(0.0, 1.0, size=n)
    exponential = root.child(3).generator.exponential(1.0, size=n)
    return AttributeTable(
        [
            AttributeColumn("ordinal", "ordinal", tuple(ordinal)),
            AttributeColumn("category", "categorical", categorical),
            AttributeColumn("lognormal", "continuous", tuple(lognormal)),
            AttributeColumn("exponential", "continuous", tuple(exponential)),
        ]
    )


# the centrality vectors whose two-sample K-S tests score a comparison
KS_KINDS = ("degree", "betweenness", "closeness")
# how many of the best pilot candidates go on to full aggregation
_FINALISTS = 3


@dataclass(frozen=True)
class ComparisonRecord:
    """K-S outcomes for the ``KS_KINDS`` vectors plus both profiles."""

    ks: dict[str, KsResult] = field(hash=False)
    profile_a: NetworkProfile
    profile_b: NetworkProfile
    alpha: float

    def passes(self) -> dict[str, bool]:
        return {kind: ks.p_value >= self.alpha for kind, ks in self.ks.items()}

    def to_json_dict(self) -> dict:
        flags = self.passes()
        doc = {"alpha": self.alpha}
        for name, ks in self.ks.items():
            doc[name] = {
                "statistic": ks.statistic,
                "p_value": ks.p_value,
                "pass": flags[name],
            }
        doc["profiles"] = {
            "a": self.profile_a.scalar_dict(),
            "b": self.profile_b.scalar_dict(),
        }
        return doc


def _ks_statistics(a: NetworkProfile, b: NetworkProfile) -> dict[str, KsResult]:
    """Two-sample K-S results for the ``KS_KINDS`` vectors."""
    return {kind: ks_two_sample(a[kind], b[kind]) for kind in KS_KINDS}


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def compare_networks(g1: Graph, g2: Graph, alpha: float = 0.05) -> ComparisonRecord:
    """K-S tests over degree, betweenness, and closeness distributions plus
    side-by-side scalar profiles."""
    _check_alpha(alpha)
    if g1.n == 0 or g2.n == 0:
        raise ValueError("cannot compare empty graphs")
    p1 = NetworkProfile(g1)
    p2 = NetworkProfile(g2)
    return ComparisonRecord(ks=_ks_statistics(p1, p2), profile_a=p1, profile_b=p2, alpha=alpha)


@dataclass(frozen=True)
class RecreateConfig:
    runs: int = 20
    pilot_runs: int = 3
    seed: int = 0
    negative_ratio: float = 1.0

    def __post_init__(self):
        for name in ("runs", "pilot_runs"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        _check_negative_ratio(self.negative_ratio)


@dataclass(frozen=True)
class CandidateOutcome:
    kind: str
    pilot_statistic: float | None
    error: str | None = None


@dataclass(frozen=True)
class RunRecord:
    """One generated graph scored against the source."""

    seed: int
    statistic_mean: float
    p_degree: float
    p_betweenness: float
    p_closeness: float
    arc_count: int
    diameter: int
    density: float
    avg_path_length: float
    reciprocity: float
    centralization: float

    @classmethod
    def score(cls, seed: int, source: NetworkProfile, profile: NetworkProfile) -> "RunRecord":
        ks = _ks_statistics(source, profile)
        return cls(
            seed=seed,
            statistic_mean=sum(r.statistic for r in ks.values()) / len(KS_KINDS),
            p_degree=ks["degree"].p_value,
            p_betweenness=ks["betweenness"].p_value,
            p_closeness=ks["closeness"].p_value,
            arc_count=profile.arc_count,
            diameter=profile.diameter,
            density=profile.density,
            avg_path_length=profile.avg_path_length,
            reciprocity=profile.reciprocity,
            centralization=profile.centralization,
        )


_AGGREGATE_FIELDS = tuple(f.name for f in fields(RunRecord) if f.name != "seed")


@dataclass(frozen=True)
class FinalistResult:
    kind: str
    runs: tuple[RunRecord, ...]
    graphs: tuple[Graph, ...] = field(repr=False, compare=False, default=())

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(r.seed for r in self.runs)

    @property
    def mean_statistic(self) -> float:
        return float(np.mean([r.statistic_mean for r in self.runs]))

    def aggregates(self) -> dict:
        out = {}
        for name in _AGGREGATE_FIELDS:
            values = np.array([getattr(r, name) for r in self.runs], dtype=np.float64)
            out[name] = {"mean": float(values.mean()), "std": float(values.std())}
        return out

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seeds": list(self.seeds),
            "mean_statistic": self.mean_statistic,
            "aggregates": self.aggregates(),
            "runs": [asdict(r) for r in self.runs],
        }


@dataclass(frozen=True)
class RecreationReport:
    source_profile: NetworkProfile
    candidates: tuple[CandidateOutcome, ...]
    finalists: tuple[FinalistResult, ...]
    winner: str
    config: RecreateConfig

    def to_json_dict(self) -> dict:
        config = asdict(self.config)
        del config["seed"]
        if math.isinf(config["negative_ratio"]):
            config["negative_ratio"] = None  # JSON has no infinity
        return {
            "master_seed": self.config.seed,
            "config": config,
            "source_profile": self.source_profile.scalar_dict(),
            "candidates": [asdict(c) for c in self.candidates],
            "finalists": [f.to_json_dict() for f in self.finalists],
            "winner": self.winner,
        }


def _candidate_specs(
    g: Graph, attrs: AttributeTable, negative_ratio: float, rng: RngStream
) -> list[tuple[str, DistanceFunction | None, str | None]]:
    """Every applicable catalog kind as (kind, spec, fit-error)."""
    numeric = attrs.numeric_names()
    specs: list[DistanceFunction] = [RandomDistance(), *map(CentralityDistance, CENTRALITY_KINDS)]
    if len(numeric) >= 1:
        specs.append(Euclidean1D(attr=numeric[0]))
    if len(numeric) >= 2:
        specs += [Euclidean2D(attr1=numeric[0], attr2=numeric[1]), CosineDistance(attrs=tuple(numeric))]
    specs.append(AggregateDistance(weights=tuple((name, 1.0) for name in attrs.names)))
    candidates: list[tuple[str, DistanceFunction | None, str | None]] = [(s.kind, s, None) for s in specs]
    try:
        ts, unavailable = build_training_set(g, attrs, negative_ratio=negative_ratio, rng=rng), None
    except ValueError as exc:
        ts, unavailable = None, f"training set unavailable: {exc}"
    fits = (("linear_regression", fit_linear_regression_distance), ("naive_bayes", fit_naive_bayes_distance))
    for kind, fit in fits:
        try:
            candidates.append((kind, None, unavailable) if unavailable else (kind, fit(ts), None))
        except ValueError as exc:  # numpy's LinAlgError is a ValueError
            candidates.append((kind, None, str(exc)))
    return candidates


def _draw_distinct_seed(stream: RngStream, used: set[int]) -> int:
    seed = stream.spawn_seed()
    while seed in used:
        seed = stream.spawn_seed()
    used.add(seed)
    return seed


def recreate(
    g: Graph,
    attrs: AttributeTable | None = None,
    config: RecreateConfig | None = None,
) -> RecreationReport:
    """Learn which catalog distance best re-creates ``g`` and aggregate the
    winner's generated family.  Deterministic for a fixed config seed."""
    if g.n < 3:
        raise ValueError(f"need a source network with n >= 3, got n={g.n}")
    config = config or RecreateConfig()
    master = RngStream(config.seed)
    if attrs is None:
        attrs = generate_synthetic_attributes(g.n, master.child(0).spawn_seed())
    source_profile = NetworkProfile(g)
    # one context for every run: it checks the table, and each learned kind encodes once
    ctx = DistanceContext(g.n, attrs, source_profile)
    degrees = DegreeSpec.resample(g.out_degrees)
    candidates = _candidate_specs(g, attrs, config.negative_ratio, master.child(1))

    used_seeds: set[int] = set()

    def one_run(spec: DistanceFunction, stage: int, index: int, run: int):
        """Generate one graph from ``spec`` and score it against the source;
        stage 2 draws pilot seeds, stage 3 finalist seeds."""
        seed = _draw_distinct_seed(master.child(stage, index, run), used_seeds)
        generated = priority_rank_generate(ctx, spec, degrees, seed)
        return generated, RunRecord.score(seed, source_profile, NetworkProfile(generated))

    outcomes: list[CandidateOutcome] = []
    scored: list[tuple[float, str, DistanceFunction]] = []
    for index, (kind, spec, error) in enumerate(candidates):
        if spec is None:
            outcomes.append(CandidateOutcome(kind=kind, pilot_statistic=None, error=error))
            continue
        try:
            stats = [
                one_run(spec, 2, index, run)[1].statistic_mean
                for run in range(config.pilot_runs)
            ]
        except (ValueError, ArithmeticError) as exc:
            outcomes.append(CandidateOutcome(kind=kind, pilot_statistic=None, error=str(exc)))
            continue
        pilot = float(np.mean(stats))
        outcomes.append(CandidateOutcome(kind=kind, pilot_statistic=pilot, error=None))
        scored.append((pilot, kind, spec))

    if not scored:
        raise RuntimeError("no usable candidate distance functions")
    scored.sort(key=lambda item: (item[0], item[1]))

    finalists: list[FinalistResult] = []
    for index, (_, kind, spec) in enumerate(scored[:_FINALISTS]):
        graphs, runs = zip(*(one_run(spec, 3, index, run) for run in range(config.runs)))
        finalists.append(FinalistResult(kind=kind, runs=runs, graphs=graphs))

    return RecreationReport(
        source_profile=source_profile,
        candidates=tuple(outcomes),
        finalists=tuple(finalists),
        winner=min(finalists, key=lambda f: (f.mean_statistic, f.kind)).kind,
        config=config,
    )
