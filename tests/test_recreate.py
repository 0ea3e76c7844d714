import importlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from priorityrank import cli
from priorityrank.distance import DistanceContext, FeatureEncoder
from priorityrank.generate import gen_erdos_renyi
from priorityrank.graph import AttributeColumn, AttributeTable, Graph, save_edge_list
from priorityrank.metrics import degree_centrality
from priorityrank.recreate import (
    RecreateConfig,
    compare_networks,
    generate_synthetic_attributes,
    recreate,
)
from priorityrank.stats import ks_two_sample


def test_synthetic_attributes_shape_and_kinds():
    table = generate_synthetic_attributes(100, seed=4)
    assert table.n == 100 and len(table.columns) == 4
    kinds = {c.name: c.kind for c in table.columns}
    assert kinds == {
        "ordinal": "ordinal",
        "category": "categorical",
        "lognormal": "continuous",
        "exponential": "continuous",
    }
    ordinal = set(table.column("ordinal").values)
    assert ordinal <= set(float(k) for k in range(10))
    assert len(table.column("category").labels) <= 5


def test_synthetic_attributes_deterministic():
    a = generate_synthetic_attributes(50, seed=9)
    b = generate_synthetic_attributes(50, seed=9)
    for ca, cb in zip(a.columns, b.columns):
        assert ca.values == cb.values


def test_synthetic_exponential_mean():
    table = generate_synthetic_attributes(10**5, seed=13)
    mean = float(np.mean(table.column("exponential").values))
    assert abs(mean - 1.0) < 0.02


def test_compare_network_with_itself():
    g = gen_erdos_renyi(30, 0.3, seed=1)
    rec = compare_networks(g, g)
    for ks in (rec.ks_degree, rec.ks_betweenness, rec.ks_closeness):
        assert ks.statistic == 0.0
        assert ks.p_value == 1.0
    assert all(rec.passes().values())


def test_compare_path_vs_complete_rejects_degree():
    path = Graph(10, [(i, i + 1) for i in range(9)])
    complete = Graph(10, [(i, j) for i in range(10) for j in range(10) if i != j])
    rec = compare_networks(path, complete)
    assert rec.ks_degree.p_value < 0.05
    assert not rec.passes()["degree"]


def test_er_same_distribution_self_test():
    pvals = []
    for s in range(20):
        a = gen_erdos_renyi(50, 0.4, seed=2 * s + 100)
        b = gen_erdos_renyi(50, 0.4, seed=2 * s + 101)
        pvals.append(
            ks_two_sample(degree_centrality(a, "total"), degree_centrality(b, "total")).p_value
        )
    assert float(np.median(pvals)) > 0.05


def small_config(seed=5):
    return RecreateConfig(runs=4, pilot_runs=1, seed=seed)


def test_recreate_sweeps_each_scored_graph_once(bfs_calls):
    g = gen_erdos_renyi(15, 0.3, seed=7)
    config = RecreateConfig(runs=2, pilot_runs=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = recreate(g, None, config)
    scored = sum(c.pilot_statistic is not None for c in report.candidates)
    graphs = 1 + scored * config.pilot_runs + len(report.finalists) * config.runs
    assert len(bfs_calls) == g.n * graphs


def test_recreate_reads_pagerank_and_transitivity_of_the_source_only(profile_calls):
    g = gen_erdos_renyi(20, 0.3, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recreate(g, None, RecreateConfig(runs=2, pilot_runs=1, seed=3)).to_json_dict()
    for graphs in profile_calls.values():
        assert len(graphs) == 1 and graphs[0] is g


def test_recreate_reads_one_context_and_encodes_each_learned_kind_once(monkeypatch):
    # every pilot and finalist run reads one context, which caches what a
    # learned kind encodes from the attributes: the training set encodes
    # once, and each learned candidate once over all its runs
    built, encoded = [], []
    init, encode = DistanceContext.__init__, FeatureEncoder.encode

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_encode(self, table):
        encoded.append(table)
        return encode(self, table)

    monkeypatch.setattr(DistanceContext, "__init__", counted_init)
    monkeypatch.setattr(FeatureEncoder, "encode", counted_encode)
    g = gen_erdos_renyi(20, 0.3, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = recreate(g, None, RecreateConfig(runs=3, pilot_runs=2, seed=3))
    learned = [c for c in report.candidates if c.kind in ("linear_regression", "naive_bayes")]
    assert [c.error for c in learned] == [None, None]
    assert {"linear_regression", "naive_bayes"} & {f.kind for f in report.finalists}
    assert len(built) == 1
    assert len(encoded) == 1 + len(learned)


@pytest.mark.parametrize(
    "field, value",
    [
        ("runs", 0),
        ("pilot_runs", 0),
        ("finalists", 0),
        ("negative_ratio", 0.0),
        ("negative_ratio", -1.0),
        ("negative_ratio", math.nan),
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("alpha", 2.0),
        ("alpha", math.nan),
    ],
)
def test_recreate_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        RecreateConfig(**{field: value})


def test_recreate_config_accepts_unbounded_negative_ratio():
    assert RecreateConfig(negative_ratio=math.inf).negative_ratio == math.inf


def test_recreate_report_reproducible_byte_for_byte():
    g = gen_erdos_renyi(20, 0.3, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = recreate(g, None, small_config())
        r2 = recreate(g, None, small_config())
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def test_recreate_seeds_distinct_and_recorded():
    g = gen_erdos_renyi(20, 0.3, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = recreate(g, None, small_config(seed=8))
    for finalist in report.finalists:
        assert len(finalist.seeds) == 4
        assert len(set(finalist.seeds)) == 4
        assert [r.seed for r in finalist.runs] == list(finalist.seeds)


def test_recreate_winner_has_smallest_mean_statistic():
    g = gen_erdos_renyi(20, 0.3, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = recreate(g, None, small_config(seed=21))
    winner = next(f for f in report.finalists if f.kind == report.winner)
    for f in report.finalists:
        assert winner.mean_statistic <= f.mean_statistic + 1e-15
    assert len(report.finalists) == 3
    assert len(report.winner_graphs) == 4


def test_recreate_synthesizes_attributes_only_when_absent():
    g = gen_erdos_renyi(15, 0.3, seed=7)
    attrs = generate_synthetic_attributes(15, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = recreate(g, attrs, small_config(seed=9))
    kinds = {c.kind for c in report.candidates}
    assert "euclidean1d" in kinds and "linear_regression" in kinds
    with pytest.raises(ValueError, match="rows"):
        recreate(g, generate_synthetic_attributes(10, seed=1), small_config())


def test_recreate_rejects_tiny_graphs():
    with pytest.raises(ValueError, match="n >= 3"):
        recreate(Graph(2, [(0, 1)]), None, small_config())


def test_a_complete_source_leaves_the_learned_kinds_without_a_training_set():
    complete = Graph(6, [(i, j) for i in range(6) for j in range(6) if i != j])
    report = recreate(complete, None, RecreateConfig(runs=2, pilot_runs=1, seed=3))
    outcomes = {c.kind: c for c in report.candidates}
    for kind in ("linear_regression", "naive_bayes"):
        assert outcomes[kind].pilot_statistic is None
        assert outcomes[kind].error == "training set unavailable: graph is complete, so no negative examples"
    assert outcomes["random"].error is None and report.winner


def test_a_failing_candidate_is_recorded_and_the_race_goes_on():
    # vertex 4's numeric attributes are all 0, so cosine has no direction for it
    g = gen_erdos_renyi(12, 0.3, seed=4)
    values = [float(v != 4) * (1 + v % 3) for v in range(12)]
    attrs = AttributeTable([AttributeColumn("a", "continuous", values), AttributeColumn("b", "ordinal", values)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = recreate(g, attrs, small_config(seed=2))
    outcomes = {c.kind: c for c in report.candidates}
    assert outcomes["cosine"].pilot_statistic is None
    assert outcomes["cosine"].error == "vertex 4 has a zero-norm attribute vector"
    assert "cosine" not in {f.kind for f in report.finalists}
    assert len(report.finalists) == 3 and len(report.winner_graphs) == 4


def test_every_candidate_failing_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise ValueError("no graph")

    # the package exports the function ``recreate`` under the module's name
    monkeypatch.setattr(importlib.import_module("priorityrank.recreate"), "priority_rank_generate", fail)
    g = gen_erdos_renyi(12, 0.3, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="no usable candidate distance functions"):
            recreate(g, None, small_config())
        edges = tmp_path / "g.tsv"
        edges.write_text(save_edge_list(g), encoding="utf-8")
        code = cli.main(["recreate", "--in", str(edges), "--runs", "2", "--pilot", "1", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: no usable candidate distance functions\n"


def test_recreate_report_json_shape():
    g = gen_erdos_renyi(20, 0.3, seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = recreate(g, None, small_config(seed=30))
    doc = report.to_json_dict()
    assert set(doc) == {
        "master_seed",
        "config",
        "source_profile",
        "candidates",
        "finalists",
        "winner",
    }
    finalist = doc["finalists"][0]
    assert set(finalist["aggregates"]) == {
        "statistic_mean",
        "p_degree",
        "p_betweenness",
        "p_closeness",
        "arc_count",
        "diameter",
        "density",
        "avg_path_length",
        "reciprocity",
        "centralization",
    }
    for run in finalist["runs"]:
        assert 0.0 <= run["p_degree"] <= 1.0
        assert 0.0 <= run["p_betweenness"] <= 1.0
        assert 0.0 <= run["p_closeness"] <= 1.0
    # NaN never leaks into the report (assortativity maps to null)
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.1, math.nan])
def test_compare_networks_rejects_alpha_outside_unit_interval(alpha):
    g = gen_erdos_renyi(10, 0.3, seed=2)
    with pytest.raises(ValueError, match="alpha"):
        compare_networks(g, g, alpha=alpha)


@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
@pytest.mark.parametrize("workers", ["1", "4"])
def test_recreate_report_matches_golden_file(tmp_path, workers):
    # synthetic attributes, so the learned kinds race too
    edges = tmp_path / "er20.tsv"
    edges.write_text(save_edge_list(gen_erdos_renyi(20, 0.3, seed=3)), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["recreate", "--in", str(edges), "--runs", "4", "--pilot", "1", "--seed", "5"]
    assert cli.main(argv + ["--workers", workers, "--report", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "recreate_er20.json"
    assert out.read_bytes() == golden.read_bytes()
