import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from priorityrank import cli
from priorityrank.generate import gen_erdos_renyi
from priorityrank.graph import Graph, save_edge_list
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
    assert table.n == 100 and table.m == 4
    kinds = {c.name: c.kind for c in table.columns}
    assert kinds == {
        "ordinal": "ordinal",
        "category": "categorical",
        "lognormal": "continuous",
        "exponential": "continuous",
    }
    ordinal = set(table.column("ordinal").values)
    assert ordinal <= set(float(k) for k in range(10))
    assert len(table.labels("category")) <= 5


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
