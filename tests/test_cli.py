import json
import math

import numpy as np
import pytest

from priorityrank import generate as generate_mod
from priorityrank.cli import main
from priorityrank.distance import (
    DistanceContext,
    build_training_set,
    fit_naive_bayes_distance,
    spec_from_json_dict,
)
from priorityrank.graph import Graph, load_attributes, load_edge_list
from priorityrank.ranking import build_local_ranking

PEOPLE_CSV = (
    "age:continuous,sex:categorical\n"
    "30,female\n40,male\n25,male\n20,female\n35,female\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_dgm_and_profile(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    code, _, _ = run(capsys, "generate", "--model", "dgm", "--steps", "5", "--seed", "1", "--out", str(out))
    assert code == 0
    g = load_edge_list(out.read_text())
    assert g.n == 123
    code, stdout, _ = run(capsys, "profile", "--in", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n"] == 123
    assert len(doc["degree"]) == 123
    assert set(doc) >= {
        "diameter",
        "density",
        "avg_path_length",
        "reciprocity",
        "assortativity",
        "centralization",
        "transitivity",
        "betweenness",
        "closeness",
        "closeness_farness",
        "pagerank",
    }


def test_compare_graph_with_itself(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "20", "--p", "0.3", "--seed", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "compare", "--a", str(out), "--b", str(out))
    assert code == 0
    doc = json.loads(stdout)
    for key in ("degree", "betweenness", "closeness"):
        assert doc[key]["p_value"] == 1.0
        assert doc[key]["pass"] is True


def test_missing_input_is_data_error(capsys):
    code, _, err = run(capsys, "recreate", "--in", "missing.tsv", "--seed", "1")
    assert code == 2
    assert "missing.tsv" in err


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "--model", "er", "--out", str(tmp_path / "x.tsv"), "--seed", "1")
    assert code == 1
    assert "usage error" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_malformed_edge_list_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("1 1\n")
    code, _, err = run(capsys, "profile", "--in", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "doc, names",
    [
        ('{"kind": "euclidean1d"}', ["euclidean1d", "'attr'"]),
        ("[1, 2]", ["JSON object"]),
        ('{"kind": "degree", "eps": "x"}', ["degree", "'eps'"]),
        ('{"kind": "nope"}', ["'nope'"]),
        ('{"kind": "degree", "esp": 0.5}', ["degree", "'esp'"]),
    ],
    ids=["missing_field", "array", "wrong_type", "unknown_kind", "unknown_field"],
)
def test_malformed_distance_spec_is_data_error(tmp_path, capsys, doc, names):
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "6", "--k", "2",
        "--distance-spec", doc, "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("data error: ")
    assert all(name in err for name in names), err
    assert not out.exists()


@pytest.mark.parametrize("weight, names", [
    ("NaN", ["NaN"]), ("Infinity", ["Infinity"]), ("-Infinity", ["-Infinity"]), ("1e999", ["'age'", "inf"]),
])
def test_non_finite_distance_spec_number_is_data_error(tmp_path, capsys, recwarn, weight, names):
    # the JSON constants fail at parse time; a number too large for a
    # double parses to inf and fails at the weight check; neither reaches
    # the distance rows
    attrs = tmp_path / "people.csv"
    attrs.write_text(PEOPLE_CSV)
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "5", "--k", "2", "--attrs", str(attrs),
        "--distance-spec", f'{{"kind": "aggregate", "weights": [["age", {weight}]]}}',
        "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("data error: ")
    assert all(name in err for name in names), err
    assert not out.exists()
    assert not recwarn.list


def _naive_bayes_spec(attrs, eps: str) -> str:
    """A naive-Bayes spec fitted on a 5-cycle of ``attrs``, with ``eps``
    spliced in as a raw JSON number."""
    cycle = Graph(5, [(v, (v + 1) % 5) for v in range(5)])
    ts = build_training_set(cycle, attrs, negative_ratio=math.inf)
    doc = fit_naive_bayes_distance(ts).to_json_dict()
    doc["eps"] = "EPS"
    return json.dumps(doc).replace('"EPS"', eps)


@pytest.mark.parametrize("kind, eps", [
    ("degree", "1e999"), ("naive_bayes", "1e999"), ("naive_bayes", "0"), ("naive_bayes", "-1"),
])
def test_eps_that_is_not_finite_and_positive_is_data_error(tmp_path, capsys, recwarn, kind, eps):
    # 1e999 parses to inf, which would make every distance equal
    attrs = tmp_path / "people.csv"
    attrs.write_text(PEOPLE_CSV)
    if kind == "degree":
        spec = f'{{"kind": "degree", "eps": {eps}}}'
    else:
        spec = _naive_bayes_spec(load_attributes(PEOPLE_CSV), eps)
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "5", "--k", "2", "--attrs", str(attrs),
        "--distance-spec", spec, "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("data error: ")
    assert "eps must be positive" in err, err
    assert not out.exists()
    assert not recwarn.list


def test_long_inline_distance_spec_is_read_as_json(tmp_path, capsys):
    # longer than a file name may be, so it must never reach the file system
    spec = json.dumps({"kind": "aggregate", "weights": [["age", 1.0]] * 40})
    attrs = tmp_path / "people.csv"
    attrs.write_text(PEOPLE_CSV)
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "5", "--k", "2", "--attrs", str(attrs),
        "--distance-spec", spec, "--seed", "1", "--out", str(out),
    )
    assert code == 0, err
    assert load_edge_list(out.read_text()).arc_count == 10


def test_seed_is_printed_when_absent(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    code, _, err = run(capsys, "generate", "--model", "er", "--n", "10", "--p", "0.2", "--out", str(out))
    assert code == 0
    assert "seed:" in err


def test_generate_priority_rank_with_dump_rankings(tmp_path, capsys):
    attrs = tmp_path / "people.csv"
    attrs.write_text(PEOPLE_CSV)
    out = tmp_path / "g.tsv"
    dump = tmp_path / "rankings.tsv"
    spec = json.dumps({"kind": "aggregate", "weights": [["age", 1.0], ["sex", 10.0]]})
    code, _, _ = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "5", "--k", "2",
        "--attrs", str(attrs), "--distance-spec", spec,
        "--seed", "3", "--out", str(out), "--dump-rankings", str(dump),
    )
    assert code == 0
    g = load_edge_list(out.read_text())
    assert g.out_degrees.tolist() == [2] * 5
    lines = dump.read_text().splitlines()
    assert lines[0] == "source\ttarget\tdistance\trank\tprobability"
    assert len(lines) == 1 + 5 * 4
    first = lines[1].split("\t")
    assert first[0] == "0" and first[1] == "4"  # nearest to the first person
    assert float(first[4]) == pytest.approx(0.48)


def test_dump_rankings_random_kind_reports_the_all_tied_law(tmp_path, capsys):
    # the random kind draws every target set as an all-tied row would, so
    # each line reads distance 0.0, rank 1 and probability 1/(n-1), whatever
    # the seed
    for seed in ("11", "12"):
        dump = tmp_path / f"rankings_{seed}.tsv"
        code, _, _ = run(
            capsys,
            "generate", "--model", "priority-rank", "--n", "6", "--k", "2", "--distance", "random",
            "--seed", seed, "--out", str(tmp_path / f"g_{seed}.tsv"), "--dump-rankings", str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()[1:]
        assert len(lines) == 6 * 5
        for line in lines:
            source, target, distance, rank, probability = line.split("\t")
            assert source != target
            assert (distance, rank, probability) == ("0.0", "1", repr(1 / 5))


def test_dump_rankings_centrality_kind_without_reference_fails_before_generating(
    tmp_path, capsys, monkeypatch
):
    passes = []
    monkeypatch.setattr(generate_mod, "_generation_pass", lambda *a: passes.append(a))
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "6", "--k", "2",
        "--distance", "betweenness", "--seed", "11", "--out", str(out),
        "--dump-rankings", str(tmp_path / "rankings.tsv"),
    )
    assert code == 1
    assert "needs --reference" in err
    assert passes == []
    assert not out.exists()


def test_learn_emits_loadable_spec(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "4", "--out", str(src))
    out = tmp_path / "spec.json"
    code, _, _ = run(
        capsys, "learn", "--in", str(src), "--kind", "naive-bayes", "--seed", "5", "--out", str(out)
    )
    assert code == 0
    spec = spec_from_json_dict(json.loads(out.read_text()))
    assert spec.kind == "naive_bayes"


def test_recreate_writes_report_and_best(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "6", "--out", str(src))
    report = tmp_path / "report.json"
    best = tmp_path / "best"
    code, _, _ = run(
        capsys,
        "recreate", "--in", str(src), "--runs", "3", "--pilot", "1",
        "--seed", "7", "--report", str(report), "--emit-best", str(best),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["winner"] in {c["kind"] for c in doc["candidates"]}
    families = sorted(best.glob("run_*.tsv"))
    assert len(families) == 3
    for f in families:
        load_edge_list(f.read_text())


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--runs", "0"),
        ("--pilot", "0"),
        ("--negative-ratio", "0"),
        ("--negative-ratio", "-1.5"),
        ("--alpha", "2"),
        ("--alpha", "0"),
    ],
)
def test_recreate_rejects_bad_settings_up_front(tmp_path, capsys, flag, value):
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "6", "--out", str(src))
    report = tmp_path / "report.json"
    code, _, err = run(
        capsys, "recreate", "--in", str(src), "--seed", "7", flag, value, "--report", str(report)
    )
    assert code == 1
    assert "usage error" in err and value in err
    assert not report.exists()


def test_recreate_reports_unbounded_negative_ratio_as_null(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "6", "--out", str(src))
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "recreate", "--in", str(src), "--runs", "2", "--pilot", "1", "--seed", "7",
        "--negative-ratio", "inf", "--report", str(report),
    )
    assert code == 0
    assert '"negative_ratio": null' in report.read_text()
    assert json.loads(report.read_text())["config"]["negative_ratio"] is None


@pytest.mark.parametrize("value", ["2", "1", "0", "-0.5", "nan"])
def test_compare_rejects_bad_alpha_up_front(tmp_path, capsys, value):
    # neither file exists: the check must run before either is loaded
    missing = tmp_path / "missing.tsv"
    out = tmp_path / "compare.json"
    code, _, err = run(
        capsys, "compare", "--a", str(missing), "--b", str(missing), "--alpha", value, "--out", str(out)
    )
    assert code == 1
    assert "usage error" in err and value in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1.5", "nan"])
def test_learn_rejects_bad_negative_ratio_up_front(tmp_path, capsys, value):
    # the input file does not exist: the check must run before it is loaded
    missing = tmp_path / "missing.tsv"
    out = tmp_path / "spec.json"
    code, _, err = run(
        capsys, "learn", "--in", str(missing), "--kind", "linear-regression",
        "--negative-ratio", value, "--seed", "1", "--out", str(out),
    )
    assert code == 1
    assert "usage error" in err and value in err
    assert not out.exists()


def test_help_lists_documented_flags(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    text = capsys.readouterr().out
    for flag in (
        "--model", "--out", "--seed", "--workers", "--attrs", "--attrs-out",
        "--k", "--degrees-from", "--distance", "--distance-spec", "--reference",
        "--dump-rankings", "--p", "--k-neighbors", "--p-rewire", "--n0",
        "--p-burn", "--ambassadors", "--steps", "--stop-threshold", "--max-rounds",
    ):
        assert flag in text
    with pytest.raises(SystemExit):
        main(["recreate", "--help"])
    text = capsys.readouterr().out
    for flag in ("--runs", "--pilot", "--report", "--emit-best", "--negative-ratio", "--alpha", "--symmetrize"):
        assert flag in text


def test_workers_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIORITY_RANK_WORKERS", "4")
    out = tmp_path / "g.tsv"
    code, _, _ = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "10", "--k", "2",
        "--distance", "random", "--seed", "8", "--out", str(out),
    )
    assert code == 0
    monkeypatch.setenv("PRIORITY_RANK_WORKERS", "1")
    out2 = tmp_path / "g2.tsv"
    run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "10", "--k", "2",
        "--distance", "random", "--seed", "8", "--out", str(out2),
    )
    assert out.read_text() == out2.read_text()


def test_profile_rejects_ids_too_large_for_arc_codes(tmp_path, capsys):
    path = tmp_path / "huge.tsv"
    path.write_text("0 100000000000000000000000\n", encoding="utf-8")
    code, out, err = run(capsys, "profile", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "data error" in err and "2**63 - 1" in err


def _dump_rankings_by_lines(path, spec, attrs, n):
    """The ranking dump built as one list of f-string lines, for byte comparison."""
    ctx = DistanceContext(n=n, attrs=attrs, reference=None)
    lines = ["source\ttarget\tdistance\trank\tprobability"]
    all_ids = np.arange(n, dtype=np.int64)
    for i in range(n):
        row = spec.row(ctx, i)
        ranking = build_local_ranking(i, (np.delete(all_ids, i), np.delete(row, i)))
        for t, d, r, p in zip(ranking.targets, ranking.distances, ranking.ranks, ranking.probabilities):
            lines.append(f"{i}\t{int(t)}\t{float(d)!r}\t{int(r)}\t{float(p)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "weights, tied",
    [([["sex", 1.0]], True), ([["age", 1.0]], False), ([["age", 0.3], ["sex", 10.0]], False)],
    ids=["tied", "untied", "mixed"],
)
def test_dump_rankings_bytes_match_a_line_by_line_dump(tmp_path, capsys, weights, tied):
    # ages 2**k: every source sees distinct age gaps, so only sex ties
    people = "age:continuous,sex:categorical\n" + "".join(
        f"{2.0**k!r},{'fe' * (k % 2)}male\n" for k in range(7)
    )
    attrs = tmp_path / "people.csv"
    attrs.write_text(people)
    doc = {"kind": "aggregate", "weights": weights}
    dump = tmp_path / "rankings.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "7", "--k", "2", "--attrs", str(attrs),
        "--distance-spec", json.dumps(doc), "--seed", "5", "--out", str(tmp_path / "g.tsv"),
        "--dump-rankings", str(dump),
    )
    assert code == 0, err
    expected = tmp_path / "expected.tsv"
    _dump_rankings_by_lines(expected, spec_from_json_dict(doc), load_attributes(people), 7)
    assert dump.read_bytes() == expected.read_bytes()
    ranks = {}
    for line in dump.read_text().splitlines()[1:]:
        source, _, _, rank, _ = line.split("\t")
        ranks.setdefault(source, []).append(int(rank))
    assert len(ranks) == 7
    assert any(len(set(r)) < 6 for r in ranks.values()) == tied


def test_learn_and_generate_read_comments_crlf_and_bom_as_the_plain_file(tmp_path, capsys):
    src = tmp_path / "plain.tsv"
    run(capsys, "generate", "--model", "er", "--n", "30", "--p", "0.2", "--seed", "8", "--out", str(src))
    edges = src.read_text()
    people = "age:continuous,sex:categorical\n" + "".join(
        f"{20 + 1.5 * v!r},{'fe' * (v % 3 == 0)}male\n" for v in range(30)
    )
    variants = {
        "plain": (edges, people),
        "comments": ("# an edge list\n" + edges.replace("\n", "\n# arc\n", 3), "\n" + people + "\n"),
        "crlf": (edges.replace("\n", "\r\n"), people.replace("\n", "\r\n")),
        "bom": ("\ufeff" + edges, "\ufeff" + people),
    }
    outputs = {}
    for name, (edge_text, attr_text) in variants.items():
        g, attrs = tmp_path / f"{name}.tsv", tmp_path / f"{name}.csv"
        g.write_text(edge_text, encoding="utf-8", newline="")
        attrs.write_text(attr_text, encoding="utf-8", newline="")
        spec, out = tmp_path / f"{name}_spec.json", tmp_path / f"{name}_out.tsv"
        code, _, err = run(
            capsys, "learn", "--in", str(g), "--attrs", str(attrs), "--kind", "naive-bayes",
            "--seed", "3", "--out", str(spec),
        )
        assert code == 0, err
        code, _, err = run(
            capsys, "generate", "--model", "priority-rank", "--n", "30", "--attrs", str(attrs),
            "--distance-spec", str(spec), "--degrees-from", str(g), "--seed", "4", "--out", str(out),
        )
        assert code == 0, err
        outputs[name] = (spec.read_bytes(), out.read_bytes())
    assert all(value == outputs["plain"] for value in outputs.values())
