import json

import numpy as np
import pytest

from priorityrank import generate as generate_mod
from priorityrank.cli import main
from priorityrank.distance import spec_from_json_dict
from priorityrank.graph import load_edge_list

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


def test_dump_rankings_random_kind_matches_the_ranked_rows(tmp_path, capsys, monkeypatch):
    # the dump rebuilds the pass's context stream; a wrong stream path would
    # dump random rows the pass never ranked
    ranked = {}
    sample_rows = generate_mod.sample_rows

    def spy(distances, sources, *rest):
        for source, row in zip(sources, distances):
            ranked[int(source)] = np.array(row)
        return sample_rows(distances, sources, *rest)

    monkeypatch.setattr(generate_mod, "sample_rows", spy)
    out = tmp_path / "g.tsv"
    dump = tmp_path / "rankings.tsv"
    code, _, _ = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "6", "--k", "2",
        "--distance", "random", "--seed", "11", "--out", str(out), "--dump-rankings", str(dump),
    )
    assert code == 0
    assert sorted(ranked) == list(range(6))
    lines = dump.read_text().splitlines()[1:]
    assert len(lines) == 6 * 5
    for line in lines:
        source, target, distance, _, _ = line.split("\t")
        assert float(distance) == ranked[int(source)][int(target)]


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
