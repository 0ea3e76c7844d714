import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from priorityrank import cli, metrics
from priorityrank import generate as generate_mod
from priorityrank.cli import main
from priorityrank.distance import (
    CentralityDistance,
    DistanceContext,
    FeatureEncoder,
    build_training_set,
    fit_naive_bayes_distance,
    spec_from_json_dict,
)
from priorityrank.graph import Graph, load_attributes, load_edge_list
from priorityrank.recreate import RecreateConfig, generate_synthetic_attributes, recreate
from priorityrank.stats import RngStream

from _oracles import lexsort_ranking

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
    # every model names the arguments it misses, and writes nothing
    out = tmp_path / "g.tsv"
    for argv, message in (
        (["ws", "--n", "10", "--k-neighbors", "2"], "ws needs --n, --k-neighbors, and --p-rewire"),
        (["ba", "--k", "2"], "ba needs --n and --k"),
        (["ff", "--n", "10"], "ff needs --n and --p-burn"),
        (["dgm"], "dgm needs --steps"),
        (["priority-rank", "--k", "2"], "priority-rank needs --n"),
        (["priority-rank", "--n", "10"], "priority-rank needs --k or --degrees-from"),
    ):
        code, _, err = run(capsys, "generate", "--model", *argv, "--seed", "1", "--out", str(out))
        assert (code, err) == (1, f"usage error: {message}\n")
        assert not out.exists()


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
        ('{"kind": "degree",', ["bad distance spec JSON", "line 1"]),
    ],
    ids=["missing_field", "array", "wrong_type", "unknown_kind", "unknown_field", "not_json"],
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


def test_seedless_run_draws_a_63_bit_seed_without_importing_secrets(tmp_path):
    out = tmp_path / "g.tsv"
    script = (
        "import sys; import priorityrank.cli as cli; "
        "assert 'secrets' not in sys.modules, 'secrets imported'; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", "--model", "er", "--n", "5", "--p", "0.5", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("seed: ")
    assert 0 <= int(proc.stderr.split()[1]) < 2**63


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--model", "er", "--n", "5", "--p", "0.5"],
        ["learn", "--kind", "naive-bayes"],
    ],
    ids=["generate", "learn"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    # learn's input does not exist: the seed is checked before it is read
    infile = ["--in", str(tmp_path / "missing.tsv")] if argv[0] == "learn" else []
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, *infile, "--seed", "-1", "--out", str(out))
    assert code == 1
    assert "usage error" in err and "-1" in err
    assert not out.exists()


def test_the_parser_is_built_once_and_not_at_import():
    assert cli._build_parser() is cli._build_parser()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import priorityrank.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path, capsys):
    calls = [
        ["generate", "--model", "dgm", "--steps", "2", "--seed", "1", "--out", str(tmp_path / "a.tsv")],
        ["generate", "--model", "er", "--seed", "1", "--out", str(tmp_path / "b.tsv")],
        ["profile", "--in"],
        ["generate", "--model", "nope", "--out", str(tmp_path / "c.tsv")],
        ["profile", "--in", str(tmp_path / "a.tsv"), "--out", str(tmp_path / "a.json")],
        ["learn", "--in", str(tmp_path / "a.tsv"), "--kind", "naive-bayes", "--seed", "x"],
        ["nonsense"],
        ["generate", "--model", "ws", "--n", "12", "--k-neighbors", "2", "--p-rewire", "0.3",
         "--seed", "2", "--out", str(tmp_path / "d.tsv")],
    ]

    def outcomes(fresh: bool) -> list:
        results = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        files = sorted(tmp_path.iterdir())
        results.append({path.name: path.read_bytes() for path in files})
        for path in files:
            path.unlink()
        return results

    reused = outcomes(fresh=False)
    assert [result[0] for result in reused[:-1]] == [0, 1, 1, 1, 0, 1, 1, 0]
    assert sorted(reused[-1]) == ["a.json", "a.tsv", "d.tsv"]
    assert outcomes(fresh=True) == reused


def test_generate_writes_the_synthetic_attributes_it_used(tmp_path, capsys):
    # an attribute kind with no --attrs draws the synthetic table from the seed
    spec = '{"kind": "euclidean1d", "attr": "lognormal"}'
    argv = ["generate", "--model", "priority-rank", "--n", "40", "--k", "3", "--distance-spec", spec, "--seed", "6"]
    first, table = tmp_path / "first.tsv", tmp_path / "attrs.csv"
    code, _, err = run(capsys, *argv, "--out", str(first), "--attrs-out", str(table))
    assert code == 0, err
    written = load_attributes(table.read_text(encoding="utf-8"), expected_n=40)
    drawn = generate_synthetic_attributes(40, RngStream(6).child(9).spawn_seed())
    assert written.columns == drawn.columns
    second = tmp_path / "second.tsv"
    code, _, err = run(capsys, *argv, "--attrs", str(table), "--out", str(second))
    assert code == 0, err
    assert second.read_bytes() == first.read_bytes()


def test_a_convergence_error_exits_3(tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise metrics.ConvergenceError("pagerank did not converge")

    edges = tmp_path / "g.tsv"
    edges.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
    monkeypatch.setattr(metrics, "pagerank_centrality", diverge)
    code, out, err = run(capsys, "profile", "--in", str(edges))
    assert (code, out, err) == (3, "", "convergence error: pagerank did not converge\n")


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


def test_dump_rankings_of_a_centrality_kind_sweeps_the_reference_once(tmp_path, capsys, sweep_chunks):
    # the pass and the dump read one betweenness vector of the reference, so
    # the dump adds no sweep and leaves the graph as it is without it
    reference = tmp_path / "reference.tsv"
    run(capsys, "generate", "--model", "er", "--n", "60", "--p", "0.1", "--seed", "3", "--out", str(reference))
    argv = ["generate", "--model", "priority-rank", "--n", "60", "--k", "3", "--distance", "betweenness",
            "--reference", str(reference), "--seed", "4"]
    sweep_chunks.clear()
    assert run(capsys, *argv, "--out", str(tmp_path / "plain.tsv"))[0] == 0
    plain = list(sweep_chunks)
    sweep_chunks.clear()
    dump = tmp_path / "rankings.tsv"
    assert run(capsys, *argv, "--out", str(tmp_path / "dumped.tsv"), "--dump-rankings", str(dump))[0] == 0
    assert sum(plain) == 60 and sweep_chunks == plain
    assert (tmp_path / "dumped.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()
    expected = tmp_path / "expected.tsv"
    spec = CentralityDistance(centrality="betweenness")
    _dump_rankings_by_lines(expected, spec, None, 60, load_edge_list(reference.read_text()))
    assert dump.read_bytes() == expected.read_bytes()


def test_dump_rankings_of_a_learned_kind_encodes_once(tmp_path, capsys, monkeypatch):
    # the pass and the dump read one context, which caches the encoded
    # attributes, so the dump adds no encode and leaves the graph as it is
    src, attrs, spec = tmp_path / "g.tsv", tmp_path / "people.csv", tmp_path / "spec.json"
    run(capsys, "generate", "--model", "er", "--n", "5", "--p", "0.4", "--seed", "3", "--out", str(src))
    attrs.write_text(PEOPLE_CSV)
    assert run(capsys, "learn", "--in", str(src), "--attrs", str(attrs), "--kind", "naive-bayes",
               "--seed", "2", "--out", str(spec))[0] == 0
    encoded = []
    encode = FeatureEncoder.encode

    def counted(self, table):
        encoded.append(table)
        return encode(self, table)

    monkeypatch.setattr(FeatureEncoder, "encode", counted)
    argv = ["generate", "--model", "priority-rank", "--n", "5", "--k", "2", "--attrs", str(attrs),
            "--distance-spec", str(spec), "--seed", "4"]
    assert run(capsys, *argv, "--out", str(tmp_path / "plain.tsv"))[0] == 0
    assert len(encoded) == 1
    dump = tmp_path / "rankings.tsv"
    assert run(capsys, *argv, "--out", str(tmp_path / "dumped.tsv"), "--dump-rankings", str(dump))[0] == 0
    assert len(encoded) == 2
    assert (tmp_path / "dumped.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()
    assert len(dump.read_text().splitlines()) == 1 + 5 * 4


@pytest.mark.parametrize("kind", ["degree", "betweenness", "closeness", "pagerank", "random"])
def test_reference_of_another_vertex_count_is_data_error(tmp_path, capsys, kind):
    reference = tmp_path / "reference.tsv"
    run(capsys, "generate", "--model", "er", "--n", "150", "--p", "0.05", "--seed", "3", "--out", str(reference))
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", "120", "--k", "3", "--distance", kind,
        "--reference", str(reference), "--seed", "4", "--out", str(out),
    )
    assert code == 2
    assert "reference graph has n=150, context n=120" in err
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


def test_huge_finite_negative_ratio_keeps_every_non_arc(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "4", "--out", str(src))
    specs = []
    for ratio in ("1e308", "inf"):
        out = tmp_path / f"spec_{ratio}.json"
        with pytest.warns(UserWarning, match="rank-deficient"):
            code, _, err = run(
                capsys, "learn", "--in", str(src), "--kind", "linear-regression",
                "--negative-ratio", ratio, "--seed", "5", "--out", str(out),
            )
        assert code == 0, err
        specs.append(out.read_bytes())
    assert specs[0] == specs[1]
    with pytest.warns(UserWarning, match="rank-deficient"):
        code, _, err = run(
            capsys, "recreate", "--in", str(src), "--runs", "2", "--pilot", "1", "--seed", "7",
            "--negative-ratio", "1e308", "--report", str(tmp_path / "report.json"),
        )
    assert code == 0, err


def test_generate_past_the_cell_budget_is_data_error(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys, "generate", "--model", "er", "--n", "1000000", "--p", "0.1", "--seed", "1", "--out", str(out)
    )
    assert code == 2
    assert err.startswith("data error: ") and "over the budget" in err
    assert not out.exists()


def test_attribute_cell_past_the_csv_field_limit_is_data_error(tmp_path, capsys):
    attrs = tmp_path / "long.csv"
    attrs.write_text('lab:categorical\n"' + "x" * 200_000 + '"\ny\n')
    out = tmp_path / "g.tsv"
    code, _, err = run(
        capsys, "generate", "--model", "priority-rank", "--n", "2", "--k", "1", "--attrs", str(attrs),
        "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("data error: row 2: field larger than field limit")
    assert not out.exists()


def test_recreate_writes_report_and_best(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "6", "--out", str(src))
    report = tmp_path / "report.json"
    best = tmp_path / "best"
    with pytest.warns(UserWarning, match="rank-deficient"):
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


def test_recreate_reads_its_attribute_table(tmp_path, capsys):
    # the report with --attrs is the library's report on that table, and a
    # table of another row count is a data error
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "6", "--out", str(src))
    gen = RngStream(3).generator
    rows = [f"{x!r},{y!r}" for x, y in gen.uniform(0, 1, (16, 2)).tolist()]
    table, short = tmp_path / "attrs.csv", tmp_path / "short.csv"
    table.write_text("\n".join(["x:continuous,y:continuous", *rows[:15]]) + "\n", encoding="utf-8")
    short.write_text("\n".join(["x:continuous,y:continuous", *rows[:14]]) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    argv = ["recreate", "--in", str(src), "--runs", "2", "--pilot", "1", "--seed", "7", "--report", str(report)]
    assert run(capsys, *argv, "--attrs", str(table))[0] == 0
    expected = recreate(
        load_edge_list(src.read_text()),
        load_attributes(table.read_text()),
        RecreateConfig(runs=2, pilot_runs=1, seed=7),
    )
    assert report.read_text() == json.dumps(expected.to_json_dict(), indent=2) + "\n"
    assert "euclidean2d" in {c["kind"] for c in json.loads(report.read_text())["candidates"]}
    report.unlink()
    code, _, err = run(capsys, *argv, "--attrs", str(short))
    assert code == 2
    assert err == "data error: attribute table has 14 rows, expected 15\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--runs", "0"),
        ("--pilot", "0"),
        ("--negative-ratio", "0"),
        ("--negative-ratio", "-1.5"),
        ("--alpha", "2"),
        ("--alpha", "0"),
        ("--seed", "-1"),
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
    with pytest.warns(UserWarning, match="rank-deficient"):
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


def _dump_rankings_by_lines(path, spec, attrs, n, reference=None):
    """The ranking dump built as one list of f-string lines, for byte comparison."""
    centralities = None if reference is None else metrics.network_profile(reference)
    ctx = DistanceContext(n=n, attrs=attrs, centralities=centralities)
    lines = ["source\ttarget\tdistance\trank\tprobability"]
    for i in range(n):
        ranking = lexsort_ranking(spec.rows(ctx, np.array([i]))[0], i)
        for t, d, r, p in zip(ranking.targets, ranking.distances, ranking.ranks, ranking.probabilities):
            lines.append(f"{i}\t{int(t)}\t{float(d)!r}\t{int(r)}\t{float(p)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ages 2**k: every source sees distinct age gaps, so only sex ties
PEOPLE_2K = "age:continuous,sex:categorical\n" + "".join(
    f"{2.0**k!r},{'fe' * (k % 2)}male\n" for k in range(7)
)
# vertex 0, at age 0, sees ages 1 and 1 + 2**-52 alike above the packed
# keys' id bits, the larger at every odd id, so its row is argsorted
NEAR_TIES = "age:continuous\n0.0\n" + "".join(f"{1.0 + (k % 2) * 2.0**-52!r}\n" for k in range(1, 40))
REFERENCE = "n=7\n0 1\n1 2\n2 0\n3 0\n4 0\n5 6\n"


def _aggregate(*weights):
    return {"kind": "aggregate", "weights": [list(w) for w in weights]}


@pytest.mark.parametrize(
    "people, doc, reference, tied, argsorted",
    [
        (PEOPLE_2K, _aggregate(("sex", 1.0)), None, True, False),
        (PEOPLE_2K, _aggregate(("age", 1.0)), None, False, False),
        (PEOPLE_2K, _aggregate(("age", 0.3), ("sex", 10.0)), None, False, False),
        (NEAR_TIES, _aggregate(("age", 1.0)), None, True, True),
        (PEOPLE_2K, "naive_bayes", None, False, False),
        (None, {"kind": "degree"}, REFERENCE, True, False),
    ],
    ids=["tied", "untied", "mixed", "near_ties", "naive_bayes", "degree"],
)
def test_dump_rankings_bytes_match_a_line_by_line_dump(
    tmp_path, capsys, ranked_rows, people, doc, reference, tied, argsorted
):
    # the dump sorts each row with sort_block; the line-by-line dump
    # lexsorts it, so both list tied targets by id
    args = []
    attrs = reference_graph = None
    if people is not None:
        (tmp_path / "people.csv").write_text(people)
        args += ["--attrs", str(tmp_path / "people.csv")]
        attrs = load_attributes(people)
    if reference is not None:
        (tmp_path / "reference.tsv").write_text(reference)
        args += ["--reference", str(tmp_path / "reference.tsv")]
        reference_graph = load_edge_list(reference)
    n = (attrs or reference_graph).n
    if doc == "naive_bayes":
        path = Graph(n, [(v, v + 1) for v in range(n - 1)] + [(v + 1, v) for v in range(n - 1)])
        doc = fit_naive_bayes_distance(build_training_set(path, attrs, negative_ratio=math.inf)).to_json_dict()
    dump = tmp_path / "rankings.tsv"
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", str(n), "--k", "2", *args,
        "--distance-spec", json.dumps(doc), "--seed", "5", "--out", str(tmp_path / "g.tsv"),
        "--dump-rankings", str(dump),
    )
    assert code == 0, err
    assert (ranked_rows["sorted"] > 0) == argsorted
    expected = tmp_path / "expected.tsv"
    _dump_rankings_by_lines(expected, spec_from_json_dict(doc), attrs, n, reference_graph)
    assert dump.read_bytes() == expected.read_bytes()
    ranks = {}
    for line in dump.read_text().splitlines()[1:]:
        source, _, _, rank, _ = line.split("\t")
        ranks.setdefault(source, []).append(int(rank))
    assert len(ranks) == n
    assert any(len(set(r)) < n - 1 for r in ranks.values()) == tied


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
