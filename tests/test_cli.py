import json
import math
import os
import subprocess
import sys
import warnings
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
    fit_linear_regression_distance,
    fit_naive_bayes_distance,
    spec_from_json_dict,
)
from priorityrank.graph import Graph, load_attributes, load_edge_list, save_edge_list
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


@pytest.mark.parametrize(
    "model, flags, build",
    [
        ("er", ["--n", "30", "--p", "0.2"], lambda: generate_mod.gen_erdos_renyi(30, 0.2, seed=1)),
        (
            "ws",
            ["--n", "30", "--k-neighbors", "4", "--p-rewire", "0.1"],
            lambda: generate_mod.gen_watts_strogatz(30, 4, 0.1, seed=1),
        ),
        ("ba", ["--n", "30", "--k", "2"], lambda: generate_mod.gen_barabasi_albert(30, 2, seed=1)),
        ("ff", ["--n", "30", "--p-burn", "0.3"], lambda: generate_mod.gen_forest_fire(30, 0.3, seed=1)),
        ("dgm", ["--steps", "3"], lambda: generate_mod.gen_dorogovtsev_goltsev_mendes(3)),
        ("disassortative", [], lambda: generate_mod.gen_disassortative(seed=1)),
    ],
    ids=["er", "ws", "ba", "ff", "dgm", "disassortative"],
)
def test_baseline_with_only_its_required_flags_is_the_library_call(tmp_path, capsys, model, flags, build):
    # an option left unset takes the generator's own default
    out = tmp_path / "g.tsv"
    code, _, _ = run(capsys, "generate", "--model", model, *flags, "--seed", "1", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == save_edge_list(build()).encode("utf-8")


def test_compare_graph_with_itself(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "20", "--p", "0.3", "--seed", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "compare", "--a", str(out), "--b", str(out))
    assert code == 0
    doc = json.loads(stdout)
    for key in ("degree", "betweenness", "closeness"):
        assert doc[key]["p_value"] == 1.0
        assert doc[key]["pass"] is True


def test_compare_matches_golden_file(tmp_path, capsys):
    paths = []
    for name, g in (
        ("er.tsv", generate_mod.gen_erdos_renyi(40, 0.1, seed=3)),
        ("ba.tsv", generate_mod.gen_barabasi_albert(40, 2, seed=3)),
    ):
        paths.append(tmp_path / name)
        paths[-1].write_text(save_edge_list(g), encoding="utf-8")
    golden = (Path(__file__).parent / "data" / "compare_er_ba.json").read_text(encoding="utf-8")
    code, stdout, _ = run(capsys, "compare", "--a", str(paths[0]), "--b", str(paths[1]))
    assert code == 0
    assert stdout == golden
    # at alpha 0.01 closeness (p = 0.043) passes while degree (p = 0.005) still fails
    flipped = golden.replace('"alpha": 0.05', '"alpha": 0.01').replace(
        '"p_value": 0.04313491121487036,\n    "pass": false',
        '"p_value": 0.04313491121487036,\n    "pass": true',
    )
    assert flipped.count('"pass": true') == 1
    out = tmp_path / "compare.json"
    argv = ["compare", "--a", str(paths[0]), "--b", str(paths[1]), "--alpha", "0.01", "--out", str(out)]
    assert run(capsys, *argv)[0] == 0
    assert out.read_text(encoding="utf-8") == flipped


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
        (["er", "--p", "0.5"], "er needs --n and --p"),
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


def learned_doc(kind):
    """The JSON document of a ``kind`` spec fitted to a 5-cycle over
    PEOPLE_CSV, which encodes 3 features per vertex (age and two sex slots):
    beta holds 2 * 3 + 1 entries, and each naive-Bayes table 2 rows of 2 * 3."""
    cycle = Graph(5, [(v, (v + 1) % 5) for v in range(5)])
    ts = build_training_set(cycle, load_attributes(PEOPLE_CSV), negative_ratio=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-hot columns make the design rank-deficient
        fit = fit_linear_regression_distance if kind == "linear_regression" else fit_naive_bayes_distance
        return fit(ts).to_json_dict()


def generate_with_spec(tmp_path, capsys, doc, n=5):
    """``generate`` with the spec ``doc`` over PEOPLE_CSV (n=5) or synthetic
    attributes: the exit code and stderr, after checking that a failure
    writes no graph."""
    out = tmp_path / "g.tsv"
    attrs = []
    if n == 5:
        (tmp_path / "people.csv").write_text(PEOPLE_CSV)
        attrs = ["--attrs", str(tmp_path / "people.csv")]
    code, _, err = run(
        capsys,
        "generate", "--model", "priority-rank", "--n", str(n), "--k", "2", *attrs,
        "--distance-spec", json.dumps(doc), "--seed", "1", "--out", str(out),
    )
    assert code == 0 or not out.exists()
    return code, err


@pytest.mark.parametrize(
    "kind, name, edit, message",
    [
        ("linear_regression", "beta", lambda value: value[:-3], "must have shape (7,) for its encoder, got (4,)\n"),
        ("linear_regression", "beta", lambda value: value + [0.0, 0.0], "must have shape (7,) for its encoder, got (9,)\n"),
        (
            "naive_bayes", "bernoulli", lambda value: [row + [0.5] for row in value],
            "must have shape (2, 6) for its encoder, got (2, 7)\n",
        ),
        (
            "naive_bayes", "means", lambda value: [row[:-2] for row in value],
            "must have shape (2, 6) for its encoder, got (2, 4)\n",
        ),
        ("naive_bayes", "variances", lambda value: [value[0], value[1][:-1]], "must be an array of numbers: "),
    ],
    ids=["beta-short", "beta-long", "bernoulli-long", "means-short", "variances-ragged"],
)
def test_learned_spec_of_another_width_than_its_encoder_is_data_error(tmp_path, capsys, kind, name, edit, message):
    doc = learned_doc(kind)
    doc[name] = edit(doc[name])
    code, err = generate_with_spec(tmp_path, capsys, doc)
    assert code == 2
    assert err.startswith(f"data error: {kind} spec field {name!r} {message}"), err


def with_value(doc, name, index, value):
    """``doc`` with ``value`` in field ``name``, or at ``index`` of its table."""
    if index is None:
        doc[name] = value
    else:
        table = np.array(doc[name])
        table[index] = value
        doc[name] = table.tolist()
    return doc


@pytest.mark.parametrize(
    "name, index, value, message",
    [
        ("prior_edge", None, -0.5, "must be positive and finite, got -0.5"),
        ("prior_no_edge", None, 0.0, "must be positive and finite, got 0.0"),
        ("variances", (1, 2), -1.0, "must be positive and finite"),
    ],
    ids=["prior-edge-negative", "prior-no-edge-zero", "variance-negative"],
)
def test_naive_bayes_value_out_of_range_is_data_error(tmp_path, capsys, recwarn, name, index, value, message):
    # checked when the spec is read or first used, before any row is evaluated
    doc = with_value(learned_doc("naive_bayes"), name, index, value)
    code, err = generate_with_spec(tmp_path, capsys, doc)
    assert code == 2
    assert err == f"data error: naive_bayes spec field {name!r} {message}\n"
    assert not recwarn.list


def test_naive_bayes_placeholder_rates_go_unchecked(tmp_path, capsys):
    # the Bernoulli rates of the continuous slots (age, in both halves) are
    # never read
    doc = with_value(learned_doc("naive_bayes"), "bernoulli", (0, 0), -7.0)
    assert generate_with_spec(tmp_path, capsys, doc) == (0, "")


def beta_with_object(doc):
    doc["beta"][2] = {}
    return doc


@pytest.mark.parametrize(
    "doc, name",
    [
        ({"kind": "hierarchical_mix", "alpha": 0.0, "class_ranks": [{}, 1, 2, 3, 4, 5]}, "class_ranks"),
        ({"kind": "aggregate", "weights": [[{}, 1.0]]}, "weights"),
        (beta_with_object(learned_doc("linear_regression")), "beta"),
        ({"kind": "cosine", "attrs": [{}]}, "attrs"),
    ],
    ids=["class-ranks", "aggregate-weights", "beta", "cosine-attrs"],
)
def test_json_object_inside_a_list_field_is_data_error(tmp_path, capsys, recwarn, doc, name):
    n = 5 if doc["kind"] == "linear_regression" else 6
    code, err = generate_with_spec(tmp_path, capsys, doc, n=n)
    assert code == 2
    assert err == f"data error: {doc['kind']} spec field {name!r} must hold no JSON object, got {{}}\n"
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


@pytest.mark.parametrize("kind", cli.DEFAULT_DISTANCES)
def test_distance_choice_is_the_spec_of_its_kind(kind):
    args = cli._build_parser().parse_args(
        ["generate", "--model", "priority-rank", "--out", "g.tsv", "--distance", kind]
    )
    spec = cli._distance_spec_from_args(args)
    assert spec == spec_from_json_dict({"kind": kind})
    assert spec.kind == kind
    if kind in metrics.CENTRALITY_KINDS:
        assert spec == CentralityDistance(centrality=kind)
        assert CentralityDistance(centrality=kind).kind == kind


def test_seed_is_printed_when_absent(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    code, _, err = run(capsys, "generate", "--model", "er", "--n", "10", "--p", "0.2", "--out", str(out))
    assert code == 0
    assert "seed:" in err


@pytest.mark.parametrize(
    "argv, reads_seed",
    [
        (["--model", "dgm", "--steps", "0"], False),
        (["--model", "ba", "--n", "10", "--k", "2"], True),
        (["--model", "priority-rank", "--n", "10", "--k", "2"], True),
    ],
    ids=["dgm", "ba", "priority-rank"],
)
def test_a_seed_is_drawn_only_for_a_model_that_reads_one(tmp_path, capsys, argv, reads_seed):
    out = tmp_path / "g.tsv"
    code, _, err = run(capsys, "generate", *argv, "--out", str(out))
    assert code == 0
    if reads_seed:
        assert err.startswith("seed: ")
    else:
        assert err == ""


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
        ("--seed", "-1"),
        # alpha sets compare's pass flags; no recreate decision reads one
        ("--alpha", "0.1"),
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


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (
            ["recreate", "--in", "SRC", "--seed", "7", "--report"],
            ["--runs", "20", "--pilot", "3", "--negative-ratio", "1"],
        ),
        (["learn", "--in", "SRC", "--kind", "naive-bayes", "--seed", "7", "--out"], ["--negative-ratio", "1"]),
        (["compare", "--a", "SRC", "--b", "SRC", "--out"], ["--alpha", "0.05"]),
    ],
    ids=["recreate", "learn", "compare"],
)
def test_an_unset_option_is_the_library_default(tmp_path, capsys, recwarn, argv, defaults):
    src = tmp_path / "g.tsv"
    run(capsys, "generate", "--model", "er", "--n", "15", "--p", "0.3", "--seed", "6", "--out", str(src))
    argv = [str(src) if arg == "SRC" else arg for arg in argv]
    outputs = []
    for index, extra in enumerate(([], defaults)):
        out = tmp_path / f"out{index}.json"
        code, _, _ = run(capsys, *argv, str(out), *extra)
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recreate", "--in", "SRC", "--seed", "7", "--runs", "0"], "runs must be >= 1, got 0"),
        (["recreate", "--in", "SRC", "--seed", "7", "--pilot", "0"], "pilot_runs must be >= 1, got 0"),
        (["recreate", "--in", "SRC", "--seed", "7", "--negative-ratio", "0"], "negative_ratio must be > 0, got 0.0"),
        (["learn", "--in", "SRC", "--kind", "naive-bayes", "--negative-ratio", "nan"], "negative_ratio must be > 0, got nan"),
        (["compare", "--a", "SRC", "--b", "SRC", "--alpha", "1"], "alpha must lie in (0, 1), got 1.0"),
    ],
    ids=["runs", "pilot", "recreate-negative-ratio", "learn-negative-ratio", "alpha"],
)
def test_a_bad_option_value_is_the_library_check_as_a_usage_error(tmp_path, capsys, argv, message):
    # the input does not exist: each check runs before it is read
    argv = [str(tmp_path / "missing.tsv") if arg == "SRC" else arg for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"usage error: {message}\n"


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
    for flag in ("--runs", "--pilot", "--report", "--emit-best", "--negative-ratio", "--symmetrize"):
        assert flag in text
    assert "--alpha" not in text


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
    centralities = None if reference is None else metrics.NetworkProfile(reference)
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
