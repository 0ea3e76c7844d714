"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values."""

import json
import warnings

import numpy as np
import pytest

import priorityrank as pr
from priorityrank.cli import main as cli_main
from priorityrank.generate import DegreeSpec
from priorityrank.graph import AttributeColumn, AttributeTable
from priorityrank.metrics import betweenness_centrality
from priorityrank.ranking import sample_shared
from priorityrank.stats import ks_two_sample

from _oracles import (
    arcs,
    betweenness_count_oracle,
    betweenness_fractional_oracle,
    harmonic,
    ks_statistic_oracle,
    random_digraph,
    sample_rows,
)

PEOPLE_CSV = (
    "age:continuous,sex:categorical\n"
    "30,female\n40,male\n25,male\n20,female\n35,female\n"
)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_worked_example_rankings(tmp_path, capsys):
    h4 = harmonic(4)
    exact_alice = np.array([1.0 / (h4 * i) for i in range(1, 5)])

    # through the CLI ranking dump
    attrs_path = tmp_path / "people.csv"
    attrs_path.write_text(PEOPLE_CSV)
    dump = tmp_path / "rankings.tsv"
    spec_doc = json.dumps({"kind": "aggregate", "weights": [["age", 1.0], ["sex", 10.0]]})
    code = cli_main(
        [
            "generate", "--model", "priority-rank", "--n", "5", "--k", "2",
            "--attrs", str(attrs_path), "--distance-spec", spec_doc,
            "--seed", "1", "--out", str(tmp_path / "g.tsv"),
            "--dump-rankings", str(dump),
        ]
    )
    capsys.readouterr()
    assert code == 0
    probs: dict[int, list[float]] = {}
    for line in dump.read_text().splitlines()[1:]:
        src, _tgt, _d, _r, p = line.split("\t")
        probs.setdefault(int(src), []).append(float(p))

    alice = np.array(probs[0])
    ok = bool(np.max(np.abs(alice - exact_alice)) < 1e-9)
    ok &= bool(np.max(np.abs(alice - np.array([0.48, 0.24, 0.16, 0.12]))) < 1e-9)

    tied_expect = {
        1: [0.3871, 0.3871, 0.1290, 0.0968],
        2: [0.3077, 0.3077, 0.3077, 0.0769],
        3: [0.4444, 0.2222, 0.2222, 0.1111],
        4: [0.4444, 0.2222, 0.2222, 0.1111],
    }
    for who, expected in tied_expect.items():
        ok &= bool(np.max(np.abs(np.array(probs[who]) - np.array(expected))) < 1e-4)

    printed_pct = {
        0: [48, 24, 16, 12],
        1: [39, 39, 13, 9],
        2: [31, 31, 31, 7],
        3: [45, 22, 22, 11],
        4: [45, 22, 22, 11],
    }
    worst = 0.0
    for who, pcts in printed_pct.items():
        gap = np.max(np.abs(np.array(probs[who]) * 100 - np.array(pcts, dtype=float)))
        worst = max(worst, float(gap))
    ok &= worst <= 1.1
    assert report(1, ok, f"five rankings reproduced, worst gap to printed percentages {worst:.2f} points")


def test_criterion_2_pmf_law():
    sums_ok = True
    for n in (2, 10, 100, 10_000):
        probs = pr.selection_probabilities(np.arange(1, n + 1))
        sums_ok &= abs(float(probs.sum()) - 1.0) < 1e-12

    # source 0's single target, drawn by the two kernels that generate runs:
    # k = 1 sits at the rejection limit of n = 5, so both serve it
    row = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
    trials = 10**6
    gen = pr.RngStream(20260810).generator
    drawn = {
        "sample_shared": sample_shared(row, np.zeros(trials), np.ones(trials), gen),
        "sort_block + sample_sorted": sample_rows(
            np.broadcast_to(row, (trials, 5)), np.zeros(trials), np.ones(trials), gen.random((trials, 5))
        ),
    }
    errs = {}
    for kernel, targets in drawn.items():
        freq = np.bincount(targets, minlength=5)[1:] / trials
        errs[kernel] = float(np.max(np.abs(freq - np.array([0.48, 0.24, 0.16, 0.12]))))
    ok = sums_ok and all(err < 0.005 for err in errs.values())
    detail = ", ".join(f"{kernel} {err:.4f}" for kernel, err in errs.items())
    assert report(2, ok, f"PMF sums exact, draw frequency error over 1e6 draws: {detail}")


def test_criterion_3_random_kind_recreates_er():
    src = pr.gen_erdos_renyi(50, 0.4, seed=11)
    src_profile = pr.NetworkProfile(src)
    degrees = DegreeSpec.resample(src.out_degrees)
    p_d, p_b, p_c, rhos, lengths = [], [], [], [], []
    for s in range(20):
        g = pr.priority_rank_generate(
            pr.DistanceContext(50, centralities=src_profile), pr.RandomDistance(), degrees, seed=1000 + s
        )
        rec = pr.compare_networks(src, g)
        p_d.append(rec.ks["degree"].p_value)
        p_b.append(rec.ks["betweenness"].p_value)
        p_c.append(rec.ks["closeness"].p_value)
        rhos.append(rec.profile_b.density)
        lengths.append(rec.profile_b.avg_path_length)
    med = (float(np.median(p_d)), float(np.median(p_b)), float(np.median(p_c)))
    rho_gap = abs(float(np.median(rhos)) - src_profile.density) / src_profile.density
    len_gap = abs(float(np.median(lengths)) - src_profile.avg_path_length) / src_profile.avg_path_length
    ok = all(m > 0.05 for m in med) and rho_gap <= 0.10 and len_gap <= 0.10
    assert report(
        3, ok,
        f"median p=(degree {med[0]:.2f}, betweenness {med[1]:.2f}, closeness {med[2]:.2f}), "
        f"density gap {rho_gap:.1%}, path-length gap {len_gap:.1%}",
    )


def test_criterion_4_clustering_triplet():
    deg4 = DegreeSpec.constant(4)
    euclid, degree, random_ = [], [], []
    for s in range(20):
        u = pr.RngStream(4000 + s).generator.uniform(0, 1, 100)
        attrs = AttributeTable([AttributeColumn("x", "continuous", tuple(u))])
        euclid.append(
            pr.NetworkProfile(
                pr.priority_rank_generate(
                    pr.DistanceContext(attrs=attrs), pr.Euclidean1D(attr="x"), deg4, seed=4100 + s
                )
            ).transitivity
        )
        degree.append(
            pr.NetworkProfile(
                pr.priority_rank_generate(
                    pr.DistanceContext(100), pr.CentralityDistance(centrality="degree"), deg4, seed=4200 + s
                )
            ).transitivity
        )
        random_.append(
            pr.NetworkProfile(
                pr.priority_rank_generate(pr.DistanceContext(100), pr.RandomDistance(), deg4, seed=4300 + s)
            ).transitivity
        )
    m_e, m_d, m_r = (float(np.mean(v)) for v in (euclid, degree, random_))
    ok_e = abs(m_e - 0.41) <= 0.10
    ok_d = abs(m_d - 0.10) <= 0.07
    ok_r = abs(m_r - 0.06) <= 0.05
    detail = (
        f"mean transitivity: euclidean-1d {m_e:.3f} (target 0.41±0.10), "
        f"degree {m_d:.3f} (0.10±0.07), random {m_r:.3f} (0.06±0.05)"
    )
    assert report(4, ok_e and ok_d and ok_r, detail)


def test_criterion_5_dgm_counts():
    expected_v = [2, 3, 6, 15, 42, 123]
    expected_e = [1, 3, 9, 27, 81, 243]
    ok = True
    for steps in range(6):
        g = pr.gen_dorogovtsev_goltsev_mendes(steps)
        ok &= g.n == expected_v[steps] and g.arc_count == 2 * expected_e[steps]
    assert report(5, ok, "vertex counts 2,3,6,15,42,123 and edge counts 3^t exact")


def test_criterion_6_disassortative_terminates():
    successes = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in range(20):
            g = pr.gen_disassortative(100, -0.4, 200, seed=s)
            if pr.NetworkProfile(pr.symmetrize(g)).assortativity < -0.4:
                successes += 1
    ok = successes >= 18
    assert report(6, ok, f"{successes}/20 seeded runs reached assortativity < -0.4")


def test_criterion_7_oracle_equivalence():
    gen = np.random.default_rng(777)
    count_exact = True
    fractional_worst = 0.0
    for _ in range(200):
        g = random_digraph(gen, int(gen.integers(2, 8)), float(gen.uniform(0.1, 0.9)))
        counts = betweenness_centrality(g, "count")
        count_exact &= counts.tolist() == betweenness_count_oracle(g).tolist()
        frac = betweenness_centrality(g, "fractional")
        oracle = betweenness_fractional_oracle(g)
        fractional_worst = max(
            fractional_worst,
            max((abs(frac[v] - float(oracle[v])) for v in range(g.n)), default=0.0),
        )

    ks_worst = 0.0
    for _ in range(1000):
        a = gen.normal(size=int(gen.integers(1, 30)))
        b = gen.normal(loc=float(gen.uniform(-1, 1)), size=int(gen.integers(1, 30)))
        if gen.random() < 0.3:
            a, b = np.round(a), np.round(b)
        ks_worst = max(ks_worst, abs(ks_two_sample(a, b).statistic - ks_statistic_oracle(a, b)))

    ols_worst = 0.0
    for _ in range(20):
        n = int(gen.integers(6, 12))
        g = random_digraph(gen, n, 0.4)
        if not arcs(g) or g.arc_count == n * (n - 1):
            continue
        attrs = AttributeTable([AttributeColumn("x", "continuous", tuple(gen.normal(size=n)))])
        ts = pr.build_training_set(g, attrs, 1.0, pr.RngStream(int(gen.integers(1 << 30))))
        spec = pr.fit_linear_regression_distance(ts)
        X = np.hstack([ts.features, np.ones((ts.features.shape[0], 1))])
        y = 1.0 - ts.labels
        ols_worst = max(ols_worst, float(np.max(np.abs(X.T @ (X @ np.array(spec.beta) - y)))))

    ok = count_exact and fractional_worst < 1e-12 and ks_worst < 1e-12 and ols_worst < 1e-8
    assert report(
        7, ok,
        f"betweenness counts exact, fractional gap {fractional_worst:.2e}, "
        f"K-S gap {ks_worst:.2e}, OLS normal-equation residual {ols_worst:.2e}",
    )


def test_criterion_8_pipeline_selections():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        random_wins = 0
        for rep in range(10):
            src = pr.gen_erdos_renyi(50, 0.4, seed=900 + rep)
            rpt = pr.recreate(src, None, pr.RecreateConfig(seed=8000 + rep))
            random_wins += rpt.winner == "random"

        ba = pr.gen_barabasi_albert(50, 3, None, seed=5)
        ba_report = pr.recreate(ba, None, pr.RecreateConfig(seed=8100))
        winner = next(f for f in ba_report.finalists if f.kind == ba_report.winner)
        ba_passes = sum(1 for r in winner.runs if r.p_degree > 0.05)

        dgm = pr.gen_dorogovtsev_goltsev_mendes(4)
        dgm_report = pr.recreate(dgm, None, pr.RecreateConfig(seed=8200))
        dgm_finalists = [f.kind for f in dgm_report.finalists]

    ok_er = random_wins >= 5
    ok_ba = ba_passes >= 10
    ok_dgm = "degree" in dgm_finalists
    detail = (
        f"random wins {random_wins}/10 on ER; winner '{ba_report.winner}' passes degree K-S "
        f"in {ba_passes}/20 runs on BA; hierarchical finalists {dgm_finalists}"
    )
    assert report(8, ok_er and ok_ba and ok_dgm, detail)


def _run_cli(argv) -> int:
    return cli_main(list(argv))


def test_criterion_9_cli_determinism(tmp_path, capsys):
    people = tmp_path / "people.csv"
    people.write_text(PEOPLE_CSV)

    def generate(tag, extra):
        out = tmp_path / f"{tag}.tsv"
        assert _run_cli(["generate", "--seed", "7", "--out", str(out)] + extra) == 0
        return out.read_bytes()

    ok = True
    for model, extra in (
        ("er", ["--model", "er", "--n", "30", "--p", "0.3"]),
        ("ws", ["--model", "ws", "--n", "30", "--k-neighbors", "3", "--p-rewire", "0.2"]),
        ("ba", ["--model", "ba", "--n", "30", "--k", "3"]),
        ("ff", ["--model", "ff", "--n", "30", "--p-burn", "0.3"]),
        ("dgm", ["--model", "dgm", "--steps", "4"]),
        ("disassortative", ["--model", "disassortative"]),
    ):
        ok &= generate(f"{model}_a", extra) == generate(f"{model}_b", extra)

    pk = ["--model", "priority-rank", "--n", "25", "--k", "3", "--distance", "degree"]
    base = generate("pk_a", pk + ["--workers", "1"])
    ok &= base == generate("pk_b", pk + ["--workers", "1"])
    ok &= base == generate("pk_c", pk + ["--workers", "4"])

    src = tmp_path / "er_a.tsv"

    def run_stdout(argv):
        assert _run_cli(argv) == 0
        return capsys.readouterr().out

    prof = run_stdout(["profile", "--in", str(src)])
    ok &= prof == run_stdout(["profile", "--in", str(src)])
    comp = run_stdout(["compare", "--a", str(src), "--b", str(tmp_path / "ba_a.tsv")])
    ok &= comp == run_stdout(["compare", "--a", str(src), "--b", str(tmp_path / "ba_a.tsv")])
    with pytest.warns(UserWarning, match="rank-deficient"):
        learn = run_stdout(["learn", "--in", str(src), "--kind", "linear-regression", "--seed", "3"])
        ok &= learn == run_stdout(["learn", "--in", str(src), "--kind", "linear-regression", "--seed", "3"])

    rec_args = ["recreate", "--in", str(src), "--runs", "3", "--pilot", "1", "--seed", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec1 = run_stdout(rec_args + ["--workers", "1"])
        rec2 = run_stdout(rec_args + ["--workers", "1"])
        rec4 = run_stdout(rec_args + ["--workers", "4"])
    ok &= rec1 == rec2 == rec4

    assert report(9, ok, "all subcommands byte-identical across reruns and worker counts {1, 4}")
