"""The three benchmark workloads: their inputs, their CLI ops and their checks.

Inputs are built with the benchmark's own numpy code from the run seed, never
with priorityrank's generators, so the program under test sees the same files
on every commit.  Each op is one ``priorityrank`` CLI call; every pass of a
workload repeats the same ops with the same seeds, so the outputs of all
passes must be byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

# Sizes per workload.  "full" is what the benchmark measures; "toy" keeps the
# same ops at sizes that finish in about a second, for the smoke test.
SIZES = {
    "full": {
        "generate": {"n": 2000, "mean_out": 5.0, "k": 10},
        "profile": {"er_n": 800, "er_mean_out": 8.0, "ba_n": 800, "ba_k": 3, "dgm_steps": 7},
        "recreate": {"ba_n": 150, "ba_k": 3, "dgm_steps": 5, "runs": 5, "pilot": 2},
    },
    "toy": {
        "generate": {"n": 60, "mean_out": 3.0, "k": 4},
        "profile": {"er_n": 40, "er_mean_out": 3.0, "ba_n": 40, "ba_k": 2, "dgm_steps": 3},
        "recreate": {"ba_n": 30, "ba_k": 2, "dgm_steps": 3, "runs": 2, "pilot": 1},
    },
}

RECREATE_WORKERS = 2  # the box has two cores; the only workload with parallel jobs


@dataclass
class Op:
    """One CLI call and the check of its output file.

    ``check(out, outputs)`` returns a list of problems; ``outputs`` maps the
    names of the ops of the same pass to their output files.
    """

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path, dict], list[str]]
    score: Callable[[Path], float] | None = None


@dataclass
class Inputs:
    files: dict[str, Path]
    graphs: dict[str, tuple[int, np.ndarray]] = field(default_factory=dict)


# -- input builders ---------------------------------------------------------


def er_arcs(n: int, mean_out: float, rng: np.random.Generator) -> np.ndarray:
    """Directed G(n, p) with p = mean_out / (n - 1), as sorted (m, 2) arcs."""
    mat = rng.random((n, n)) < mean_out / (n - 1)
    np.fill_diagonal(mat, False)
    return np.argwhere(mat)


def ba_arcs(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Preferential attachment from a k-clique; each link is a symmetric arc pair."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    ends = [v for e in edges for v in e] or list(range(k))
    for v in range(k, n):
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(chosen):
            edges.append((v, t))
            ends += [v, t]
    return _symmetric(edges)


def dgm_graph(steps: int) -> tuple[int, np.ndarray]:
    """Dorogovtsev-Goltsev-Mendes pseudo-fractal: every step puts a new vertex
    on both ends of every edge."""
    edges = [(0, 1)]
    n = 2
    for _ in range(steps):
        new = []
        for a, b in edges:
            new += [(a, n), (b, n)]
            n += 1
        edges += new
    return n, _symmetric(edges)


def _symmetric(edges) -> np.ndarray:
    arcs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    both = np.unique(np.vstack([arcs, arcs[:, ::-1]]), axis=0)
    return both


def write_edge_list(path: Path, n: int, arcs: np.ndarray) -> None:
    lines = [f"n={n}"] + [f"{a} {b}" for a, b in arcs.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_attributes(path: Path, n: int, rng: np.random.Generator) -> None:
    """The four attribute kinds the re-creation pipeline races over."""
    normal = rng.normal(size=n)
    order = np.argsort(np.argsort(normal, kind="stable"), kind="stable")
    ordinal = np.minimum(order * 10 // n, 9)
    labels = rng.integers(0, 5, size=n)
    lognormal = rng.lognormal(0.0, 1.0, size=n)
    exponential = rng.exponential(1.0, size=n)
    lines = ["ordinal:ordinal,category:categorical,lognormal:continuous,exponential:continuous"]
    for o, c, x, y in zip(ordinal.tolist(), labels.tolist(), lognormal.tolist(), exponential.tolist()):
        lines.append(f"{float(o)!r},c{c},{x!r},{y!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _op_seed(seed: int, index: int) -> str:
    return str(int(_rng(seed, 1000, index).integers(1, 2**31)))


# -- generate ---------------------------------------------------------------

AGGREGATE_SPEC = json.dumps(
    {
        "kind": "aggregate",
        "weights": [["ordinal", 1.0], ["category", 1.0], ["lognormal", 1.0], ["exponential", 1.0]],
    }
)


def build_generate(work: Path, seed: int, size: dict) -> Inputs:
    n = size["n"]
    arcs = er_arcs(n, size["mean_out"], _rng(seed, 1))
    ref, attrs = work / "reference.tsv", work / "attrs.csv"
    write_edge_list(ref, n, arcs)
    write_attributes(attrs, n, _rng(seed, 2))
    return Inputs(files={"reference": ref, "attrs": attrs}, graphs={"reference": (n, arcs)})


def ops_generate(inputs: Inputs, work: Path, pass_index: int, seed: int, size: dict) -> list[Op]:
    n, k = size["n"], size["k"]
    ref, attrs = str(inputs.files["reference"]), str(inputs.files["attrs"])
    ref_outdeg = set(np.bincount(inputs.graphs["reference"][1][:, 0], minlength=n).tolist())
    spec = work / f"p{pass_index}_learn.json"
    base = ["generate", "--model", "priority-rank", "--n", str(n), "--workers", "1"]

    def out(name):
        return work / f"p{pass_index}_{name}.tsv"

    def constant(path, _):
        return reference.check_out_degrees(path, n, {k}, exact=True)

    def learned(path, _):
        return reference.check_out_degrees(path, n, ref_outdeg, exact=False)

    return [
        Op("learn", ["learn", "--in", ref, "--attrs", attrs, "--kind", "naive-bayes",
                     "--seed", _op_seed(seed, 0), "--out", str(spec)],
           spec, lambda path, _: reference.check_learned_spec(path, "naive_bayes")),
        Op("gen_random", base + ["--k", str(k), "--seed", _op_seed(seed, 1), "--out", str(out("random"))],
           out("random"), constant),
        Op("gen_aggregate", base + ["--k", str(k), "--attrs", attrs, "--distance-spec", AGGREGATE_SPEC,
                                    "--seed", _op_seed(seed, 2), "--out", str(out("aggregate"))],
           out("aggregate"), constant),
        Op("gen_degree", base + ["--k", str(k), "--distance", "degree", "--reference", ref,
                                 "--seed", _op_seed(seed, 3), "--out", str(out("degree"))],
           out("degree"), constant),
        Op("gen_learned", base + ["--attrs", attrs, "--distance-spec", str(spec), "--degrees-from", ref,
                                  "--seed", _op_seed(seed, 4), "--out", str(out("learned"))],
           out("learned"), learned),
    ]


# -- profile ----------------------------------------------------------------


def build_profile(work: Path, seed: int, size: dict) -> Inputs:
    graphs = {
        "er": (size["er_n"], er_arcs(size["er_n"], size["er_mean_out"], _rng(seed, 1))),
        "ba": (size["ba_n"], ba_arcs(size["ba_n"], size["ba_k"], _rng(seed, 2))),
        "dgm": dgm_graph(size["dgm_steps"]),
    }
    files = {}
    for name, (n, arcs) in graphs.items():
        files[name] = work / f"{name}.tsv"
        write_edge_list(files[name], n, arcs)
    return Inputs(files=files, graphs=graphs)


def ops_profile(inputs: Inputs, work: Path, pass_index: int, seed: int, size: dict) -> list[Op]:
    ops = []
    for name in ("er", "ba", "dgm"):
        n, arcs = inputs.graphs[name]
        out = work / f"p{pass_index}_profile_{name}.json"
        ops.append(Op(f"profile_{name}", ["profile", "--in", str(inputs.files[name]), "--out", str(out)], out,
                      lambda path, _, n=n, arcs=arcs: reference.check_profile(path, n, arcs, seed)))
    out = work / f"p{pass_index}_compare.json"
    ops.append(Op("compare", ["compare", "--a", str(inputs.files["er"]), "--b", str(inputs.files["ba"]),
                              "--out", str(out)], out,
                  lambda path, outputs: reference.check_compare(path, outputs["profile_er"], outputs["profile_ba"])))
    return ops


# -- recreate ---------------------------------------------------------------


def build_recreate(work: Path, seed: int, size: dict) -> Inputs:
    graphs = {
        "ba": (size["ba_n"], ba_arcs(size["ba_n"], size["ba_k"], _rng(seed, 1))),
        "dgm": dgm_graph(size["dgm_steps"]),
    }
    files = {}
    for index, (name, (n, arcs)) in enumerate(graphs.items()):
        files[name] = work / f"{name}.tsv"
        write_edge_list(files[name], n, arcs)
        files[f"{name}_attrs"] = work / f"{name}_attrs.csv"
        write_attributes(files[f"{name}_attrs"], n, _rng(seed, 2, index))
    return Inputs(files=files, graphs=graphs)


def ops_recreate(inputs: Inputs, work: Path, pass_index: int, seed: int, size: dict) -> list[Op]:
    ops = []
    for index, name in enumerate(("ba", "dgm")):
        n, arcs = inputs.graphs[name]
        out = work / f"p{pass_index}_recreate_{name}.json"
        argv = ["recreate", "--in", str(inputs.files[name]), "--attrs", str(inputs.files[f"{name}_attrs"]),
                "--runs", str(size["runs"]), "--pilot", str(size["pilot"]),
                "--workers", str(RECREATE_WORKERS), "--seed", _op_seed(seed, index), "--report", str(out)]
        ops.append(Op(f"recreate_{name}", argv, out,
                      lambda path, _, n=n, arcs=arcs: reference.check_recreate(path, n, arcs, size["runs"], size["pilot"]),
                      score=reference.winner_statistic))
    return ops


WORKLOADS = {
    "generate": (build_generate, ops_generate),
    "profile": (build_profile, ops_profile),
    "recreate": (build_recreate, ops_recreate),
}
