"""Command-line interface: generate / profile / compare / learn / recreate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal or
convergence error.  Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import distance as dist_mod
from .distance import CENTRALITY_KINDS, spec_from_json_dict
from .generate import (
    DegreeSpec,
    gen_barabasi_albert,
    gen_disassortative,
    gen_dorogovtsev_goltsev_mendes,
    gen_erdos_renyi,
    gen_forest_fire,
    gen_watts_strogatz,
    priority_rank_generate,
)
from .graph import (
    Graph,
    GraphFormatError,
    load_attributes,
    load_edge_list,
    out_degree_sequence,
    save_attributes,
    save_edge_list,
    symmetrize,
)
from .metrics import ConvergenceError, NetworkProfile, network_profile
from .ranking import competition_ranks, selection_probabilities, sort_block
from .recreate import (
    RecreateConfig,
    _check_alpha,
    compare_networks,
    generate_synthetic_attributes,
    recreate,
)
from .stats import RngStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DEFAULT_DISTANCES = ("random", *CENTRALITY_KINDS)
WORKERS_HELP = "accepted and ignored; kept so older command lines still run"
# one --dump-rankings line; %r is repr, so floats round-trip exactly
_RANKING_LINE = "%d\t%d\t%r\t%d\t%r\n"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        # the law of secrets.randbits(63), whose import costs about 4 MB and 8 ms
        seed = int.from_bytes(os.urandom(8), "little") >> 1
        print(f"seed: {seed}", file=sys.stderr)
    elif seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    return seed


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise GraphFormatError(f"no such file: {path}")
    return p.read_text(encoding="utf-8")


def _load_graph(path: str, do_symmetrize: bool = False) -> Graph:
    g = load_edge_list(_read_file(path))
    return symmetrize(g) if do_symmetrize else g


def _write_json(doc, path: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and shared by every later one:
    ``parse_args`` leaves it unchanged."""
    parser = _Parser(prog="priorityrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a network")
    gen.add_argument(
        "--model",
        required=True,
        choices=["priority-rank", "er", "ws", "ba", "ff", "dgm", "disassortative"],
    )
    gen.add_argument("--out", required=True, help="output edge-list path")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--workers", type=int, help=WORKERS_HELP)
    gen.add_argument("--n", type=int, help="vertex count")
    gen.add_argument("--attrs", help="attribute CSV for priority-rank")
    gen.add_argument("--attrs-out", help="write the attribute table used")
    gen.add_argument("--k", type=int, help="constant out-degree (priority-rank, ba)")
    gen.add_argument("--degrees-from", help="resample out-degrees from this edge list")
    gen.add_argument("--distance", choices=DEFAULT_DISTANCES, default="random")
    gen.add_argument("--distance-spec", help="distance JSON document or path")
    gen.add_argument("--reference", help="edge list supplying centrality context")
    gen.add_argument("--dump-rankings", help="write ranking TSV (priority-rank)")
    gen.add_argument("--p", type=float, help="edge probability (er)")
    gen.add_argument("--k-neighbors", type=int, help="ring neighbours (ws)")
    gen.add_argument("--p-rewire", type=float, help="rewiring probability (ws)")
    gen.add_argument("--n0", type=int, help="seed clique size (ba)")
    gen.add_argument("--p-burn", type=float, help="burn probability (ff)")
    gen.add_argument("--ambassadors", type=int, default=1, help="ambassadors (ff)")
    gen.add_argument("--steps", type=int, help="growth steps (dgm)")
    gen.add_argument("--stop-threshold", type=float, default=-0.4)
    gen.add_argument("--max-rounds", type=int, default=200)

    prof = sub.add_parser("profile", help="network metrics as JSON")
    prof.add_argument("--in", dest="infile", required=True)
    prof.add_argument("--out")
    prof.add_argument("--symmetrize", action="store_true")

    comp = sub.add_parser("compare", help="two-sample comparison as JSON")
    comp.add_argument("--a", required=True)
    comp.add_argument("--b", required=True)
    comp.add_argument("--out")
    comp.add_argument("--alpha", type=float, default=0.05)
    comp.add_argument("--symmetrize", action="store_true")

    learn = sub.add_parser("learn", help="fit a distance function to a network")
    learn.add_argument("--in", dest="infile", required=True)
    learn.add_argument("--attrs")
    learn.add_argument(
        "--kind",
        required=True,
        choices=["linear-regression", "naive-bayes"],
    )
    learn.add_argument("--negative-ratio", type=float, default=1.0)
    learn.add_argument("--seed", type=int)
    learn.add_argument("--out")
    learn.add_argument("--symmetrize", action="store_true")

    rec = sub.add_parser("recreate", help="fit, race, and regenerate a network family")
    rec.add_argument("--in", dest="infile", required=True)
    rec.add_argument("--attrs")
    rec.add_argument("--runs", type=int, default=20)
    rec.add_argument("--pilot", type=int, default=3)
    rec.add_argument("--seed", type=int)
    rec.add_argument("--workers", type=int, help=WORKERS_HELP)
    rec.add_argument("--report", help="report JSON path (default stdout)")
    rec.add_argument("--emit-best", help="directory for the winner's edge lists")
    rec.add_argument("--negative-ratio", type=float, default=1.0)
    rec.add_argument("--alpha", type=float, default=0.05)
    rec.add_argument("--symmetrize", action="store_true")
    return parser


def _reject_constant(token: str):
    raise GraphFormatError(f"bad distance spec JSON: {token} is not a finite number")


def _distance_spec_from_args(args):
    if args.distance_spec:
        raw = args.distance_spec
        # inline JSON can be longer than a file name may be: never look it up
        if not raw.lstrip().startswith(("{", "[")) and Path(raw).exists():
            raw = _read_file(raw)
        try:
            doc = json.loads(raw, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"bad distance spec JSON: {exc}") from exc
        return spec_from_json_dict(doc)
    if args.distance == "random":
        return dist_mod.RandomDistance()
    return dist_mod.CentralityDistance(centrality=args.distance)


def _dump_rankings(path: str, spec, ctx) -> None:
    """TSV of every source's ranking: target order, distance, rank, probability.
    Each source's row is sorted by ``sort_block`` on its own, so memory
    stays O(n)."""
    n = ctx.n
    with open(path, "w", encoding="utf-8") as out:
        out.write("source\ttarget\tdistance\trank\tprobability\n")
        for i in range(n):
            source = np.array([i])
            ranked = sort_block(spec.rows(ctx, source), source)
            ranks = competition_ranks(ranked.ordered[0])
            fields = zip(
                repeat(i),
                ranked.perm[0].tolist(),
                ranked.ordered[0].tolist(),
                ranks.tolist(),
                selection_probabilities(ranks).tolist(),
            )
            out.write(_RANKING_LINE * (n - 1) % tuple(chain.from_iterable(fields)))


def _cmd_generate(args) -> int:
    seed = _resolve_seed(args.seed)
    model = args.model
    if model == "er":
        if args.n is None or args.p is None:
            raise UsageError("er needs --n and --p")
        g = gen_erdos_renyi(args.n, args.p, seed)
    elif model == "ws":
        if args.n is None or args.k_neighbors is None or args.p_rewire is None:
            raise UsageError("ws needs --n, --k-neighbors, and --p-rewire")
        g = gen_watts_strogatz(args.n, args.k_neighbors, args.p_rewire, seed)
    elif model == "ba":
        if args.n is None or args.k is None:
            raise UsageError("ba needs --n and --k")
        g = gen_barabasi_albert(args.n, args.k, args.n0, seed)
    elif model == "ff":
        if args.n is None or args.p_burn is None:
            raise UsageError("ff needs --n and --p-burn")
        g = gen_forest_fire(args.n, args.p_burn, args.ambassadors, seed)
    elif model == "dgm":
        if args.steps is None:
            raise UsageError("dgm needs --steps")
        g = gen_dorogovtsev_goltsev_mendes(args.steps)
    elif model == "disassortative":
        g = gen_disassortative(
            args.n if args.n is not None else 100,
            args.stop_threshold,
            args.max_rounds,
            seed,
        )
    else:  # priority-rank
        if args.n is None:
            raise UsageError("priority-rank needs --n")
        attrs = load_attributes(_read_file(args.attrs), expected_n=args.n) if args.attrs else None
        spec = _distance_spec_from_args(args)
        if attrs is None and spec.requires_attributes:
            attrs = generate_synthetic_attributes(args.n, RngStream(seed).child(9).spawn_seed())
        if args.degrees_from:
            degrees = DegreeSpec.resample(out_degree_sequence(_load_graph(args.degrees_from)))
        elif args.k is not None:
            degrees = DegreeSpec.constant(args.k)
        else:
            raise UsageError("priority-rank needs --k or --degrees-from")
        if args.dump_rankings and spec.requires_centrality and not args.reference:
            raise UsageError("--dump-rankings with a centrality kind needs --reference")
        centralities = None
        if args.reference:
            reference = _load_graph(args.reference)
            if reference.n != args.n:
                raise ValueError(f"reference graph has n={reference.n}, context n={args.n}")
            # the class: benchmarks/probe.py counts network_profile as a sweep
            centralities = NetworkProfile(reference)
        # the pass and the dump share one context: its lazy vectors and caches
        ctx = dist_mod.DistanceContext(n=args.n, attrs=attrs, centralities=centralities)
        g = priority_rank_generate(ctx, spec, degrees, seed)
        if args.dump_rankings:
            _dump_rankings(args.dump_rankings, spec, ctx)
        if args.attrs_out and attrs is not None:
            Path(args.attrs_out).write_text(save_attributes(attrs), encoding="utf-8")
    Path(args.out).write_text(save_edge_list(g), encoding="utf-8")
    return EXIT_OK


def _cmd_profile(args) -> int:
    g = _load_graph(args.infile, args.symmetrize)
    _write_json(network_profile(g).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        _check_alpha(args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ga = _load_graph(args.a, args.symmetrize)
    gb = _load_graph(args.b, args.symmetrize)
    record = compare_networks(ga, gb, alpha=args.alpha)
    _write_json(record.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_learn(args) -> int:
    try:
        dist_mod._check_negative_ratio(args.negative_ratio)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    seed = _resolve_seed(args.seed)
    g = _load_graph(args.infile, args.symmetrize)
    if args.attrs:
        attrs = load_attributes(_read_file(args.attrs), expected_n=g.n)
    else:
        attrs = generate_synthetic_attributes(g.n, RngStream(seed).child(0).spawn_seed())
    ts = dist_mod.build_training_set(
        g, attrs, negative_ratio=args.negative_ratio, rng=RngStream(seed).child(1)
    )
    if args.kind == "linear-regression":
        spec = dist_mod.fit_linear_regression_distance(ts)
    else:
        spec = dist_mod.fit_naive_bayes_distance(ts)
    _write_json(spec.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_recreate(args) -> int:
    seed = _resolve_seed(args.seed)
    try:
        config = RecreateConfig(
            runs=args.runs,
            pilot_runs=args.pilot,
            seed=seed,
            negative_ratio=args.negative_ratio,
            alpha=args.alpha,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    g = _load_graph(args.infile, args.symmetrize)
    attrs = load_attributes(_read_file(args.attrs), expected_n=g.n) if args.attrs else None
    report = recreate(g, attrs, config)
    _write_json(report.to_json_dict(), args.report)
    if args.emit_best:
        directory = Path(args.emit_best)
        directory.mkdir(parents=True, exist_ok=True)
        for index, graph in enumerate(report.winner_graphs):
            (directory / f"run_{index:02d}.tsv").write_text(
                save_edge_list(graph), encoding="utf-8"
            )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "generate": _cmd_generate,
        "profile": _cmd_profile,
        "compare": _cmd_compare,
        "learn": _cmd_learn,
        "recreate": _cmd_recreate,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
