"""priorityrank benchmark: the generate, profile and recreate CLI paths.

Run from the repository root:

    python3 benchmarks/run.py --workload generate --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload recreate --seed 1 --seconds 20 --trace 1

Each run builds its workload's input files from ``--seed``, then calls
``priorityrank.cli.main(argv)`` in this process, pass after pass, until
``--seconds`` have elapsed.  Every op's output is checked afterwards, outside
the timed phase.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
adds one pass under the layer probe and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object.  See
README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7

# The gated metrics count CPU time, which hypervisor steal does not inflate;
# the wall-time ones are printed beside them.
END_TO_END = {"ops_per_cpu_s": "1/s", "op_cpu_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
WALL = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_wall_s": "s"}
TRACE_EXTRAS = {
    "recreate.fit_ks": "ks",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
    "trace.child_cpu_s": "s",
    "trace.threads": "count",
}


def layer_unit(name: str) -> str:
    if name in TRACE_EXTRAS:
        return TRACE_EXTRAS[name]
    if name.endswith("_s"):
        return "s"
    if name == "graph.io_bytes":
        return "bytes"
    if name == "metrics.sweep_sources":
        return "computed_count"
    return "count"


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "src_lines": src_lines,
    }


def time_setup(build, seed: int, size: dict, work: Path):
    """Import the package in a fresh interpreter, then build and write the
    inputs; repeated.  Returns the inputs and (CPU, wall) seconds per repeat."""
    samples = []
    inputs = None
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import priorityrank"],
                       check=True, timeout=120)
        inputs = build(rep_dir, seed, size)
        samples.append((cpu_seconds() - cpu0, time.perf_counter() - t0))
    return inputs, samples


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_op(cli, op) -> dict:
    sink = io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return {"op": op, "wall": wall, "cpu": cpu, "code": code, "error": error or (sink.getvalue().strip() or None),
            "warnings": [f"{w.category.__name__}: {str(w.message).split(';')[0]}" for w in caught]}


def run_passes(cli, make_ops, first_pass: int, seconds: float | None):
    """Whole passes until ``seconds`` have elapsed (one pass when None)."""
    records, pass_walls = [], []
    start = time.perf_counter()
    index = first_pass
    while True:
        t0 = time.perf_counter()
        records += [dict(run_op(cli, op), pass_index=index) for op in make_ops(index)]
        pass_walls.append(time.perf_counter() - t0)
        index += 1
        if seconds is None or time.perf_counter() - start >= seconds:
            return records, pass_walls, time.perf_counter() - start


def check_outputs(records) -> dict[str, list[str]]:
    """Check every op's output: the first of each op in full, every later one
    for byte-identity with it (same inputs and seed)."""
    first: dict[str, tuple[bytes, list[str]]] = {}
    outputs_by_pass: dict[int, dict] = {}
    for rec in records:
        outputs_by_pass.setdefault(rec["pass_index"], {})[rec["op"].name] = rec["op"].out
    problems = {}
    for rec in records:
        op = rec["op"]
        key = f"{rec['pass_index']}:{op.name}"
        if rec["code"] != 0:
            problems[key] = [f"{op.name}: exit code {rec['code']}: {rec['error']}"]
            continue
        if not op.out.is_file():
            problems[key] = [f"{op.name}: no output file"]
            continue
        data = op.out.read_bytes()
        if op.name not in first:
            try:
                found = op.check(op.out, outputs_by_pass[rec["pass_index"]])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                found = [f"{op.name}: output check raised {type(exc).__name__}: {exc}"]
            first[op.name] = (data, found)
            problems[key] = found
        elif data != first[op.name][0]:
            problems[key] = [f"{op.name}: output differs from an earlier pass with the same inputs and seed"]
        else:
            problems[key] = first[op.name][1]
    return problems


def mix_findings(workload: str, m: dict, layer: dict[str, float]) -> list[str]:
    """Whether the traced pass shows the mix the workload was chosen for;
    ``layer`` maps each layer to its total self time."""
    wall = m["trace.pass_s"]
    bad = []
    if workload == "profile":
        if layer["metrics"] <= 0.5 * wall:
            bad.append(f"metrics self time {layer['metrics']:.2f} s is not most of {wall:.2f} s")
        if m["ranking.builds"] or m["ranking.draws"]:
            bad.append("ranking did work")
    elif workload == "generate":
        share = layer["ranking"] + layer["distance"] + layer["generate"]
        if share <= 0.5 * wall:
            bad.append(f"ranking+distance+generate self time {share:.2f} s is not most of {wall:.2f} s")
        if m["metrics.sweep_sources"]:
            bad.append("a path sweep ran")
    elif workload == "recreate":
        bad += [f"layer {name} shows no work" for name, value in layer.items() if value <= 0]
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("generate", "profile", "recreate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes run the same ops in about a second (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "priorityrank" / "__init__.py").is_file():
        print(f"error: no priorityrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    build, make_ops = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    facts = machine_facts(args.seed)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs, setup_samples = time_setup(build, args.seed, size, work)
        import priorityrank.cli as cli

        def ops_for(pass_index):
            return make_ops(inputs, work, pass_index, args.seed, size)

        records, pass_walls, elapsed = run_passes(cli, ops_for, 0, args.seconds)
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "ops_per_cpu_s": len(records) / sum(r["cpu"] for r in records),
            "op_cpu_p50_s": statistics.median(r["cpu"] for r in records),
            "setup_s": statistics.median(cpu for cpu, _ in setup_samples),
            "peak_rss_mb": max(usage, children) / 1024.0,
        }
        wall = {
            "ops_per_s": len(records) / elapsed,
            "op_p50_s": statistics.median(r["wall"] for r in records),
            "setup_wall_s": statistics.median(w for _, w in setup_samples),
        }
        samples = {"ops_per_cpu_s": len(records), "op_cpu_p50_s": len(records), "setup_s": len(setup_samples),
                   "peak_rss_mb": 1, "ops_per_s": len(records), "op_p50_s": len(records),
                   "setup_wall_s": len(setup_samples)}
        layer, unseen, mix = {}, [], []
        if args.trace:
            from probe import PER_LAYER, Probe

            probe = Probe()
            probe.install()
            try:
                traced, traced_walls, _ = run_passes(cli, ops_for, len(pass_walls), None)
            finally:
                probe.remove()
            records += traced
            layer = probe.layer_metrics()
            layer["trace.pass_s"] = traced_walls[0]
            layer["trace.untraced_pass_s"] = statistics.median(pass_walls)
            layer["trace.overhead"] = traced_walls[0] / layer["trace.untraced_pass_s"]
            layer["trace.unattributed_s"] = traced_walls[0] - probe.root_time(threading.get_ident())
            layer["trace.child_cpu_s"] = probe.child_cpu_s
            layer["trace.threads"] = probe.threads()
            unseen = list(probe.problems)
            unseen += [f"layer {name}: no spans in this workload"
                       for name, self_s in probe.layer_self.items() if not self_s]
            if probe.child_cpu_s > 0:
                unseen.append(f"child processes used {probe.child_cpu_s:.3f} s CPU that no span measured")
            mix = mix_findings(args.workload, layer, probe.layer_self)
            OUT_DIR.mkdir(exist_ok=True)
            probe.write_spans(OUT_DIR / f"spans_{args.workload}_{args.size}_seed{args.seed}.jsonl")

        problems = check_outputs(records)
        failed = sum(1 for found in problems.values() if found)
        scores = {rec["op"].name: rec["op"].score(rec["op"].out) for rec in records
                  if rec["op"].score and not problems[f"{rec['pass_index']}:{rec['op'].name}"]}
        if args.trace:
            layer["recreate.fit_ks"] = statistics.fmean(scores.values()) if scores else 0.0
            missing = [k for k in PER_LAYER + tuple(TRACE_EXTRAS) if k not in layer]
            if missing:
                raise RuntimeError(f"per-layer metrics not computed: {missing}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    walls_by_op: dict[str, list[float]] = {}
    for rec in records:
        walls_by_op.setdefault(rec["op"].name, []).append(rec["wall"])
    warned = Counter(w for rec in records for w in rec["warnings"])
    print(f"# priorityrank benchmark: workload={args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"# facts: {json.dumps(facts)}")
    print(f"# ops: {len(records)} attempted, {failed} failed")
    for name, walls in walls_by_op.items():
        print(f"#   {name}: median {statistics.median(walls):.4f} s over {len(walls)} calls")
    for message, count in sorted(warned.items()):
        print(f"#   captured warning x{count}: {message}")
    for key, found in problems.items():
        for problem in found:
            print(f"#   FAILED {key}: {problem}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {END_TO_END[name]} (n={samples[name]})")
    for name, value in wall.items():
        print(f"# {name} = {value:.6g} {WALL[name]} (n={samples[name]}, wall time, not gated)")
    print(f"# error_rate = {failed / len(records):.6g} ratio (n={len(records)})")
    if scores:
        print(f"# fit_ks = {statistics.fmean(scores.values()):.6g} ks (mean winner K-S over {len(scores)} ops)")
    for name, value in layer.items():
        note = " (computed from wrapped calls)" if name == "metrics.sweep_sources" else ""
        print(f"# {name} = {value:.6g} {layer_unit(name)}{note}")
    if args.trace:
        print(f"# trace overhead: traced pass {layer['trace.pass_s']:.3f} s vs untraced "
              f"{layer['trace.untraced_pass_s']:.3f} s (x{layer['trace.overhead']:.3f})")
        for item in unseen:
            print(f"# unseen: {item}")
        print("# mix: as intended" if not mix else "# mix NOT as intended: " + "; ".join(mix))

    reported = layer if args.trace else metrics
    units = {name: layer_unit(name) for name in layer} if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{args.workload}_{args.size}_trace{args.trace}_seed{args.seed}.json").write_text(
        json.dumps({"facts": facts, "workload": args.workload, "size": args.size, "result": result,
                    "samples": samples, "end_to_end": metrics, "wall": wall,
                    "fit_ks": statistics.fmean(scores.values()) if scores else None,
                    "op_walls": walls_by_op, "warnings": dict(warned), "unseen": unseen, "mix": mix,
                    "problems": {k: v for k, v in problems.items() if v}}, indent=2) + "\n",
        encoding="utf-8")
    if mix and args.size == "full":
        # Toy sizes are too small for the shares to mean anything, so only a
        # full-size traced run fails on the wrong mix.
        print("error: the traced pass does not show the workload's intended mix", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
