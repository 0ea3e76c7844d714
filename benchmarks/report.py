"""Run every workload untraced, each in its own process, and print one table.

    python3 benchmarks/report.py --seed 1

Each workload runs for ``run_seconds`` of BENCHMARK.json.  The table shows
every end-to-end metric with its unit, the wall-time forms, ``error_rate``
(failed / attempted ops) and, on ``recreate``, ``fit_ks``.  Values are read
from each run's BENCH copy under ``.bench_out/``.  Exits non-zero if a
workload run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import OUT_DIR, ROOT, WALL


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    rows += list(WALL.items()) + [("error_rate", "ratio"), ("fit_ks", "ks")]
    table = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        bench = json.loads((OUT_DIR / f"BENCH_{name}_full_trace0_seed{args.seed}.json").read_text(encoding="utf-8"))
        column = dict(bench["end_to_end"], **bench["wall"])
        column["error_rate"] = bench["result"]["failed"] / bench["result"]["attempted"]
        if bench["fit_ks"] is not None:
            column["fit_ks"] = bench["fit_ks"]
        table[name] = column

    width = max(len(name) for name, _ in rows)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{name:>14}" for name in names))
    for metric, unit in rows:
        cells = "".join(f"{table[name][metric]:>14.6g}" if metric in table[name] else f"{'-':>14}"
                        for name in names)
        print(f"{metric:<{width}}  {unit:<6}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
