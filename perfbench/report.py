"""Print every benchmark metric for every workload, with its spread.

Run from the root of a checkout::

    python3 perfbench/report.py                 # 3 seeds per workload
    python3 perfbench/report.py --seeds 10      # the acceptance spread check

For each workload (the gated ones of ``BENCHMARK.json`` plus the ungated
``table2-vector``) this runs ``run.py`` untraced once per seed (seeds
``0..N-1``) and traced once (seed 0), then prints:

* every end-to-end metric and every advisor-phase metric as median, first
  and third quartile, the number of runs and the number of timed
  processes behind them, the spread ``(q3 - q1) / median`` and, for
  gated metrics, the bound from ``BENCHMARK.json``;
* ``failed_share``, failed over attempted operations;
* the per-layer metrics of the traced run and its overhead;
* the ungated diagnostics: ``table2`` vector-over-fast ``wall_s`` with
  its base (ROADMAP target <= 1.0), the oracle's share of the traced
  ``table2-vector`` wall time (target <= 10%) and ``oracle.rebuild_share``
  on each engine.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ADVISOR_PHASES, END_TO_END, PER_LAYER, RUNNABLE, WORKLOADS

RUN = Path(__file__).with_name("run.py")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` invocation, parsed: result line plus diagnostics."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# advisor "):
            out["advisor"] = json.loads(line[len("# advisor "):])
        elif m := re.match(r"# workload=.* samples=(\d+)", line):
            out["samples"] = int(m.group(1))
        elif m := re.match(r"# oracle_share_of_traced_wall=([\d.]+)", line):
            out["oracle_share"] = float(m.group(1))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def row(name: str, unit: str, values: list[float], samples: int, bound) -> str:
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else float("nan")
    flag = ""
    if bound is not None:
        flag = f"  bound {bound:.2f}" + ("  SPREAD ABOVE BOUND" if spread > bound else "")
    return (f"  {name:<16} {unit:<6} median {med:>11.5g}  q1 {q1:>11.5g}  "
            f"q3 {q3:>11.5g}  runs {len(values):>2}  processes {samples:>3}  "
            f"spread {spread:6.3f}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--workloads", nargs="+", default=list(RUNNABLE),
                        choices=RUNNABLE)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    walls: dict[str, float] = {}
    layers: dict[str, dict] = {}
    for workload in args.workloads:
        runs = [invoke(workload, seed, seconds, 0) for seed in range(args.seeds)]
        samples = sum(r["samples"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        gated = workload in WORKLOADS
        print(f"{workload}{'' if gated else ' (ungated diagnostic workload)'}: "
              f"failed_share {failed / attempted:.4g} ({failed} of {attempted} operations)")
        for name, unit in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(row(name, unit, values, samples, bounds.get(name) if gated else None))
        walls[workload] = statistics.median(r["metrics"]["wall_s"]["value"] for r in runs)
        if workload == "advisor":
            for name, unit in ADVISOR_PHASES.items():
                values = [r["advisor"][name] for r in runs]
                print(row(name, unit, values, samples, None))
            print(f"  advise latency samples per process: {runs[0]['advisor']['advise_samples']}")
        traced = invoke(workload, 0, seconds, 1)
        layers[workload] = traced
        print(f"  per-layer (traced run, seed 0; oracle share of traced wall "
              f"{traced['oracle_share']:.1%}):")
        for name, unit in PER_LAYER.items():
            print(f"    {name:<28} {traced['metrics'][name]['value']:>14.6g} {unit}")

    print("diagnostics (ungated):")
    if {"table2-fast", "table2-vector"} <= walls.keys():
        fast, vec = walls["table2-fast"], walls["table2-vector"]
        print(f"  table2 vector/fast wall_s {vec / fast:.3f} "
              f"(vector {vec:.3f} s over fast {fast:.3f} s; target <= 1.0)")
    if "table2-vector" in layers:
        print(f"  oracle share of traced table2-vector wall_s "
              f"{layers['table2-vector']['oracle_share']:.1%} (target <= 10%)")
    for workload, traced in layers.items():
        m = traced["metrics"]
        print(f"  {workload}: oracle.rebuild_share "
              f"{m['oracle.rebuild_share']['value']:.3f}, tracing overhead "
              f"{m['trace.overhead']['value']:.3f}x traced/untraced wall_s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
