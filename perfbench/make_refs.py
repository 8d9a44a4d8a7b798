"""Record the artifact workloads' stdout references.

Run from the root of a checkout::

    python3 perfbench/make_refs.py

Each reference is ``repro-spotsim <command> --engine fast --seed S`` at the
benchmark's scale, for every archive seed a benchmark seed maps to, written
to ``perfbench/refs/<command>-<S>.txt``.  The benchmark compares every
timed run's stdout (fast *and* vector engine) against these bytes, so a
reference is never produced by the run it checks.  Re-record only when an
artifact's output is meant to change.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from workloads import ARTIFACTS, FULL, NUM_TRACE_SEEDS, Scale, reference_path, trace_seed


def record(command: str, seed: int, scale: Scale) -> Path:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", command, "--engine", "fast",
         "--seed", str(seed), "--experiments", str(scale.experiments)],
        env=env, capture_output=True, check=True,
    )
    path = reference_path(command, seed, scale.refs)
    path.write_bytes(proc.stdout)
    return path


def main() -> int:
    FULL.refs.mkdir(parents=True, exist_ok=True)
    for command in sorted({c for c, _ in ARTIFACTS.values()}):
        for seed in range(NUM_TRACE_SEEDS):
            print(record(command, trace_seed(seed), FULL))
    return 0


if __name__ == "__main__":
    sys.exit(main())
