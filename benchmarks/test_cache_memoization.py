"""Cross-run memoization wins: batched bid axis + warm run cache.

Two paper-shaped workloads gate the memoization layers added on top
of the engine:

* a Figure-5-style bid sweep, where the batched bid-axis executor
  (:meth:`~repro.experiments.runner.ExperimentRunner.run_bid_axis`)
  collapses bid-invariant runs into availability-equivalence classes,
  and
* a Figure-4-style policy sweep rerun against a warm on-disk run
  cache (:mod:`repro.experiments.cache`), where every cell is a
  content-addressed hit and simulation is skipped entirely.

Both comparisons assert the memoized records are identical to the
unmemoized baseline before timing anything, and both write their
measured speedups into ``BENCH_cache.json`` at the repo root (keys
``speedup_bid_axis`` and ``speedup_warm_rerun``), which
``check_regression.py`` compares against the committed baseline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.app.workload import paper_experiment
from repro.experiments.runner import ExperimentRunner

#: Figure-5-style bid grid: dense enough that the low window's price
#: range folds many bids into each availability-equivalence class.
BID_GRID = tuple(float(b) for b in np.linspace(0.2, 2.4, 15))
SWEEP_POLICIES = ("periodic", "markov-daly", "edge")
SWEEP_BIDS = (0.27, 0.81)


def _write_bench(**fields) -> None:
    """Merge ``fields`` into ``BENCH_cache.json`` (read-modify-write).

    The two tests of this module share one payload file and may run in
    either order (or alone), so each updates only its own keys.
    """
    out = Path(__file__).resolve().parent.parent / "BENCH_cache.json"
    payload: dict = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(fields)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_batched_bid_axis_speedup(benchmark, bench_experiments):
    """Batched bid axis vs one independent run per bid.

    Times the per-bid baseline once with a wall clock, benchmarks the
    batched executor, checks the per-bid records match exactly, and
    writes the measured ``speedup_bid_axis`` to ``BENCH_cache.json``.
    """
    n = min(bench_experiments, 8)
    config = paper_experiment(slack_fraction=0.5)

    baseline_runner = ExperimentRunner("low", num_experiments=n)
    t0 = time.perf_counter()
    per_bid = {
        bid: baseline_runner.run_single_zone("periodic", config, bid)
        for bid in BID_GRID
    }
    per_bid_s = time.perf_counter() - t0

    batched_runner = ExperimentRunner("low", num_experiments=n)
    batched = benchmark(
        batched_runner.run_bid_axis, "periodic", config, BID_GRID
    )
    assert batched == per_bid  # identical records at every bid

    batched_s = float(benchmark.stats.stats.mean)
    speedup = per_bid_s / batched_s
    _write_bench(
        bid_axis_window="low",
        bid_axis_num_experiments=n,
        bid_axis_bids=len(BID_GRID),
        bid_axis_per_bid_seconds=per_bid_s,
        bid_axis_batched_seconds_mean=batched_s,
        speedup_bid_axis=speedup,
    )
    assert speedup >= 2.0, f"batched bid axis only {speedup:.1f}x"


def _policy_sweep(cache_dir: str | None, n: int) -> list:
    """A Figure-4-style mini grid through a fresh runner.

    A new :class:`ExperimentRunner` per call keeps the in-process cache
    layer cold, so a warm pass measures the on-disk layer — the shape
    of a figure *rerun* in a new process.
    """
    runner = ExperimentRunner("low", num_experiments=n, cache_dir=cache_dir)
    config = paper_experiment(slack_fraction=0.5)
    records = []
    for label in SWEEP_POLICIES:
        for bid in SWEEP_BIDS:
            records.extend(
                runner.run_single_zone(
                    label, config, bid, zones=runner.trace.zone_names[:1]
                )
            )
    return records


def test_warm_rerun_speedup(benchmark, bench_experiments, tmp_path):
    """Warm on-disk rerun vs the cold (uncached) sweep.

    Runs the sweep uncached for the baseline wall time, primes a disk
    cache, benchmarks the warm rerun through fresh runners, checks the
    warm records equal the cold ones and that the warm pass was
    hit-only, and writes ``speedup_warm_rerun`` to
    ``BENCH_cache.json``.
    """
    n = min(bench_experiments, 8)
    cache_dir = str(tmp_path / "run-cache")

    t0 = time.perf_counter()
    cold_records = _policy_sweep(None, n)
    cold_s = time.perf_counter() - t0

    primed = _policy_sweep(cache_dir, n)  # populate the disk layer
    assert primed == cold_records

    # the warm pass must be pure cache hits, not a silent re-simulation
    probe = ExperimentRunner("low", num_experiments=n, cache_dir=cache_dir)
    config = paper_experiment(slack_fraction=0.5)
    probe.run_single_zone(
        "periodic", config, SWEEP_BIDS[0], zones=probe.trace.zone_names[:1]
    )
    stats = probe.drain_cache_stats()
    assert stats.misses == 0 and stats.hits > 0

    warm_records = benchmark(_policy_sweep, cache_dir, n)
    assert warm_records == cold_records

    warm_s = float(benchmark.stats.stats.mean)
    speedup = cold_s / warm_s
    _write_bench(
        warm_window="low",
        warm_num_experiments=n,
        warm_sweep_cells=len(SWEEP_POLICIES) * len(SWEEP_BIDS),
        warm_cold_seconds=cold_s,
        warm_seconds_mean=warm_s,
        speedup_warm_rerun=speedup,
    )
    assert speedup >= 3.0, f"warm rerun only {speedup:.1f}x over cold"
