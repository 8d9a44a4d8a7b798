"""Workload table, seed mapping and metric names shared by the benchmark's
runner (``run.py``), its per-process sampler (``sample.py``), the
reference recorder, the report and the self-test."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent

#: The CLI's ``DEFAULT_SEED``; benchmark seed 0 runs exactly the
#: default archive.
BASE_TRACE_SEED = 20140623
#: Trace seeds with a recorded stdout reference.  A benchmark seed maps
#: onto one of them, so every seed has a reference recorded by a
#: different process (``--engine fast``) than the run being timed.
NUM_TRACE_SEEDS = 10


class Scale(NamedTuple):
    """Input sizes of a run and the stdout references recorded at them."""

    experiments: int
    #: Queries per advisor phase: serving throughput, closed-loop latency.
    serve_queries: int
    advise_queries: int
    refs: Path


#: The benchmark: the CLI default ``--experiments 20``; 2000 latency
#: samples leave 20 beyond p99.
FULL = Scale(experiments=20, serve_queries=4000, advise_queries=2000,
             refs=HERE / "refs")
#: ``--tiny``, the self-test's scale; ``selftest.py`` records its references.
TINY = Scale(experiments=2, serve_queries=300, advise_queries=200,
             refs=HERE.parent / ".perfbench" / "tiny-refs")

#: Artifact workloads: ``(command, engine)`` of one ``repro-spotsim``
#: invocation; the reference is that command's ``--engine fast`` stdout.
ARTIFACTS = {
    "table2-fast": ("table2", "fast"),
    "table2-vector": ("table2", "vector"),
    "headline-vector": ("headline", "vector"),
}
#: The gated workloads of ``BENCHMARK.json``.  ``table2-vector`` stays
#: runnable for the report's ungated ROADMAP diagnostics (vector over
#: fast ``table2`` time, the oracle's share of it): every layer it
#: exercises is gated on ``headline-vector``, and three workloads leave
#: each run long enough to average out this host's minute-scale speed
#: swings, which four could not.
WORKLOADS = ("table2-fast", "headline-vector", "advisor")
RUNNABLE = (*ARTIFACTS, "advisor")

#: Evaluation windows each workload builds during set-up.
WINDOWS = {
    "table2-fast": ("low", "high"),
    "table2-vector": ("low", "high"),
    "headline-vector": ("low", "high"),
    "advisor": ("low",),
}

#: ``--trace 0`` metrics (every workload) and their units.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Advisor-phase metrics (printed as diagnostics; advisor only).
ADVISOR_PHASES = {
    "build_s": "s",
    "rebuild_s": "s",
    "serve_qps": "1/s",
    "advise_p50_ms": "ms",
    "advise_p99_ms": "ms",
}

#: ``--trace 1`` metrics (every workload; zero where a layer is unused).
PER_LAYER = {
    "traces.window_s": "s",
    "oracle.markov_model_calls": "count",
    "oracle.markov_model_s": "s",
    "oracle.fitter_slides": "count",
    "oracle.fitter_rebuilds": "count",
    "oracle.rebuild_share": "ratio",
    "oracle.uptime_solve_s": "s",
    "oracle.stationary_s": "s",
    "oracle.zone_stats_s": "s",
    "oracle.threshold_stats_s": "s",
    "oracle.combined_uptimes_s": "s",
    "engine.runs": "count",
    "engine.run_s": "s",
    "vector.cube_calls": "count",
    "vector.cube_s": "s",
    "vector.adaptive_cube_s": "s",
    "vector.rows_native": "count",
    "vector.rows_cloned": "count",
    "vector.rows_fallback": "count",
    "adaptive.decisions": "count",
    "adaptive.decide_s": "s",
    "adaptive.select_calls": "count",
    "adaptive.first_visits": "count",
    "runner.self_s": "s",
    "cache.gets": "count",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.hit_share": "ratio",
    "cache.disk_bytes": "B",
    "pool.map_calls": "count",
    "pool.map_s": "s",
    "pool.arena_publish_s": "s",
    "store.saves": "count",
    "store.save_s": "s",
    "store.loads": "count",
    "store.load_s": "s",
    "advisor.queries": "count",
    "advisor.coalesced": "count",
    "advisor.hot_hits": "count",
    "advisor.disk_loads": "count",
    "advisor.interpolated": "count",
    "advisor.cold_builds": "count",
    "trace.overhead": "ratio",
}


def trace_seed(seed: int) -> int:
    """The archive seed (``repro-spotsim --seed``) a benchmark seed runs."""
    return BASE_TRACE_SEED + seed % NUM_TRACE_SEEDS


def reference_path(command: str, seed: int, refs: Path) -> Path:
    return refs / f"{command}-{seed}.txt"
