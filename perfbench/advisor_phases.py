"""The ``advisor`` workload: build, rebuild, serve and advise in one process.

Four phases run in order against a deadline ladder of policy surfaces
(C = 20 h, D in {24, 30, 36, 48} h, t_c = 300 s, the "low" window, the
default policy/bid/zone-count grid):

1. a cold ``SurfaceBuilder(workers=2).build_family`` into an empty store
   and run cache (pool, arena, cube path, run-cache writes);
2. the same ladder rebuilt in-process into a fresh store from the now
   warm run cache, so every run-cache read happens where the traced run
   can see it; its artifacts must equal the cold build's;
3. a seeded stream of well-formed queries through ``serve_lines`` at the
   CLI batch size (throughput);
4. a stream of the same kind through ``AdvisorService.advise`` by one
   closed-loop client: each query is sent after the previous answer
   (latency).

Half the queries land on a rung, half between two rungs; budgets come
from a small set and exact repeats occur (the rung queries repeat by
construction, the between-rung ones are drawn with replacement from a
pool).  An operation fails when a well-formed query gets an error, when
a rung answer differs from that surface's ``best(budget)``, or when an
interpolated cost leaves the range of its two rungs' best costs.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.app.workload import ExperimentConfig
from repro.service import (
    AdvisorService, JobSpec, SurfaceBuilder, SurfaceSpec, SurfaceStore, serve_lines,
)
from workloads import Scale

COMPUTE_H = 20.0
LADDER_H = (24.0, 30.0, 36.0, 48.0)
CKPT_COST_S = 300.0
WINDOW = "low"
#: Budgets ($) drawn per query; ``None`` asks for the cheapest plan.
BUDGETS = (None, 3.0, 5.0, 8.0, 20.0)
#: ``serve --batch`` default.
SERVE_BATCH = 64
#: Distinct between-rung queries the streams draw from.
BETWEEN_POOL = 128
#: Cold-build workers (the box has two cores).
BUILD_WORKERS = 2


def ladder_specs(trace_seed: int, experiments: int) -> list[SurfaceSpec]:
    return [
        SurfaceSpec.for_config(
            WINDOW,
            ExperimentConfig(
                compute_s=COMPUTE_H * 3600.0,
                deadline_s=hours * 3600.0,
                ckpt_cost_s=CKPT_COST_S,
                restart_cost_s=CKPT_COST_S,
            ),
            num_experiments=experiments,
            seed=trace_seed,
        )
        for hours in LADDER_H
    ]


def query_stream(rng: np.random.Generator, n: int) -> list[dict]:
    """``n`` query payloads, alternating rung and between-rung queries in
    a shuffled order; ``id`` is the position in the stream."""
    between = []
    for _ in range(BETWEEN_POOL):
        k = int(rng.integers(len(LADDER_H) - 1))
        lo, hi = LADDER_H[k], LADDER_H[k + 1]
        hours = round(float(rng.uniform(lo + 0.01, hi - 0.01)), 2)
        between.append((hours, BUDGETS[int(rng.integers(len(BUDGETS)))]))
    stream = []
    for i in range(n):
        if i % 2 == 0:
            hours = LADDER_H[int(rng.integers(len(LADDER_H)))]
            budget = BUDGETS[int(rng.integers(len(BUDGETS)))]
        else:
            hours, budget = between[int(rng.integers(BETWEEN_POOL))]
        stream.append((hours, budget))
    order = rng.permutation(n)
    return [
        {
            "id": i,
            "compute_s": COMPUTE_H * 3600.0,
            "deadline_s": stream[j][0] * 3600.0,
            "ckpt_cost_s": CKPT_COST_S,
            "budget": stream[j][1],
            "window": WINDOW,
        }
        for i, j in enumerate(order)
    ]


def _best(surface, budget):
    return surface.best(budget) or surface.best()


def answer_ok(answer: dict, query: dict, ladder: dict) -> bool:
    """Check one advisor answer against the cold build's surfaces."""
    if "error" in answer:
        return False
    hours = query["deadline_s"] / 3600.0
    budget = query["budget"]
    if hours in ladder:
        best = _best(ladder[hours], budget)
        return (
            answer["source"] == "surface"
            and (answer["policy"], answer["zones"], answer["bid"], answer["expected_cost"])
            == (best.policy, best.zones, best.bid, best.expected_cost)
        )
    lo = max(h for h in ladder if h < hours)
    hi = min(h for h in ladder if h > hours)
    costs = sorted(_best(ladder[h], budget).expected_cost for h in (lo, hi))
    tol = 1e-9 * max(1.0, costs[1])
    return (
        answer["source"] == "interpolated"
        and costs[0] - tol <= answer["expected_cost"] <= costs[1] + tol
    )


def _artifact(surface) -> dict:
    """The payload minus build provenance (time taken, wall-clock stamp)."""
    payload = surface.to_payload()
    del payload["build_seconds"], payload["built_unix"]
    return payload


def _disk_bytes(root: Path) -> int:
    return sum(
        (Path(d) / f).stat().st_size
        for d, _, files in os.walk(root)
        for f in files
    )


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` cut point)."""
    return statistics.quantiles(values, n=100)[q - 1]


def run(work: Path, trace_seed: int, seed: int, scale: Scale, pool_cpus: set[int]) -> dict:
    """Run the four phases; returns phase timings, checks and counters.

    The cold build runs on ``pool_cpus`` (its pool workers inherit them);
    the other phases run on the CPUs the caller was pinned to."""
    specs = ladder_specs(trace_seed, scale.experiments)
    rng = np.random.default_rng(abs(seed))  # seed sequences take no negatives
    serve_stream = query_stream(rng, scale.serve_queries)
    advise_stream = query_stream(rng, scale.advise_queries)

    # 1. cold family build through the pool
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, pool_cpus)
    cold = SurfaceStore(work / "cold")
    t = time.perf_counter()
    surfaces = SurfaceBuilder(store=cold, workers=BUILD_WORKERS).build_family(specs)
    build_s = time.perf_counter() - t
    os.sched_setaffinity(0, pinned)

    # 2. warm rebuild from the cold build's run cache
    warm = SurfaceStore(work / "warm")
    t = time.perf_counter()
    rebuilt = SurfaceBuilder(store=warm, cache_dir=cold.run_cache_dir).build_family(specs)
    rebuild_s = time.perf_counter() - t

    # 3. JSON-lines serving at the CLI batch size
    service = AdvisorService(cold)
    lines = [json.dumps(q) for q in serve_stream]
    out = io.StringIO()
    t = time.perf_counter()
    asyncio.run(serve_lines(service, lines, out, batch_size=SERVE_BATCH))
    serve_s = time.perf_counter() - t

    # 4. one closed-loop client
    closed = AdvisorService(cold)
    latencies: list[float] = []
    advised: list[dict] = []

    async def client() -> None:
        for q in advise_stream:
            job = JobSpec.from_payload(q)
            t0 = time.perf_counter()
            try:
                advice = await closed.advise(job)
            except Exception as exc:  # an error answer is a failed query
                advised.append({"error": repr(exc)})
            else:
                advised.append(advice.to_payload())
            latencies.append(time.perf_counter() - t0)

    asyncio.run(client())
    phases_end = time.monotonic()

    # checks, after the timed phases
    attempted = failed = 0
    for a, b in zip(surfaces, rebuilt, strict=True):
        attempted += 1
        failed += _artifact(a) != _artifact(b)
    ladder = {s.spec.deadline_s / 3600.0: s for s in surfaces}
    answers = [json.loads(line) for line in out.getvalue().splitlines()]
    if len(answers) != len(serve_stream):
        answers = [{"error": "missing answer"}] * len(serve_stream)
    for stream, got in ((serve_stream, answers), (advise_stream, advised)):
        attempted += len(stream)
        failed += sum(not answer_ok(a, q, ladder) for a, q in zip(got, stream))

    stats = {
        field: getattr(service.stats, field) + getattr(closed.stats, field)
        for field in ("queries", "coalesced", "hot_hits", "disk_loads",
                      "interpolated", "cold_builds")
    }
    return {
        "phases": {
            "build_s": build_s,
            "rebuild_s": rebuild_s,
            "serve_qps": len(serve_stream) / serve_s,
            "advise_p50_ms": 1e3 * statistics.median(latencies),
            "advise_p99_ms": 1e3 * _quantile(latencies, 99),
        },
        "advise_samples": len(latencies),
        "phases_end": phases_end,
        "attempted": attempted,
        "failed": failed,
        "layers": {
            "cache.disk_bytes": _disk_bytes(Path(cold.run_cache_dir)),
            **{f"advisor.{k}": v for k, v in stats.items()},
        },
    }
