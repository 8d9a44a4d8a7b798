"""Parallel sweep executor — per-start grid cells over a process pool.

The evaluation protocol (Section 5) runs 80 overlapping experiments
per grid cell across policies x bids x zones x slack x checkpoint
costs — tens of thousands of tick-by-tick simulations that are
embarrassingly parallel across start offsets: per-start seeding is
derived from the start offset alone
(:meth:`~repro.experiments.runner.ExperimentRunner.simulator`), so no
work unit observes another's randomness.

Design:

* **Two kinds of work unit.**  Per-run units — one (task, start) pair
  (:meth:`SweepExecutor.map_cells`), or one start of a scalar batched
  bid axis (:meth:`SweepExecutor.map_bid_axis`) — are submitted once
  per start.  Vector-served cells are (shape x bid x start) cubes
  (:meth:`SweepExecutor.map_cube`) split into one contiguous
  start-chunk per worker; a start axis (``map_start_axis``) is the
  1x1xS cube and a bid grid (``map_grid``) the 1xBxS cube.
* **The runner's own trace.**  Workers simulate exactly the window
  the parent runner holds.  The parent publishes it once into a
  ``multiprocessing.shared_memory`` block, together with pre-warmed
  oracle statistic tables (per-bucket stationary vectors,
  per-threshold crossing indices); workers map the block zero-copy and
  seed their oracles with the parent's eigendecompositions.  When
  shared memory is unavailable (or the arena fails to build or
  attach), workers use the trace handed over in the pool initargs —
  they never regenerate a window — with bit-identical results.
* **Ordered merge.**  Futures are collected in submission (= start)
  order, so the record list is identical — values and order — to the
  serial path.  ``RunRecord`` trees are plain frozen dataclasses of
  floats/strings/tuples; pickling them is exact, so parallel results
  are bit-identical to serial runs.
* **Pool reuse.**  The pool outlives a single map call: one
  :class:`SweepExecutor` serves a whole figure's worth of cells, so
  process start-up and trace construction are paid once per sweep,
  not once per cell.

Use it through ``ExperimentRunner(..., workers=N)`` (or the CLI's
``--workers N``); instantiating :class:`SweepExecutor` directly is
only needed for custom grids.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.audit.auditor import AuditReport
from repro.core.vector_engine import BatchStats
from repro.experiments.cache import CacheStats
from repro.experiments.metrics import RunRecord
from repro.experiments.runner import CellTask, ExperimentRunner
from repro.market.constants import LARGE_BID, bid_grid
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle
from repro.traces.library import DEFAULT_SEED, evaluation_window
from repro.traces.model import SpotPriceTrace, ZoneTrace

#: The per-process runner, created by :func:`_init_worker`.
_WORKER_RUNNER: ExperimentRunner | None = None
#: The worker's attached arena segment, kept referenced so the mapping
#: (which the runner's trace arrays are views into) stays alive for the
#: life of the process.
_WORKER_SHM = None


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable layout of a :class:`TraceArena` block.

    Travels to the workers via the pool initargs; every array is
    described as ``(key..., byte offset, length)`` into the named
    shared-memory segment.
    """

    name: str
    start_time: float
    interval_s: int
    eval_start: float
    #: (zone, byte offset, num samples) — float64 price arrays.
    zones: tuple
    #: (zone, bucket, byte offset, num states) — float64 stationary vectors.
    stationary: tuple
    #: (zone, threshold, byte offset, num crossings) — int64 indices.
    crossings: tuple


class TraceArena:
    """One shared-memory block holding a sweep's immutable inputs.

    The parent side: :meth:`publish` lays the window's per-zone price
    arrays, the per-``(zone, bucket)`` stationary vectors and the
    per-``(zone, threshold)`` crossing indices into a single
    ``multiprocessing.shared_memory`` segment and returns the arena
    plus its picklable :class:`ArenaSpec`.  The worker side:
    :func:`attach_arena` maps the segment and rebuilds zero-copy views.
    The parent owns the segment — it unlinks on :meth:`destroy`;
    workers only ever map it read-only-by-convention (every view is
    marked unwriteable).
    """

    def __init__(self, shm, spec: ArenaSpec) -> None:
        self._shm = shm
        self.spec = spec

    @classmethod
    def publish(
        cls,
        trace: SpotPriceTrace,
        eval_start: float,
        thresholds: tuple = (),
        warm_stationary: dict | None = None,
    ) -> "TraceArena":
        """Copy the sweep's shared inputs into a fresh segment."""
        from multiprocessing import shared_memory

        entries = []  # (category, key, array, byte offset)
        offset = 0
        def reserve(category, key, arr):
            nonlocal offset
            entries.append((category, key, arr, offset))
            offset += arr.nbytes
        for z in trace.zones:
            reserve("zone", (z.zone,), np.ascontiguousarray(z.prices))
        for z in trace.zones:
            for theta in thresholds:
                idx = np.ascontiguousarray(
                    z.threshold_crossings(theta), dtype=np.int64
                )
                reserve("crossing", (z.zone, float(theta)), idx)
        for (zone, bucket), v in (warm_stationary or {}).items():
            reserve("stationary", (zone, bucket), np.ascontiguousarray(v))
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        specs = {"zone": [], "crossing": [], "stationary": []}
        for category, key, arr, off in entries:
            dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dest[:] = arr
            specs[category].append((*key, off, arr.size))
        spec = ArenaSpec(
            name=shm.name,
            start_time=trace.start_time,
            interval_s=trace.interval_s,
            eval_start=eval_start,
            zones=tuple(specs["zone"]),
            stationary=tuple(specs["stationary"]),
            crossings=tuple(specs["crossing"]),
        )
        return cls(shm, spec)

    def destroy(self) -> None:
        """Unmap and remove the segment (parent side, idempotent)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - teardown race
            pass
        self._shm = None


def attach_arena(spec: ArenaSpec):
    """Map an arena in a worker: ``(shm, trace, eval_start, warm tables)``.

    Every returned array is a read-only view into the segment — zone
    prices, crossing indices and stationary vectors are never copied.
    The worker must keep the returned ``shm`` object referenced for as
    long as the views live.  Attaching normally registers the segment
    with the process's resource tracker, but the *parent* owns (and
    unlinks) it — tracker-side bookkeeping from the workers would
    produce double-unlink noise at shutdown — so registration is
    suppressed for the duration of the attach (the standard workaround
    while CPython's tracker has no owner concept).
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=spec.name)
    finally:
        resource_tracker.register = original_register

    def view(off, n, dtype):
        arr = np.ndarray((n,), dtype=dtype, buffer=shm.buf, offset=off)
        arr.setflags(write=False)
        return arr

    zones = tuple(
        ZoneTrace(
            zone=zone,
            start_time=spec.start_time,
            prices=view(off, n, np.float64),
            interval_s=spec.interval_s,
        )
        for zone, off, n in spec.zones
    )
    trace = SpotPriceTrace(zones=zones)
    for zone, theta, off, n in spec.crossings:
        trace.zone(zone).seed_threshold_crossings(theta, view(off, n, np.int64))
    warm = {
        (zone, bucket): view(off, n, np.float64)
        for zone, bucket, off, n in spec.stationary
    }
    return shm, trace, spec.eval_start, warm


def _init_worker(
    window: str,
    num_experiments: int,
    seed: int,
    queue_model: QueueDelayModel,
    engine_mode: str = "fast",
    audit: bool = False,
    audit_out: str | None = None,
    arena: ArenaSpec | None = None,
    cache_dir: str | None = None,
    trace: SpotPriceTrace | None = None,
    eval_start: float | None = None,
) -> None:
    """Build this worker's trace + oracle once; all cells share them.

    With an arena spec the trace is mapped zero-copy from the parent's
    segment and the oracle is seeded with the pre-warmed stationary
    tables.  Without one (or if attaching fails — e.g. the platform
    lacks POSIX shared memory) the worker simulates the parent's own
    ``trace``, which travels in the initargs; only a call given neither
    generates the library window from ``window``/``seed``.  The arrays
    are equal either way, so results are bit-identical.

    An audited pool gives each worker its own ``<audit_out>.w<pid>``
    JSONL file — concurrent appends to one shared file would interleave
    partial lines, and per-process files need no locking.  The sidecar
    is truncated at worker start-up: the OS recycles pids, so a
    leftover file from an earlier pool must not silently receive this
    worker's appended stream on top of stale events.  Sidecars are
    merged into the main ``audit_out`` file (and removed) when the
    executor closes.

    A ``cache_dir`` gives every worker a run cache over the *same*
    on-disk layer (entry writes are atomic, so concurrent workers are
    safe); trace fingerprints hash content, not storage, so an
    arena-mapped worker hits entries a locally-generated run stored
    and vice versa.
    """
    global _WORKER_RUNNER, _WORKER_SHM
    if audit_out is not None:
        audit_out = f"{audit_out}.w{os.getpid()}"
        try:
            os.unlink(audit_out)  # pid reuse: never append to stale events
        except OSError:
            pass
    warm = None
    if arena is not None:
        try:
            _WORKER_SHM, trace, eval_start, warm = attach_arena(arena)
        except Exception:
            _WORKER_SHM = None
    _WORKER_RUNNER = ExperimentRunner(
        window,
        num_experiments=num_experiments,
        seed=seed,
        queue_model=queue_model,
        workers=1,
        engine_mode=engine_mode,
        audit=audit,
        audit_out=audit_out,
        trace=trace,
        eval_start=eval_start,
        cache_dir=cache_dir,
    )
    if warm:
        _WORKER_RUNNER.oracle.seed_stationary(warm)


def _serve(method: str, *args) -> tuple:
    """Call one runner method on this worker's shared runner.

    Returns the method's result plus the drained audit report,
    run-cache counters and vector-batch counters (``None`` when the
    respective feature is off), so violations and hit/miss/native
    tallies observed inside the worker travel back to the parent with
    the results they describe.
    """
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker pool used before initialization")
    value = getattr(runner, method)(*args)
    report = runner.drain_audit() if runner.audit else None
    stats = runner.drain_cache_stats() if runner.cache is not None else None
    return value, report, stats, runner.drain_vector_stats()


def _run_cell(task: CellTask, start: float) -> tuple:
    """Worker entry point: one (task, start) unit, run per run."""
    return _serve("run_cell", task, start)


def _run_bid_axis_cell(task: CellTask, bids: tuple, start: float) -> tuple:
    """Worker entry point for one start of a scalar batched bid axis."""
    return _serve("run_bid_axis_cell", task, bids, start)


def _run_cube_chunk(
    task: CellTask, configs: tuple, bids: tuple, starts_per_shape: tuple
) -> tuple:
    """Worker entry point for one start-chunk of a (shape x bid x
    start) cube: every shape's slice of the chunk advances in one
    lockstep pass
    (:meth:`~repro.experiments.runner.ExperimentRunner.run_cube_cell`)."""
    return _serve(
        "run_cube_cell", task, list(configs), list(bids),
        [list(starts) for starts in starts_per_shape],
    )


@dataclass
class SweepExecutor:
    """Fans grid cells out over a :class:`ProcessPoolExecutor`.

    Parameters mirror :class:`ExperimentRunner` — the worker processes
    rebuild the same runner from them, so a task executed remotely is
    indistinguishable from one executed in-process.
    """

    window: str
    num_experiments: int
    seed: int = DEFAULT_SEED
    workers: int = 2
    queue_model: QueueDelayModel = field(default_factory=QueueDelayModel)
    engine_mode: str = "fast"
    audit: bool = False
    audit_out: str | None = None
    #: Shared on-disk run-cache directory handed to every worker
    #: (``None`` disables worker-side caching).
    cache_dir: str | None = None
    #: Publish the window into a shared-memory :class:`TraceArena` at
    #: pool start-up.  Off (or a failed publish) the workers use the
    #: trace handed over in the initargs — results are identical; the
    #: arena only removes redundant per-process work.
    use_arena: bool = True
    #: The window the workers simulate (default: the library window
    #: of ``window``/``seed``).
    trace: SpotPriceTrace | None = None
    eval_start: float | None = None
    _pool: ProcessPoolExecutor | None = field(default=None, repr=False)
    _arena: "TraceArena | None" = field(default=None, repr=False)
    _audit_report: AuditReport = field(default_factory=AuditReport, repr=False)
    _cache_stats: CacheStats = field(default_factory=CacheStats, repr=False)
    _vector_stats: BatchStats = field(default_factory=BatchStats, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.audit_out is not None:
            self.audit = True
        if self.trace is None:
            self.trace, self.eval_start = evaluation_window(self.window, self.seed)
        elif self.eval_start is None:
            raise ValueError("eval_start is required with an explicit trace")

    def _build_arena(self) -> "TraceArena | None":
        """Publish the window + warm statistic tables; ``None`` on failure.

        The pre-warmed tables cover the full evaluation span at the
        production oracle's bucket grid: per-bucket stationary vectors
        (one walk over the buckets' fitted chains in the parent
        replaces one eigendecomposition sweep *per worker*) and
        crossing indices for the bid grid plus the large-bid threshold
        (the fast engine's segment-skipping lookups).
        """
        try:
            trace, eval_start = self.trace, self.eval_start
            oracle = PriceOracle(trace)
            warm = oracle.prewarm_stationary(eval_start, trace.end_time)
            thresholds = tuple(float(b) for b in bid_grid()) + (LARGE_BID,)
            return TraceArena.publish(
                trace, eval_start, thresholds=thresholds, warm_stationary=warm
            )
        except Exception:
            return None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self.use_arena and self._arena is None:
                self._arena = self._build_arena()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.window,
                    self.num_experiments,
                    self.seed,
                    self.queue_model,
                    self.engine_mode,
                    self.audit,
                    self.audit_out,
                    self._arena.spec if self._arena is not None else None,
                    self.cache_dir,
                    # a worker that cannot map the arena simulates this
                    # trace (inherited, not copied, under fork)
                    self.trace,
                    self.eval_start,
                ),
            )
        return self._pool

    def _collect(self, fn, arg_lists) -> list:
        """Submit ``fn(*args)`` for every entry of ``arg_lists`` and
        collect the results in submission order, absorbing each
        worker's side-channel counters: the ordered merge of every map."""
        pool = self._ensure_pool()
        futures = [pool.submit(fn, *args) for args in arg_lists]
        out = []
        for future in futures:
            value, report, stats, vstats = future.result()
            out.append(value)
            if report is not None:
                self._audit_report.merge(report)
            if stats is not None:
                self._cache_stats.merge(stats)
            if vstats is not None:
                self._vector_stats.merge(vstats)
        return out

    def map_cells(
        self, task: CellTask, starts: Sequence[float]
    ) -> list[RunRecord]:
        """Run one cell task at every start; records in start order.

        The ordered merge makes the result indistinguishable from the
        serial loop: worker k's records for start i land at exactly the
        position the serial path would have appended them.
        """
        return [
            record
            for records in self._collect(
                _run_cell, [(task, float(s)) for s in starts]
            )
            for record in records
        ]

    def map_bid_axis(
        self, task: CellTask, bids: Sequence[float], starts: Sequence[float]
    ) -> dict[float, list[RunRecord]]:
        """Run a scalar batched bid axis at every start; records in
        start order.

        Each worker partitions the bid grid into equivalence classes
        for its start and runs one representative per class
        (:meth:`~repro.experiments.runner.ExperimentRunner.run_bid_axis_cell`);
        the ordered merge makes every per-bid record list identical —
        values and order — to the serial batched path, which is itself
        identical to per-bid runs.
        """
        bids = tuple(float(b) for b in bids)
        out: dict[float, list[RunRecord]] = {bid: [] for bid in bids}
        for pairs in self._collect(
            _run_bid_axis_cell, [(task, bids, float(s)) for s in starts]
        ):
            for bid, records in pairs:
                out[bid].extend(records)
        return out

    def _map_cube(
        self,
        task: CellTask,
        configs: Sequence,
        bids: Sequence,
        starts_per_shape: Sequence[Sequence[float]],
    ) -> list[dict]:
        """The one chunked map behind :meth:`map_cube` and its start-
        and bid-axis delegates (which call this body, not each other,
        so every pool map is one call)."""
        configs = tuple(configs)
        bids = tuple(bids)
        split_per_shape = [
            np.array_split(np.asarray(starts, dtype=np.float64), self.workers)
            for starts in starts_per_shape
        ]
        chunks = [
            tuple(tuple(float(s) for s in split[w]) for split in split_per_shape)
            for w in range(self.workers)
        ]
        out: list[dict] = [{bid: [] for bid in bids} for _ in configs]
        for cell in self._collect(_run_cube_chunk, [
            (task, configs, bids, per_shape) for per_shape in chunks
            if any(per_shape)
        ]):
            for k, pairs in enumerate(cell):
                for bid, records in pairs:
                    out[k][bid].extend(records)
        return out

    def map_cube(
        self,
        task: CellTask,
        configs: Sequence,
        bids: Sequence,
        starts_per_shape: Sequence[Sequence[float]],
    ) -> list[dict[float, list[RunRecord]]]:
        """Run a fused (shape x bid x start) cube over the pool.

        Every shape's start grid splits into one contiguous chunk per
        worker (start order preserved); chunk w carries the w-th slice
        of *all* shapes, so each worker still advances a full shape
        ladder in one lockstep pass
        (:meth:`~repro.experiments.runner.ExperimentRunner.run_cube_cell`)
        and the zone-dynamics column sharing survives the fan-out.
        Per-start seeding means chunk boundaries cannot change any run,
        so the ordered merge reproduces, per shape, the serial cube —
        and therefore per-run scalar runs — record for record.
        """
        return self._map_cube(task, configs, bids, starts_per_shape)

    def map_grid(
        self, task: CellTask, bids: Sequence[float], starts: Sequence[float]
    ) -> dict[float, list[RunRecord]]:
        """A fused (bid x start) tile: the 1xBxS case of :meth:`map_cube`."""
        return self._map_cube(task, [task.config], bids, [starts])[0]

    def map_start_axis(
        self, task: CellTask, starts: Sequence[float]
    ) -> list[RunRecord]:
        """One cell's start axis: the 1x1xS case of :meth:`map_cube`."""
        return self._map_cube(task, [task.config], [task.bid], [starts])[0][task.bid]

    def drain_audit(self) -> AuditReport:
        """Hand off (and clear) the audit reports workers shipped back."""
        report = self._audit_report
        self._audit_report = AuditReport()
        return report

    def drain_cache_stats(self) -> CacheStats | None:
        """Hand off (and clear) the run-cache counters workers shipped
        back with their results.

        ``None`` when no ``cache_dir`` is configured — the workers
        cannot have counted anything, and the contract matches
        :meth:`ExperimentRunner.drain_cache_stats` so direct executor
        callers can distinguish "cache off" from "cache cold" instead
        of printing a zero-hit stats line for uncached commands.
        """
        if self.cache_dir is None:
            return None
        stats = self._cache_stats
        self._cache_stats = CacheStats()
        return stats

    def drain_vector_stats(self) -> BatchStats:
        """Hand off (and clear) the vector-batch counters workers
        shipped back with their results (all-zero when no worker ran a
        vector batch)."""
        stats = self._vector_stats
        self._vector_stats = BatchStats()
        return stats

    def _merge_audit_sidecars(self) -> None:
        """Fold the workers' ``.w<pid>`` JSONL sidecars into the main
        ``audit_out`` stream and remove them.

        Runs after the pool has shut down, so every sidecar is complete
        (worker streams flush at run-end boundaries and on process
        exit).  Merge order is sorted by filename for determinism; the
        main file may already hold the parent's own in-process events —
        the sidecars are appended after them.
        """
        if self.audit_out is None:
            return
        from pathlib import Path

        main = Path(self.audit_out)
        sidecars = sorted(main.parent.glob(main.name + ".w*"))
        if not sidecars:
            return
        with main.open("a") as out:
            for sidecar in sidecars:
                try:
                    out.write(sidecar.read_text())
                    sidecar.unlink()
                except OSError:  # pragma: no cover - concurrent removal
                    continue

    def close(self) -> None:
        """Shut the pool down, merge audit sidecars, release the arena
        (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._merge_audit_sidecars()
        if self._arena is not None:
            self._arena.destroy()
            self._arena = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
