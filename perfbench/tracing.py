"""Traced-run instrumentation: spans and counts around calls into ``repro``.

The benchmark never edits the program.  For a traced sample it wraps the
public entry points of each layer (a module of ``src/repro``) from here,
times every call, and keeps the results in memory until the sample
ends.  Spans are aggregated by ``(caller span, span)`` instead of being
stored one by one: the hot oracle entry points are called hundreds of
thousands of times per artifact, and an aggregate keeps memory flat
while still recording which span caused each one.

A span's *self* time is its duration minus the time of the spans that
nest inside it, so layer times add up to the traced region without
double counting (the runner calls the vector engine, which calls the
oracle, ...).  Worker processes of a sweep pool inherit the wrappers
through ``fork`` but their spans stay in the worker; only the parent's
view of the pool (``pool.map``) is recorded.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: Span name -> ``(module, class or None, attribute names)`` to wrap.
SPANS: dict[str, tuple[str, str | None, tuple[str, ...]]] = {
    "traces.window": ("repro.traces.library", None, ("evaluation_window",)),
    "oracle.markov_model": ("repro.market.spot_market", "PriceOracle", ("markov_model",)),
    "oracle.zone_stats": ("repro.market.spot_market", "PriceOracle", ("zone_stats",)),
    "oracle.threshold_stats": ("repro.market.spot_market", "PriceOracle", ("threshold_stats",)),
    "oracle.combined_uptimes": ("repro.market.spot_market", "PriceOracle", ("combined_uptimes",)),
    "oracle.uptime_solve": ("repro.stats.markov", "PriceMarkovModel", ("expected_uptime_batch",)),
    "oracle.stationary": ("repro.stats.markov", "PriceMarkovModel", ("stationary",)),
    "engine.run": ("repro.core.engine", "SpotSimulator", ("run",)),
    "vector.cube": ("repro.core.vector_engine", "VectorSimulator", ("run_cube",)),
    "vector.adaptive_cube": ("repro.core.vector_engine", "VectorSimulator", ("run_adaptive_cube",)),
    "adaptive.decide": ("repro.core.adaptive", "AdaptiveController", ("decide_at_epoch",)),
    "adaptive.select": ("repro.core.adaptive", "SelectionMemo", ("select",)),
    "adaptive.first_visit": ("repro.core.adaptive", "SelectionMemo", ("first_visit",)),
    "runner": ("repro.experiments.runner", "ExperimentRunner", (
        "run_cell", "run_start_axis_cells", "run_start_axis",
        "run_bid_axis_cell", "run_bid_axis", "run_grid_cell", "run_grid",
        "run_cube_cell", "run_cube", "run_single_zone", "run_redundant",
        "run_best_redundant", "run_adaptive", "run_large_bid",
    )),
    "cache.get": ("repro.experiments.cache", "RunCache", ("get",)),
    "cache.put": ("repro.experiments.cache", "RunCache", ("put",)),
    "pool.map": ("repro.experiments.parallel", "SweepExecutor", (
        "map_cells", "map_bid_axis", "map_grid", "map_cube", "map_start_axis",
    )),
    "pool.arena_publish": ("repro.experiments.parallel", "TraceArena", ("publish",)),
    "store.save": ("repro.service.surface", "SurfaceStore", ("save",)),
    "store.load": ("repro.service.surface", "SurfaceStore", ("load",)),
}


class Tracer:
    """In-memory span aggregates and counters of one traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(caller span or "", span)`` -> ``[calls, total_s, self_s]``.
        self.spans: dict[tuple[str, str], list] = {}
        #: Counter name -> value.
        self.counts: dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        """``fn`` timed as span ``name`` (nested spans subtract out)."""
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[1] += dur
                key = (caller[0] if caller is not None else "", name)
                with tracer._lock:
                    agg = tracer.spans.get(key)
                    if agg is None:
                        tracer.spans[key] = [1, dur, dur - frame[1]]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += dur - frame[1]

        return span

    def layer(self, prefix: str) -> tuple[int, float]:
        """``(calls, self seconds)`` summed over spans named ``prefix``
        or ``prefix.*``."""
        calls, self_s = 0, 0.0
        for (_, name), (n, _, s) in self.spans.items():
            if name == prefix or name.startswith(prefix + "."):
                calls += n
                self_s += s
        return calls, self_s

    def dump(self) -> dict:
        """JSON-ready form: one record per (caller, span) pair."""
        return {
            "spans": [
                {"caller": caller, "span": name, "calls": n,
                 "total_s": total, "self_s": self_s}
                for (caller, name), (n, total, self_s) in sorted(self.spans.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the spans and counters give directly."""
    out: dict[str, float] = {}
    for metric, span in (
        ("traces.window_s", "traces.window"),
        ("oracle.markov_model_s", "oracle.markov_model"),
        ("oracle.uptime_solve_s", "oracle.uptime_solve"),
        ("oracle.stationary_s", "oracle.stationary"),
        ("oracle.zone_stats_s", "oracle.zone_stats"),
        ("oracle.threshold_stats_s", "oracle.threshold_stats"),
        ("oracle.combined_uptimes_s", "oracle.combined_uptimes"),
        ("engine.run_s", "engine.run"),
        ("vector.cube_s", "vector.cube"),
        ("vector.adaptive_cube_s", "vector.adaptive_cube"),
        ("adaptive.decide_s", "adaptive.decide"),
        ("runner.self_s", "runner"),
        ("cache.get_s", "cache.get"),
        ("cache.put_s", "cache.put"),
        ("pool.map_s", "pool.map"),
        ("pool.arena_publish_s", "pool.arena_publish"),
        ("store.save_s", "store.save"),
        ("store.load_s", "store.load"),
    ):
        out[metric] = tracer.layer(span)[1]
    for metric, span in (
        ("oracle.markov_model_calls", "oracle.markov_model"),
        ("engine.runs", "engine.run"),
        ("vector.cube_calls", "vector.cube"),
        ("adaptive.decisions", "adaptive.decide"),
        ("adaptive.select_calls", "adaptive.select"),
        ("adaptive.first_visits", "adaptive.first_visit"),
        ("pool.map_calls", "pool.map"),
        ("store.saves", "store.save"),
        ("store.loads", "store.load"),
    ):
        out[metric] = tracer.layer(span)[0]
    counts = tracer.counts
    for metric in ("oracle.fitter_slides", "oracle.fitter_rebuilds",
                   "vector.rows_native", "vector.rows_cloned",
                   "vector.rows_fallback"):
        out[metric] = counts.get(metric, 0)
    moves = out["oracle.fitter_slides"] + out["oracle.fitter_rebuilds"]
    out["oracle.rebuild_share"] = out["oracle.fitter_rebuilds"] / moves if moves else 0.0
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    out["cache.gets"] = hits + misses
    out["cache.puts"] = counts.get("cache.stores", 0)
    out["cache.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def oracle_seconds(tracer: Tracer) -> float:
    """Self time of every oracle span: the oracle layer's share of a run."""
    return tracer.layer("oracle")[1]


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every ``repro`` module that
    imported it by name (``from ... import evaluation_window``)."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_attr(tracer: Tracer, name: str, owner, attr: str) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
    else:
        setattr(owner, attr, tracer.wrap(name, raw))


def _count_fitter_moves(tracer: Tracer, fitter_cls) -> None:
    """Classify each ``RollingMarkovFitter.set_window`` as a slide or a
    rebuild from the public window before and after the call, using the
    fitter's own overlap rule (no-op calls count as neither)."""
    original = fitter_cls.set_window

    @functools.wraps(original)
    def set_window(self, lo, hi):
        old_lo, old_hi = self.window
        original(self, lo, hi)
        new_lo, new_hi = self.window
        if (new_lo, new_hi) == (old_lo, old_hi):
            return
        overlap = min(new_hi, old_hi) - max(new_lo, old_lo)
        entering = (new_hi - new_lo) - max(overlap, 0)
        leaving = (old_hi - old_lo) - max(overlap, 0)
        if overlap <= 0 or entering + leaving >= new_hi - new_lo:
            tracer.count("oracle.fitter_rebuilds")
        else:
            tracer.count("oracle.fitter_slides")

    fitter_cls.set_window = set_window


def _count_runner_drains(tracer: Tracer, runner_cls) -> None:
    """Tally the vector-row and run-cache counters every runner drains
    (worker tallies arrive merged into the parent's drain), and drain
    once more on close so counters nobody read are still seen."""
    drain_vector = runner_cls.drain_vector_stats
    drain_cache = runner_cls.drain_cache_stats
    close = runner_cls.close

    @functools.wraps(drain_vector)
    def drain_vector_stats(self):
        stats = drain_vector(self)
        if stats is not None:
            tracer.count("vector.rows_native", stats.native)
            tracer.count("vector.rows_cloned", stats.cloned)
            tracer.count("vector.rows_fallback", sum(stats.fallback.values()))
        return stats

    @functools.wraps(drain_cache)
    def drain_cache_stats(self):
        stats = drain_cache(self)
        if stats is not None:
            tracer.count("cache.hits", stats.hits)
            tracer.count("cache.misses", stats.misses)
            tracer.count("cache.stores", stats.stores)
        return stats

    @functools.wraps(close)
    def close_and_tally(self):
        self.drain_vector_stats()
        self.drain_cache_stats()
        close(self)

    runner_cls.drain_vector_stats = drain_vector_stats
    runner_cls.drain_cache_stats = drain_cache_stats
    runner_cls.close = close_and_tally


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`SPANS` (imports the modules)."""
    import importlib

    for name, (mod_name, cls_name, attrs) in SPANS.items():
        module = importlib.import_module(mod_name)
        for attr in attrs:
            if cls_name is None:
                original = getattr(module, attr)
                _replace_everywhere(original, tracer.wrap(name, original))
            else:
                _wrap_attr(tracer, name, getattr(module, cls_name), attr)
    from repro.experiments.runner import ExperimentRunner
    from repro.stats.markov import RollingMarkovFitter

    _count_fitter_moves(tracer, RollingMarkovFitter)
    _count_runner_drains(tracer, ExperimentRunner)
