"""Parallel sweep execution must be invisible in the results.

A 4-worker run of any grid cell returns the exact record list — values
and order — of the serial path: per-start seeding depends only on the
start offset, and the executor merges futures in submission order.
"""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.vector_engine import FALLBACK_CONTROLLER, FALLBACK_REASONS
from repro.experiments.parallel import SweepExecutor
from repro.experiments.runner import CellTask, ExperimentRunner


class TweakedController(AdaptiveController):
    """Module-level (picklable) controller subclass: exercises the
    vector engine's controller fallback through worker processes."""


@pytest.fixture(scope="module")
def serial():
    return ExperimentRunner("low", num_experiments=5)


@pytest.fixture(scope="module")
def parallel():
    with ExperimentRunner("low", num_experiments=5, workers=4) as runner:
        yield runner


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)


class TestIdenticalRecords:
    def test_single_zone(self, serial, parallel, config):
        a = serial.run_single_zone("markov-daly", config, 0.81)
        b = parallel.run_single_zone("markov-daly", config, 0.81)
        assert a == b

    def test_redundant(self, serial, parallel, config):
        a = serial.run_redundant("periodic", config, 0.81)
        b = parallel.run_redundant("periodic", config, 0.81)
        assert a == b

    def test_adaptive(self, serial, parallel, config):
        a = serial.run_adaptive(config)
        b = parallel.run_adaptive(config)
        assert a == b

    def test_large_bid(self, serial, parallel, config):
        a = serial.run_large_bid(config, 0.81)
        b = parallel.run_large_bid(config, 0.81)
        assert a == b


class TestExecutor:
    def test_map_cells_orders_by_start(self, serial, config):
        task = CellTask(kind="redundant", config=config,
                        policy_label="periodic", bid=0.81)
        starts = [float(s) for s in serial.starts(config)]
        with SweepExecutor("low", num_experiments=5, workers=2) as ex:
            records = ex.map_cells(task, starts)
        assert [r.start_time for r in records] == starts

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ExperimentRunner("low", num_experiments=5, workers=0)
        with pytest.raises(ValueError):
            SweepExecutor("low", num_experiments=5, workers=0)

    def test_with_workers_round_trip(self, serial):
        same = serial.with_workers(1)
        assert same is serial
        other = serial.with_workers(3)
        assert other.workers == 3
        assert other.window == serial.window
        assert other.seed == serial.seed

    def test_close_is_idempotent(self):
        runner = ExperimentRunner("low", num_experiments=5, workers=2)
        config = paper_experiment()
        runner.run_redundant("periodic", config, 0.81)
        runner.close()
        runner.close()
        # After close, the pool is rebuilt on demand.
        records = runner.run_redundant("periodic", config, 0.81)
        assert records
        runner.close()


class TestDrainCacheStatsContract:
    """Both drain paths agree: ``None`` when no cache is configured, so
    no caller can print a zero-hit stats line for an uncached command."""

    def test_executor_none_without_cache_dir(self, serial, config):
        starts = [float(serial.starts(config)[0])]
        with SweepExecutor("low", num_experiments=3, workers=2) as ex:
            task = CellTask(kind="redundant", config=config,
                            policy_label="periodic", bid=0.81)
            ex.map_cells(task, starts)
            assert ex.drain_cache_stats() is None

    def test_executor_stats_with_cache_dir(self, serial, config, tmp_path):
        starts = [float(serial.starts(config)[0])]
        with SweepExecutor("low", num_experiments=3, workers=2,
                           cache_dir=str(tmp_path)) as ex:
            task = CellTask(kind="redundant", config=config,
                            policy_label="periodic", bid=0.81)
            ex.map_cells(task, starts)
            stats = ex.drain_cache_stats()
            assert stats is not None
            assert stats.lookups > 0

    def test_runner_and_executor_agree(self, config):
        with ExperimentRunner("low", num_experiments=3, workers=2) as runner:
            runner.run_redundant("periodic", config, 0.81)
            assert runner.drain_cache_stats() is None
            assert runner.executor.drain_cache_stats() is None

    def test_vector_stats_native_counts_survive_worker_merge(self, config):
        """BatchStats ride the worker-extras channel; the ordered merge
        must add up to the whole cell, all native for Adaptive."""
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              engine_mode="vector") as runner:
            records = runner.run_adaptive(config)
            stats = runner.drain_vector_stats()
        assert stats is not None
        assert stats.native == len(records)
        assert stats.cloned == 0 and stats.fallback == {}

    def test_vector_stats_fallback_reasons_survive_worker_merge(self, config):
        """The per-reason fallback breakdown is preserved end to end —
        workers count under the closed enum, the merge keeps the keys."""
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              engine_mode="vector") as runner:
            records = runner.run_adaptive(config, TweakedController)
            stats = runner.drain_vector_stats()
        assert stats is not None
        assert stats.native == 0
        assert stats.fallback == {FALLBACK_CONTROLLER: len(records)}
        assert set(stats.fallback) <= FALLBACK_REASONS

    def test_runner_memory_cache_with_uncached_workers(self, config):
        """An injected in-memory cache (no cache_dir) must not crash the
        merge with the executor's None."""
        from repro.experiments.cache import RunCache

        with ExperimentRunner("low", num_experiments=3, workers=2,
                              cache=RunCache()) as runner:
            runner.run_redundant("periodic", config, 0.81)
            stats = runner.drain_cache_stats()
            assert stats is not None


def _scaled_low_window(factor: float = 1.5):
    """The low window with every price scaled: a market no
    ``(window, seed)`` pair regenerates."""
    from repro.traces.library import evaluation_window
    from repro.traces.model import SpotPriceTrace, ZoneTrace

    trace, eval_start = evaluation_window("low")
    scaled = SpotPriceTrace(zones=tuple(
        ZoneTrace(zone=z.zone, start_time=z.start_time,
                  prices=z.prices * factor, interval_s=z.interval_s)
        for z in trace.zones
    ))
    return scaled, eval_start


class TestExplicitTrace:
    """A runner built over its own trace must simulate that trace in
    its sweep workers too, never the library window of its seed."""

    @pytest.mark.parametrize("engine_mode", ["fast", "vector"])
    def test_workers_simulate_the_runners_trace(self, config, engine_mode):
        trace, eval_start = _scaled_low_window()
        serial = ExperimentRunner("low", num_experiments=4, trace=trace,
                                  eval_start=eval_start,
                                  engine_mode=engine_mode)
        expected = serial.run_single_zone("periodic", config, 0.81)
        with ExperimentRunner("low", num_experiments=4, workers=2,
                              trace=trace, eval_start=eval_start,
                              engine_mode=engine_mode) as par:
            assert par.run_single_zone("periodic", config, 0.81) == expected

    def test_executor_without_arena_ships_the_trace(self, config):
        trace, eval_start = _scaled_low_window()
        serial = ExperimentRunner("low", num_experiments=4, trace=trace,
                                  eval_start=eval_start)
        task = CellTask(kind="redundant", config=config,
                        policy_label="periodic", bid=0.81)
        starts = [float(s) for s in serial.starts(config)]
        expected = [r for s in starts for r in serial.run_cell(task, s)]
        with SweepExecutor("low", num_experiments=4, workers=2,
                           use_arena=False, trace=trace,
                           eval_start=eval_start) as ex:
            assert ex.map_cells(task, starts) == expected
            assert ex._arena is None

    def test_with_workers_keeps_trace_and_cache(self):
        from repro.experiments.cache import RunCache

        trace, eval_start = _scaled_low_window()
        cache = RunCache(None)
        runner = ExperimentRunner("low", num_experiments=4, trace=trace,
                                  eval_start=eval_start, cache=cache)
        widened = runner.with_workers(2)
        assert widened.workers == 2
        assert widened.trace is trace
        assert widened.eval_start == eval_start
        assert widened.cache is cache
