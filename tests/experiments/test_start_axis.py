"""Runner-level start-axis batching: vector mode is a drop-in.

``engine_mode="vector"`` must be invisible in the results: every grid
API returns records bit-identical — values and order — to the fast
runner, whether the batch runs serially, over a worker pool, against a
warm cache, or falls back per run for non-native policies.
"""

from __future__ import annotations

import pytest

from repro.app.workload import paper_experiment
from repro.experiments.runner import CellTask, ExperimentRunner

EXPERIMENTS = 10


@pytest.fixture(scope="module")
def config():
    return paper_experiment(slack_fraction=0.15, ckpt_cost_s=300.0)


@pytest.fixture(scope="module")
def fast_runner():
    return ExperimentRunner("low", num_experiments=EXPERIMENTS)


@pytest.fixture(scope="module")
def vector_runner():
    return ExperimentRunner(
        "low", num_experiments=EXPERIMENTS, engine_mode="vector"
    )


def test_vector_runner_matches_fast_native(fast_runner, vector_runner, config):
    """Native policy: the whole merged-zone cell goes through one batch."""
    a = fast_runner.run_single_zone("periodic", config, 0.27)
    b = vector_runner.run_single_zone("periodic", config, 0.27)
    assert a == b


def test_vector_runner_matches_fast_markov_daly(fast_runner, vector_runner, config):
    """Markov-Daly rides the native path with its re-arm clock as a column."""
    a = fast_runner.run_single_zone("markov-daly", config, 0.40)
    b = vector_runner.run_single_zone("markov-daly", config, 0.40)
    assert a == b


def test_vector_runner_matches_fast_adaptive(fast_runner, vector_runner,
                                             config):
    """Adaptive cells go through the batched decision columns and must
    be invisible: identical records, every run served native."""
    a = fast_runner.run_adaptive(config)
    vector_runner.drain_vector_stats()  # isolate this cell's tally
    b = vector_runner.run_adaptive(config)
    stats = vector_runner.drain_vector_stats()
    assert a == b
    assert stats is not None
    assert stats.native == len(b)
    assert stats.fallback == {}


def test_vector_runner_matches_fast_large_bid(fast_runner, vector_runner,
                                              config):
    """Large-bid cells (threshold and Naive) ride the native columns."""
    for threshold in (0.81, None):
        a = fast_runner.run_large_bid(config, threshold)
        vector_runner.drain_vector_stats()
        b = vector_runner.run_large_bid(config, threshold)
        stats = vector_runner.drain_vector_stats()
        assert a == b
        assert stats is not None and stats.native == len(b)
        assert stats.fallback == {}


def test_run_start_axis_equals_run_single_zone(fast_runner, config):
    """The explicit batched API matches the per-run grid on any runner."""
    a = fast_runner.run_single_zone("edge", config, 0.81)
    b = fast_runner.run_start_axis("edge", config, 0.81)
    assert a == b


def test_run_start_axis_subset_of_zones(fast_runner, config):
    zones = fast_runner.trace.zone_names[:1]
    a = fast_runner.run_single_zone("periodic", config, 0.81, zones=zones)
    b = fast_runner.run_start_axis("periodic", config, 0.81, zones=zones)
    assert a == b
    assert all(r.result.zones == tuple(zones) for r in b)


def test_start_axis_cells_rejects_unknown_kind(fast_runner, config):
    task = CellTask(kind="mystery", config=config)
    with pytest.raises(ValueError, match="start-axis batching"):
        fast_runner.run_start_axis_cells(task, [fast_runner.eval_start])


def test_start_axis_cells_serves_adaptive(fast_runner, config):
    """Adaptive cells batch the whole axis: batched controller
    decisions, same records as per-start serial cells."""
    task = CellTask(kind="adaptive", config=config)
    starts = [float(s) for s in fast_runner.starts(config)[:3]]
    batched = fast_runner.run_start_axis_cells(task, starts)
    serial = [r for s in starts for r in fast_runner.run_cell(task, s)]
    assert batched == serial
    assert all(r.label == "adaptive" for r in batched)


def test_start_axis_cells_serves_large_bid(fast_runner, config):
    """Large-bid cells ride the native columns, merged over zones in
    the serial start-major, zone-minor order."""
    task = CellTask(kind="large-bid", config=config, threshold=0.81,
                    zones=fast_runner.trace.zone_names)
    starts = [float(s) for s in fast_runner.starts(config)[:2]]
    batched = fast_runner.run_start_axis_cells(task, starts)
    serial = [r for s in starts for r in fast_runner.run_cell(task, s)]
    assert batched == serial


def test_start_axis_cells_serves_redundant(fast_runner, config):
    """Merged multi-zone cells run natively as one batch."""
    task = CellTask(kind="redundant", config=config,
                    policy_label="periodic", bid=0.27, num_zones=2)
    starts = [float(s) for s in fast_runner.starts(config)[:3]]
    batched = fast_runner.run_start_axis_cells(task, starts)
    serial = [r for s in starts for r in fast_runner.run_cell(task, s)]
    assert batched == serial
    assert all(r.label == "periodic-r2" for r in batched)


def test_vector_runner_parallel_matches_serial(fast_runner, config):
    """workers > 1 chunks the axis; the ordered merge is bit-identical."""
    a = fast_runner.run_single_zone("periodic", config, 0.27)
    with ExperimentRunner(
        "low", num_experiments=EXPERIMENTS, engine_mode="vector", workers=2
    ) as par:
        b = par.run_single_zone("periodic", config, 0.27)
    assert a == b


def test_vector_runner_with_cache_interop(config, tmp_path):
    """A fast runner's cache entries serve a vector runner and back."""
    cache_dir = str(tmp_path)
    r_fast = ExperimentRunner(
        "low", num_experiments=EXPERIMENTS, cache_dir=cache_dir
    )
    a = r_fast.run_single_zone("periodic", config, 0.27)
    cold = r_fast.drain_cache_stats()
    assert cold.misses == len(a) and cold.hits == 0
    r_vec = ExperimentRunner(
        "low", num_experiments=EXPERIMENTS, engine_mode="vector",
        cache_dir=cache_dir,
    )
    b = r_vec.run_single_zone("periodic", config, 0.27)
    warm = r_vec.drain_cache_stats()
    assert warm.hits == len(a) and warm.misses == 0
    assert a == b


def test_audited_vector_runner_falls_back_per_run(config, fast_runner):
    """Audit mode needs per-run hooks: vector routing steps aside and
    the auditor still observes every run."""
    with ExperimentRunner(
        "low", num_experiments=4, engine_mode="vector", audit=True
    ) as audited:
        b = audited.run_single_zone("periodic", config, 0.27)
        report = audited.drain_audit()
    a = fast_runner.with_workers(1)
    expected = [
        r for r in a.run_single_zone("periodic", config, 0.27)
    ]
    # num_experiments differs; compare the common starts only
    starts = {rec.start_time for rec in b}
    assert [r for r in expected if r.start_time in starts] == list(b)
    assert report.ok
    assert report.counters.ticks > 0


def test_drain_cache_stats_none_without_cache(fast_runner):
    assert fast_runner.drain_cache_stats() is None


def test_vector_bid_axis_unbatched_routes_through_vector(vector_runner,
                                                         fast_runner, config):
    """Per-bid grids (one run_single_zone per bid) ride the vector path."""
    bids = (0.27, 0.81)
    a = {bid: fast_runner.run_single_zone("periodic", config, bid)
         for bid in bids}
    b = {bid: vector_runner.run_single_zone("periodic", config, bid)
         for bid in bids}
    assert a == b
