"""Unit tests for the parameter-sweep utilities."""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweeps import (
    SweepPoint,
    sweep_bid,
    sweep_ckpt_cost,
    sweep_slack,
    sweep_zones,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner("low", num_experiments=3)


class TestSweepShapes:
    def test_slack_sweep(self, runner):
        points = sweep_slack(runner, (0.25, 0.5))
        assert [p.value for p in points] == [0.25, 0.5]
        assert all(isinstance(p, SweepPoint) for p in points)
        assert all(p.violations == 0 for p in points)

    def test_ckpt_sweep(self, runner):
        points = sweep_ckpt_cost(runner, (300.0, 900.0), slack_fraction=0.5)
        assert [p.value for p in points] == [300.0, 900.0]
        # costlier checkpoints never make the run cheaper (calm window)
        assert points[1].stats.median >= points[0].stats.median * 0.9

    def test_bid_sweep(self, runner):
        points = sweep_bid(runner, (0.27, 0.81))
        assert len(points) == 2
        # in the calm window a $0.81 bid dominates a floor bid
        assert points[1].stats.median <= points[0].stats.median

    def test_zone_sweep(self, runner):
        points = sweep_zones(runner, (1, 3), slack_fraction=0.5)
        assert [p.value for p in points] == [1, 3]
        # three calm zones cost roughly three singles
        assert points[1].stats.median > points[0].stats.median

    def test_redundant_flag(self, runner):
        single = sweep_slack(runner, (0.5,))[0]
        redundant = sweep_slack(runner, (0.5,), redundant=True)[0]
        # redundancy pays for extra zones in the calm window
        assert redundant.stats.median > single.stats.median

    def test_row_format(self, runner):
        point = sweep_slack(runner, (0.5,))[0]
        row = point.row()
        assert row[0] == 0.5
        assert len(row) == 5


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created."""
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestWidenedRunner:
    def test_sweep_closes_the_runner_it_widened(self, monkeypatch):
        runner = ExperimentRunner("low", num_experiments=2)
        widened = []
        with_workers = ExperimentRunner.with_workers

        def spy(self, workers):
            out = with_workers(self, workers)
            widened.append(out)
            return out

        monkeypatch.setattr(ExperimentRunner, "with_workers", spy)
        before = _shm_segments()
        points = sweep_slack(runner, [0.15], workers=2)
        assert [p.value for p in points] == [0.15]
        assert len(widened) == 1 and widened[0] is not runner
        assert widened[0]._executor is None
        assert _shm_segments() <= before

    def test_sweep_never_closes_the_callers_runner(self):
        with ExperimentRunner("low", num_experiments=2, workers=2) as runner:
            sweep_slack(runner, [0.15], workers=2)
            assert runner._executor is not None
