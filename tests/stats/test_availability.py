"""Unit tests for availability segmentation (Figure 2 machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.availability import (
    _mean_up_run,
    availability_fraction,
    availability_report,
    combined_segments,
    mask_to_segments,
    mean_up_run_s,
    zone_segments,
)
from repro.traces.model import SpotPriceTrace, ZoneTrace


def zone(prices):
    return ZoneTrace(zone="za", start_time=0.0, prices=np.asarray(prices, float))


class TestSegments:
    def test_single_run(self):
        segs = mask_to_segments(np.array([True, True, True]), 0.0, 300.0)
        assert len(segs) == 1
        assert segs[0].up and segs[0].duration_s == 900.0

    def test_alternating(self):
        segs = mask_to_segments(np.array([True, False, True]), 0.0, 300.0)
        assert [s.up for s in segs] == [True, False, True]
        assert [s.start_time for s in segs] == [0.0, 300.0, 600.0]

    def test_empty(self):
        assert mask_to_segments(np.array([], dtype=bool), 0.0, 300.0) == []

    def test_segments_partition_time(self):
        mask = np.array([True, False, False, True, True])
        segs = mask_to_segments(mask, 100.0, 300.0)
        assert segs[0].start_time == 100.0
        for a, b in zip(segs, segs[1:]):
            assert a.end_time == b.start_time
        assert segs[-1].end_time == 100.0 + 5 * 300.0

    def test_zone_segments_threshold(self):
        z = zone([0.3, 0.9, 0.3])
        segs = zone_segments(z, 0.5)
        assert [s.up for s in segs] == [True, False, True]


class TestFractionsAndReport:
    def test_availability_fraction(self):
        segs = mask_to_segments(np.array([True, True, False, False]), 0.0, 300.0)
        assert availability_fraction(segs) == 0.5

    def test_empty_fraction_zero(self):
        assert availability_fraction([]) == 0.0

    def test_combined_segments(self):
        t = SpotPriceTrace.from_arrays(
            0.0, {"za": [0.3, 0.9], "zb": [0.9, 0.3]}
        )
        segs = combined_segments(t, 0.5)
        assert len(segs) == 1 and segs[0].up

    def test_report(self):
        t = SpotPriceTrace.from_arrays(
            0.0, {"za": [0.3, 0.9, 0.9, 0.9], "zb": [0.9, 0.3, 0.9, 0.9]}
        )
        rep = availability_report(t, 0.5)
        assert rep.per_zone["za"] == 0.25
        assert rep.per_zone["zb"] == 0.25
        assert rep.combined == 0.5
        assert rep.redundancy_gain() == pytest.approx(0.25)


class TestMeanUpRun:
    def test_known_runs(self):
        z = zone([0.3, 0.3, 0.9, 0.3, 0.9, 0.3, 0.3, 0.3])
        # up runs: 2, 1, 3 samples -> mean 2 samples = 600 s
        assert mean_up_run_s(z, 0.5) == pytest.approx(600.0)

    def test_never_up(self):
        z = zone([0.9, 0.9])
        assert mean_up_run_s(z, 0.5) == 0.0

    def test_always_up(self):
        z = zone([0.3, 0.3, 0.3])
        assert mean_up_run_s(z, 0.5) == pytest.approx(900.0)


@given(
    mask=st.lists(st.booleans(), min_size=1, max_size=200)
)
def test_segments_reconstruct_mask(mask):
    mask = np.array(mask)
    segs = mask_to_segments(mask, 0.0, 300.0)
    # total covered time and up time match the mask exactly
    assert sum(s.duration_s for s in segs) == pytest.approx(mask.size * 300.0)
    up_time = sum(s.duration_s for s in segs if s.up)
    assert up_time == pytest.approx(mask.sum() * 300.0)
    # adjacent segments alternate state
    for a, b in zip(segs, segs[1:]):
        assert a.up != b.up


def segment_mean_up_run(z: ZoneTrace, bid: float) -> float:
    """The segment-list estimator the count form replaced."""
    runs = [s.duration_s for s in zone_segments(z, bid) if s.up]
    return float(np.mean(runs)) if runs else 0.0


@pytest.mark.parametrize("mask", [
    [True] * 576,              # all up: one run
    [False] * 576,             # all down: no run
    [True],                    # single up sample
    [False],                   # single down sample
    [False, True],             # run opening at the last sample
    [True, False] * 288,       # single-sample runs throughout
])
def test_count_form_pinned_windows(mask):
    z = zone(np.where(mask, 0.3, 0.9))
    assert mean_up_run_s(z, 0.5) == segment_mean_up_run(z, 0.5)


@given(
    mask=st.lists(st.booleans(), min_size=1, max_size=600),
    interval_s=st.sampled_from([300, 300.0, 60, 3600]),
)
def test_count_form_equals_segment_mean_bit_for_bit(mask, interval_s):
    prices = np.where(mask, 0.3, 0.9)
    z = ZoneTrace(zone="za", start_time=0.0, prices=prices, interval_s=interval_s)
    expected = segment_mean_up_run(z, 0.5)
    assert mean_up_run_s(z, 0.5).hex() == expected.hex()
    assert _mean_up_run(prices, 0.5, interval_s).hex() == expected.hex()
