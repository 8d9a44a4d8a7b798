"""Zone and combined availability analysis (Figure 2).

Figure 2 of the paper shows, for a 15-hour window, when each of the
three CC2 US-East zones was up at a given bid and the combined up time
(at least one zone up).  These helpers turn a
:class:`~repro.traces.model.SpotPriceTrace` plus a bid into exactly
that data: up/down segments per zone, the combined segment bar, and
availability fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.model import SpotPriceTrace, ZoneTrace


@dataclass(frozen=True)
class Segment:
    """A maximal run of consecutive samples in one state."""

    start_time: float
    end_time: float
    up: bool

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time


def up_mask(zone: ZoneTrace, bid: float) -> np.ndarray:
    """Boolean per-sample "would a bid of ``bid`` keep this zone up"."""
    return zone.prices <= bid


def mask_to_segments(
    mask: np.ndarray, start_time: float, interval_s: float
) -> list[Segment]:
    """Collapse a boolean sample mask into maximal up/down segments."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return []
    change = np.flatnonzero(np.diff(mask)) + 1
    bounds = np.concatenate(([0], change, [mask.size]))
    return [
        Segment(
            start_time=start_time + interval_s * int(b0),
            end_time=start_time + interval_s * int(b1),
            up=bool(mask[b0]),
        )
        for b0, b1 in zip(bounds[:-1], bounds[1:])
    ]


def zone_segments(zone: ZoneTrace, bid: float) -> list[Segment]:
    """Up/down segments of one zone at a bid — one bar of Figure 2."""
    return mask_to_segments(up_mask(zone, bid), zone.start_time, zone.interval_s)


def combined_segments(trace: SpotPriceTrace, bid: float) -> list[Segment]:
    """Segments of "at least one zone up" — the top bar of Figure 2."""
    combined = (trace.matrix() <= bid).any(axis=0)
    return mask_to_segments(combined, trace.start_time, trace.interval_s)


def availability_fraction(segments: list[Segment]) -> float:
    """Fraction of covered time spent up."""
    total = sum(s.duration_s for s in segments)
    if total == 0:
        return 0.0
    return sum(s.duration_s for s in segments if s.up) / total


@dataclass(frozen=True)
class AvailabilityReport:
    """Figure 2 in data form: per-zone and combined availability."""

    bid: float
    window_start: float
    window_duration_s: float
    per_zone: dict[str, float]
    combined: float

    def redundancy_gain(self) -> float:
        """Combined availability minus the best single zone's."""
        return self.combined - max(self.per_zone.values())


def availability_report(trace: SpotPriceTrace, bid: float) -> AvailabilityReport:
    """Compute per-zone and combined availability over a trace window."""
    per_zone = {
        z.zone: availability_fraction(zone_segments(z, bid)) for z in trace.zones
    }
    combined = availability_fraction(combined_segments(trace, bid))
    return AvailabilityReport(
        bid=bid,
        window_start=trace.start_time,
        window_duration_s=trace.duration_s,
        per_zone=per_zone,
        combined=combined,
    )


def mean_up_run_s(zone: ZoneTrace, bid: float) -> float:
    """Mean length of an uninterrupted up run, in seconds.

    The Threshold policy's ``TimeThresh`` (Section 4.4) is the
    "probabilistic average up time of a zone"; the empirical mean up
    run over the history window is its estimator.
    """
    return _mean_up_run(zone.prices, bid, zone.interval_s)


def _mean_up_run(prices: np.ndarray, bid: float, interval_s: float) -> float:
    """:func:`mean_up_run_s` over a bare price window.

    Up samples times the interval over the number of up runs, with
    runs counted at their rising edges (plus one when the window opens
    up): no segment list.  Every up segment lasts a whole number of
    intervals, so this is the mean of the segment durations, bit for
    bit when their start and end times are exact (a window starting at
    time zero, as the oracle's are).
    """
    up = np.asarray(prices) <= bid
    n_up = int(np.count_nonzero(up))
    if n_up == 0:
        return 0.0
    runs = int(np.count_nonzero(up[1:] > up[:-1])) + bool(up[0])
    return n_up * interval_s / runs
