"""Differential replay: fast vs. tick engines, diffed field by field.

The segment-skipping engine promises results *bit-identical* to the
reference tick loop.  This module turns that promise into a reusable
check: :func:`differential_run` executes one configuration under both
engine modes — fresh oracle, policy, RNG and auditor per mode, so each
engine seeds every cache through its own query pattern — and diffs

* every scalar field of the two :class:`~repro.core.engine.RunResult`
  objects, and
* the two audited event streams, position by position and field by
  field (meta events excluded: ``run-end`` counters legitimately
  differ — that is the point of the fast path).

A non-empty report pinpoints the first divergent event, which is the
fastest way to localize a fast-path bug: the divergence names the
simulation time, zone and event kind where the engines disagree.

:func:`vector_differential_run` extends the same contract to the
struct-of-arrays batch engine (:mod:`repro.core.vector_engine`): a
whole start axis runs once through the vector engine and once through
per-run audited fast simulations, and every run is diffed field by
field — RunResults, engine event logs, and the vector log against the
scalar side's *audited* stream (meta and transition events filtered
out), so the batch path is held to the exact event sequence the audit
layer certifies.  :func:`vector_differential_cube` does the same for a
(shape x bid x start) cube — a fused (bid x start) tile is its
one-shape case — holding every row, bid-equivalence clones included,
to an independent audited run at its own bid and (compute, deadline,
checkpoint-cost) shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from repro.audit.auditor import AuditReport, RunAuditor
from repro.audit.events import META_KINDS, AuditEvent
from repro.audit.sink import MemorySink

#: Cap on reported diffs; past the first few, more add noise not signal.
MAX_DIFFS = 50

#: Audited kinds with no counterpart in an engine event log: auditor
#: meta events plus the state-machine transition narration.
NON_LOG_KINDS: frozenset[str] = META_KINDS | {"transition"}


@dataclass(frozen=True)
class FieldDiff:
    """One disagreement between the two engines."""

    where: str  # "result" or "event[<index>]"
    field: str
    fast: object
    tick: object

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.where}.{self.field}: fast={self.fast!r} tick={self.tick!r}"


@dataclass
class DifferentialReport:
    """Outcome of one fast-vs-tick differential replay."""

    result_diffs: list[FieldDiff] = field(default_factory=list)
    event_diffs: list[FieldDiff] = field(default_factory=list)
    fast_audit: AuditReport = field(default_factory=AuditReport)
    tick_audit: AuditReport = field(default_factory=AuditReport)
    fast_result: object = None
    tick_result: object = None

    @property
    def identical(self) -> bool:
        return not self.result_diffs and not self.event_diffs

    @property
    def ok(self) -> bool:
        """Identical streams *and* zero invariant violations either side."""
        return self.identical and self.fast_audit.ok and self.tick_audit.ok

    def summary_lines(self) -> list[str]:
        lines = []
        if self.identical:
            lines.append("differential: engines agree on every field")
        else:
            lines.append(
                f"differential: {len(self.result_diffs)} result field diffs, "
                f"{len(self.event_diffs)} event diffs"
            )
            for d in (self.result_diffs + self.event_diffs)[:MAX_DIFFS]:
                lines.append(f"differential: {d}")
        for name, audit in (("fast", self.fast_audit), ("tick", self.tick_audit)):
            if not audit.ok:
                lines.append(
                    f"differential: {name} engine reported "
                    f"{len(audit.violations)} invariant violations"
                )
        return lines


def _comparable(events: Sequence[AuditEvent]) -> list[AuditEvent]:
    """Engine-originated events only (meta kinds carry mode-dependent data)."""
    return [e for e in events if e.kind not in META_KINDS]


def diff_event_streams(
    fast_events: Sequence[AuditEvent],
    tick_events: Sequence[AuditEvent],
) -> list[FieldDiff]:
    """Positional, field-by-field diff of two audited event streams.

    ``seq`` and ``run`` are excluded: they number the streams, they are
    not simulation content, and one early insertion would otherwise
    cascade into a diff at every later event.
    """
    a, b = _comparable(fast_events), _comparable(tick_events)
    diffs: list[FieldDiff] = []
    for i, (ea, eb) in enumerate(zip(a, b)):
        for name in ("time", "kind", "zone", "detail", "data"):
            va, vb = getattr(ea, name), getattr(eb, name)
            if va != vb:
                diffs.append(FieldDiff(f"event[{i}]", name, va, vb))
                if len(diffs) >= MAX_DIFFS:
                    return diffs
    if len(a) != len(b):
        diffs.append(FieldDiff("event-stream", "length", len(a), len(b)))
        longer, label = (a, "fast") if len(a) > len(b) else (b, "tick")
        extra = longer[min(len(a), len(b))]
        diffs.append(
            FieldDiff(f"event[{min(len(a), len(b))}]", "only-in-" + label,
                      extra.kind, extra.detail)
        )
    return diffs


def diff_results(fast_result, tick_result) -> list[FieldDiff]:
    """Field-by-field diff of two RunResults (event logs included)."""
    diffs: list[FieldDiff] = []
    for f in fields(fast_result):
        va, vb = getattr(fast_result, f.name), getattr(tick_result, f.name)
        if va != vb:
            diffs.append(FieldDiff("result", f.name, va, vb))
    return diffs


def differential_run(
    trace,
    config,
    policy_factory: Callable[[], object],
    bid: float,
    zones: tuple[str, ...],
    start_time: float,
    *,
    queue_model=None,
    seed: int = 0,
    controller_factory: Callable[[], object] | None = None,
    deadline_schedule=None,
    performance=None,
) -> DifferentialReport:
    """Replay one configuration under both engine modes and diff them.

    Every per-mode ingredient is constructed fresh — oracle (so each
    engine seeds the hour-bucket statistic caches through its own query
    pattern), policy (stateful per run), RNG (so queue-delay draws
    match), controller, and auditor — exactly mirroring how the two
    modes run in production.
    """
    from repro.core.engine import SpotSimulator
    from repro.market.queuing import QueueDelayModel
    from repro.market.spot_market import PriceOracle

    runs = {}
    sinks = {}
    audits = {}
    for mode in ("fast", "tick"):
        sink = MemorySink()
        auditor = RunAuditor(sink=sink, strict=False)
        sim = SpotSimulator(
            oracle=PriceOracle(trace),
            queue_model=queue_model or QueueDelayModel(),
            rng=np.random.default_rng(seed),
            record_events=True,
            engine_mode=mode,
            auditor=auditor,
        )
        controller = controller_factory() if controller_factory else None
        runs[mode] = sim.run(
            config,
            policy_factory(),
            bid,
            zones,
            start_time,
            controller=controller,
            deadline_schedule=deadline_schedule,
            performance=performance,
        )
        sinks[mode] = sink
        audits[mode] = auditor.drain()
    return DifferentialReport(
        result_diffs=diff_results(runs["fast"], runs["tick"]),
        event_diffs=diff_event_streams(
            sinks["fast"].events, sinks["tick"].events
        ),
        fast_audit=audits["fast"],
        tick_audit=audits["tick"],
        fast_result=runs["fast"],
        tick_result=runs["tick"],
    )


@dataclass
class VectorDifferentialReport:
    """Outcome of one vector-vs-fast batch replay.

    Diffs reuse :class:`FieldDiff` with the vector engine's value in
    ``fast`` and the scalar fast engine's in ``tick`` (the comparison
    baseline); ``where`` carries a ``start[i]`` prefix naming the run.
    """

    #: RunResult field diffs (events included — tuple equality).
    result_diffs: list[FieldDiff] = field(default_factory=list)
    #: Vector event log vs the scalar side's audited stream, positional.
    audit_stream_diffs: list[FieldDiff] = field(default_factory=list)
    #: The scalar side's invariant-check outcome.
    fast_audit: AuditReport = field(default_factory=AuditReport)
    vector_results: list = field(default_factory=list)
    fast_results: list = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.result_diffs and not self.audit_stream_diffs

    @property
    def ok(self) -> bool:
        """Bit-identical batch *and* a violation-free scalar audit."""
        return self.identical and self.fast_audit.ok

    def summary_lines(self) -> list[str]:
        lines = []
        if self.identical:
            lines.append(
                f"vector-differential: {len(self.fast_results)} runs "
                "bit-identical (results and audited event streams)"
            )
        else:
            lines.append(
                f"vector-differential: {len(self.result_diffs)} result "
                f"field diffs, {len(self.audit_stream_diffs)} audited "
                "event diffs"
            )
            for d in (self.result_diffs + self.audit_stream_diffs)[:MAX_DIFFS]:
                lines.append(f"vector-differential: {d}")
        if not self.fast_audit.ok:
            lines.append(
                "vector-differential: scalar side reported "
                f"{len(self.fast_audit.violations)} invariant violations"
            )
        return lines


def diff_log_vs_audit_stream(
    log_events: Sequence[object],
    audited: Sequence[AuditEvent],
    where: str = "event",
) -> list[FieldDiff]:
    """Positional diff of an engine event log against an audited stream.

    The audited stream is first filtered to the kinds an engine log
    carries (:data:`NON_LOG_KINDS` removed); the remaining events must
    then match the log entry for entry on the four shared fields.
    """
    b = [e for e in audited if e.kind not in NON_LOG_KINDS]
    diffs: list[FieldDiff] = []
    for i, (ea, eb) in enumerate(zip(log_events, b)):
        for name in ("time", "kind", "zone", "detail"):
            va, vb = getattr(ea, name), getattr(eb, name)
            if va != vb:
                diffs.append(FieldDiff(f"{where}[{i}]", name, va, vb))
                if len(diffs) >= MAX_DIFFS:
                    return diffs
    if len(log_events) != len(b):
        diffs.append(
            FieldDiff(where, "length", len(log_events), len(b))
        )
    return diffs


def vector_differential_run(
    trace,
    config,
    policy_factory: Callable[[], object],
    bid: float,
    zones: tuple[str, ...],
    starts: Sequence[float],
    *,
    queue_model=None,
    seed: int = 0,
) -> VectorDifferentialReport:
    """Replay a start axis under the vector and fast engines and diff.

    The vector side runs the whole batch at once through
    :class:`~repro.core.vector_engine.VectorSimulator` (native lockstep
    or per-run fallback, whatever the policy admits); the scalar side
    runs every start through an *audited* fast simulator.  Both sides
    get fresh oracles and runner-style per-start RNG streams
    (``SeedSequence(entropy=seed, spawn_key=(start,))``), mirroring how
    ``ExperimentRunner`` seeds the grid.  Every run is then diffed:
    RunResult fields (the engine event logs ride along as a field) plus
    the vector log against the audited stream, which pins the batch
    engine to the event sequence the invariant checker certified.
    """
    from repro.core.engine import SpotSimulator
    from repro.core.vector_engine import VectorSimulator
    from repro.market.queuing import QueueDelayModel
    from repro.market.spot_market import PriceOracle

    qm = queue_model or QueueDelayModel()
    starts = [float(s) for s in starts]

    def start_rngs():
        return [
            np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(int(s),))
            )
            for s in starts
        ]

    fast_oracle = PriceOracle(trace)
    sink = MemorySink()
    auditor = RunAuditor(sink=sink, strict=False)
    fast_results = []
    audited_streams: list[list[AuditEvent]] = []
    for s, rng in zip(starts, start_rngs()):
        before = len(sink.events)
        sim = SpotSimulator(
            oracle=fast_oracle, queue_model=qm, rng=rng,
            record_events=True, engine_mode="fast", auditor=auditor,
        )
        fast_results.append(sim.run(config, policy_factory(), bid, zones, s))
        audited_streams.append(list(sink.events[before:]))
    fast_audit = auditor.drain()

    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=qm, record_events=True
    )
    vector_results = vec.run_cube(
        [config], policy_factory, zones, [0] * len(starts),
        [bid] * len(starts), starts, start_rngs(),
    )

    report = VectorDifferentialReport(
        fast_audit=fast_audit,
        vector_results=vector_results,
        fast_results=fast_results,
    )
    for i, (v, f) in enumerate(zip(vector_results, fast_results)):
        for d in diff_results(v, f):
            report.result_diffs.append(
                FieldDiff(f"start[{i}].{d.where}", d.field, d.fast, d.tick)
            )
        report.audit_stream_diffs.extend(
            diff_log_vs_audit_stream(
                v.events, audited_streams[i], where=f"start[{i}].event"
            )
        )
    return report


def vector_differential_adaptive(
    trace,
    config,
    controller_factory: Callable[[], object],
    starts: Sequence[float],
    *,
    queue_model=None,
    seed: int = 0,
) -> VectorDifferentialReport:
    """Replay an Adaptive-controller start axis under both engines.

    The scalar side runs every start through an audited fast simulator
    with a fresh controller, bootstrapped exactly like the experiment
    runner's Adaptive cells (``PeriodicPolicy`` at ``bids[0]`` on the
    trace's first zone); the vector side serves the whole axis through
    :meth:`~repro.core.vector_engine.VectorSimulator.run_adaptive_cube`.
    Beyond the usual field-by-field diffs, bit-identical event streams
    here certify *winner-identical controller decisions*: every
    ``config-switch`` event carries the chosen policy, bid and zone
    count, so a single divergent decision anywhere shows up as an
    event diff.
    """
    from repro.core.engine import SpotSimulator
    from repro.core.periodic import PeriodicPolicy
    from repro.core.vector_engine import VectorSimulator
    from repro.market.queuing import QueueDelayModel
    from repro.market.spot_market import PriceOracle

    qm = queue_model or QueueDelayModel()
    starts = [float(s) for s in starts]
    zones = tuple(trace.zone_names[:1])

    def start_rngs():
        return [
            np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(int(s),))
            )
            for s in starts
        ]

    fast_oracle = PriceOracle(trace)
    sink = MemorySink()
    auditor = RunAuditor(sink=sink, strict=False)
    fast_results = []
    audited_streams: list[list[AuditEvent]] = []
    for s, rng in zip(starts, start_rngs()):
        before = len(sink.events)
        sim = SpotSimulator(
            oracle=fast_oracle, queue_model=qm, rng=rng,
            record_events=True, engine_mode="fast", auditor=auditor,
        )
        controller = controller_factory()
        fast_results.append(sim.run(
            config, PeriodicPolicy(), controller.bids[0], zones, s,
            controller=controller,
        ))
        audited_streams.append(list(sink.events[before:]))
    fast_audit = auditor.drain()

    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=qm, record_events=True
    )
    vector_results = vec.run_adaptive_cube(
        [config], controller_factory, [0] * len(starts), starts,
        start_rngs(),
    )

    report = VectorDifferentialReport(
        fast_audit=fast_audit,
        vector_results=vector_results,
        fast_results=fast_results,
    )
    for i, (v, f) in enumerate(zip(vector_results, fast_results)):
        for d in diff_results(v, f):
            report.result_diffs.append(
                FieldDiff(f"start[{i}].{d.where}", d.field, d.fast, d.tick)
            )
        report.audit_stream_diffs.extend(
            diff_log_vs_audit_stream(
                v.events, audited_streams[i], where=f"start[{i}].event"
            )
        )
    return report


def vector_differential_cube(
    trace,
    configs: Sequence,
    policy_factory: Callable[[], object],
    bids: Sequence[float],
    zones: tuple[str, ...],
    starts_per_shape: Sequence[Sequence[float]],
    *,
    queue_model=None,
    seed: int = 0,
) -> VectorDifferentialReport:
    """Replay a fused (shape x bid x start) cube and diff it row by row.

    Rows follow :func:`~repro.core.bid_batch.cube_layout` — the layout
    ``ExperimentRunner.run_cube_cell`` feeds the engine — with the
    availability-equivalence clone plan resolved per (shape, start) so
    clones never cross shapes.  A fused (bid x start) tile is the
    one-shape case.  The scalar side simulates *every* row
    independently through an audited fast engine at that row's own
    bid and :class:`~repro.app.workload.ExperimentConfig`, so cloned
    rows are held to a full independent run, not merely to their
    representative, and sharing the zone-dynamics column work across
    the shape ladder must leave each shape's RunResults, event logs and
    queue-delay draw sequences exactly what standalone runs produce.
    """
    from repro.core.bid_batch import cube_layout
    from repro.core.engine import SpotSimulator
    from repro.core.vector_engine import VectorSimulator
    from repro.market.queuing import QueueDelayModel
    from repro.market.spot_market import PriceOracle

    qm = queue_model or QueueDelayModel()
    configs = list(configs)
    zones = tuple(zones)
    shape_idx, row_bids, row_starts, _, clone_of = cube_layout(
        trace, zones, configs, [float(b) for b in bids], starts_per_shape,
        bid_invariant=getattr(type(policy_factory()), "bid_invariant", False),
    )

    def row_rngs():
        return [
            np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(int(s),))
            )
            for s in row_starts
        ]

    fast_oracle = PriceOracle(trace)
    sink = MemorySink()
    auditor = RunAuditor(sink=sink, strict=False)
    fast_results = []
    audited_streams: list[list[AuditEvent]] = []
    for k, bid, s, rng in zip(shape_idx, row_bids, row_starts, row_rngs()):
        before = len(sink.events)
        sim = SpotSimulator(
            oracle=fast_oracle, queue_model=qm, rng=rng,
            record_events=True, engine_mode="fast", auditor=auditor,
        )
        fast_results.append(
            sim.run(configs[k], policy_factory(), bid, zones, s)
        )
        audited_streams.append(list(sink.events[before:]))
    fast_audit = auditor.drain()

    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=qm, record_events=True
    )
    vector_results = vec.run_cube(
        configs, policy_factory, zones, shape_idx, row_bids, row_starts,
        row_rngs(), clone_of=clone_of,
    )

    report = VectorDifferentialReport(
        fast_audit=fast_audit,
        vector_results=vector_results,
        fast_results=fast_results,
    )
    for i, (v, f) in enumerate(zip(vector_results, fast_results)):
        where = f"row[{i}](shape={shape_idx[i]},bid={row_bids[i]:.2f})"
        for d in diff_results(v, f):
            report.result_diffs.append(
                FieldDiff(f"{where}.{d.where}", d.field, d.fast, d.tick)
            )
        report.audit_stream_diffs.extend(
            diff_log_vs_audit_stream(
                v.events, audited_streams[i], where=f"{where}.event"
            )
        )
    return report
