"""Spot-instance lifecycle state machine for one availability zone.

Algorithm 1 distinguishes *down*, *waiting* and *up* zones; "up" in
practice decomposes into the activities an instance passes through, so
the simulator uses six states:

====================  =====================================================
``DOWN``              spot price above bid (or zone released by the user)
``WAITING``           eligible (B >= S) but not yet granted a spot request
``QUEUING``           request granted; waiting out the acquisition delay
``RESTARTING``        loading the most recent checkpoint (t_r seconds)
``COMPUTING``         making progress on the application
``CHECKPOINTING``     writing a checkpoint (t_c seconds); computation blocked
====================  =====================================================

The four "running" states (QUEUING…CHECKPOINTING) hold an open billing
hour; DOWN and WAITING cost nothing.  Transitions are driven by the
engine; this class only enforces their legality and tracks per-zone
progress accounting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.market.billing import BillingMeter


class ZoneState(enum.Enum):
    DOWN = "down"
    WAITING = "waiting"
    QUEUING = "queuing"
    RESTARTING = "restarting"
    COMPUTING = "computing"
    CHECKPOINTING = "checkpointing"


#: States in which a spot instance exists and is being billed.
RUNNING_STATES = frozenset(
    {ZoneState.QUEUING, ZoneState.RESTARTING, ZoneState.COMPUTING,
     ZoneState.CHECKPOINTING}
)


#: The non-running members bound to plain module names for
#: :attr:`ZoneInstance.is_running`, tested about once per zone per tick:
#: ``state in RUNNING_STATES`` hashes through the Python-level
#: ``Enum.__hash__``, and looking a member up on the Enum class costs
#: more than an identity test against a module global.  Every member
#: not named here is in :data:`RUNNING_STATES`.
DOWN = ZoneState.DOWN
WAITING = ZoneState.WAITING


class InstanceError(RuntimeError):
    """Raised on illegal lifecycle transitions."""


@dataclass
class ZoneInstance:
    """One zone's instance, progress, and billing state.

    Attributes
    ----------
    zone:
        Availability-zone name.
    state:
        Current :class:`ZoneState`.
    phase_remaining_s:
        Seconds left in the current timed activity (queuing delay,
        restart, or checkpoint); meaningless while COMPUTING.
    base_progress_s:
        Committed progress (seconds of C) this run restarted from.
    computed_s:
        Seconds of application compute completed since the restart.
    computing_since:
        Timestamp the zone last entered COMPUTING after a restart or a
        checkpoint — the Threshold policy's "execution time at B" anchor.
    pending_checkpoint_progress_s:
        Local progress captured when the in-flight checkpoint started
        (a checkpoint snapshots state at its *start*).
    billing:
        Per-instance billing meter.
    """

    zone: str
    state: ZoneState = ZoneState.DOWN
    phase_remaining_s: float = 0.0
    base_progress_s: float = 0.0
    computed_s: float = 0.0
    computing_since: float | None = None
    pending_checkpoint_progress_s: float = 0.0
    billing: BillingMeter = field(default_factory=BillingMeter)
    # counters for run diagnostics
    num_provider_terminations: int = 0
    num_restarts: int = 0
    num_checkpoints_started: int = 0
    #: Optional audit hook, called as ``observer(zone, old, new)`` on
    #: every state change (never on same-state no-ops).  The run-audit
    #: layer uses it to validate transition legality independently of
    #: this class's own guards.
    observer: Callable[[str, ZoneState, ZoneState], None] | None = field(
        default=None, repr=False, compare=False
    )

    # -- queries ---------------------------------------------------------

    @property
    def is_running(self) -> bool:
        state = self.state
        return state is not DOWN and state is not WAITING

    @property
    def local_progress_s(self) -> float:
        """Speculative progress of this zone's run (lost if terminated)."""
        return self.base_progress_s + self.computed_s

    def execution_time_at_bid(self, now: float) -> float:
        """Seconds computing since the last restart or checkpoint end."""
        if self.computing_since is None:
            return 0.0
        return max(now - self.computing_since, 0.0)

    # -- transitions ------------------------------------------------------

    def mark_down(self) -> None:
        """Zone ineligible (S > B) while not running."""
        if self.is_running:
            raise InstanceError(f"{self.zone}: use provider_terminate when running")
        self._transition(ZoneState.DOWN)

    def mark_waiting(self) -> None:
        """Zone became eligible (B >= S) but no request submitted yet."""
        if self.is_running:
            raise InstanceError(f"{self.zone}: cannot wait while running")
        self._transition(ZoneState.WAITING)

    def provider_terminate(self) -> float:
        """Out-of-bid termination: lose speculative work and partial hour."""
        if not self.is_running:
            raise InstanceError(f"{self.zone}: not running")
        forfeited = self.billing.provider_terminate()
        self._reset_run()
        self._transition(ZoneState.DOWN)
        self.num_provider_terminations += 1
        return forfeited

    def user_release(self, now: float, reason: str = "user") -> float:
        """User-initiated termination: open hour charged, work discarded."""
        if not self.is_running:
            raise InstanceError(f"{self.zone}: not running")
        charged = self.billing.user_close(now, reason=reason)
        self._reset_run()
        self._transition(ZoneState.DOWN)
        return charged

    def start(
        self,
        now: float,
        spot_price: float,
        queue_delay_s: float,
        restart_cost_s: float,
        from_progress_s: float,
    ) -> None:
        """Submit the spot request: QUEUING, then restart, then compute.

        Billing opens immediately at the current spot price — the
        instance is "running" (and charged) while it boots and while it
        loads the checkpoint.
        """
        if self.state is not ZoneState.WAITING:
            raise InstanceError(f"{self.zone}: can only start from WAITING")
        if queue_delay_s < 0 or restart_cost_s < 0:
            raise InstanceError("delays must be >= 0")
        self._transition(ZoneState.QUEUING)
        # restart cost is folded into the timed pipeline: queue, then restore
        self.phase_remaining_s = queue_delay_s
        self._pending_restart_s = restart_cost_s
        self.base_progress_s = from_progress_s
        self.computed_s = 0.0
        self.computing_since = None
        self.billing.open_hour(now, spot_price)
        self.num_restarts += 1

    def begin_checkpoint(self, now: float, ckpt_cost_s: float) -> None:
        """Start writing a checkpoint; snapshots progress at start."""
        if self.state is not ZoneState.COMPUTING:
            raise InstanceError(f"{self.zone}: can only checkpoint while computing")
        if ckpt_cost_s <= 0:
            raise InstanceError("checkpoint cost must be positive")
        self.pending_checkpoint_progress_s = self.local_progress_s
        self._transition(ZoneState.CHECKPOINTING)
        self.phase_remaining_s = ckpt_cost_s
        self.num_checkpoints_started += 1

    # -- time advancement --------------------------------------------------

    def advance(
        self,
        now: float,
        dt: float,
        total_compute_s: float,
        compute_rate: float = 1.0,
    ) -> tuple[float, float | None]:
        """Advance this zone ``dt`` seconds of wall-clock time.

        Parameters
        ----------
        now:
            Wall-clock at the start of the step.
        dt:
            Step length, seconds.
        total_compute_s:
            The application's total compute requirement C, so the zone
            stops exactly when its local progress reaches C.
        compute_rate:
            Application performance factor for this step: progress
            accrues at ``compute_rate`` nominal seconds per wall
            second (1.0 = the profiled rate the user's C assumes).

        Returns
        -------
        (committed_progress, completion_offset):
            ``committed_progress`` is the progress value to commit if a
            checkpoint *finished* during this step, else ``-1``.
            ``completion_offset`` is seconds into the step at which the
            zone's local run reached C, or ``None``.
        """
        if not self.is_running:
            return -1.0, None
        remaining = dt
        committed = -1.0
        completion: float | None = None
        while remaining > 1e-9:
            if self.state is ZoneState.QUEUING:
                used = min(self.phase_remaining_s, remaining)
                self.phase_remaining_s -= used
                remaining -= used
                if self.phase_remaining_s <= 1e-9:
                    self._transition(ZoneState.RESTARTING)
                    self.phase_remaining_s = self._pending_restart_s
                    if self.phase_remaining_s <= 1e-9:
                        # fresh start: nothing to restore
                        self._transition(ZoneState.COMPUTING)
                        self.computing_since = now + (dt - remaining)
            elif self.state is ZoneState.RESTARTING:
                used = min(self.phase_remaining_s, remaining)
                self.phase_remaining_s -= used
                remaining -= used
                if self.phase_remaining_s <= 1e-9:
                    self._transition(ZoneState.COMPUTING)
                    self.computing_since = now + (dt - remaining)
            elif self.state is ZoneState.CHECKPOINTING:
                used = min(self.phase_remaining_s, remaining)
                self.phase_remaining_s -= used
                remaining -= used
                if self.phase_remaining_s <= 1e-9:
                    committed = self.pending_checkpoint_progress_s
                    self._transition(ZoneState.COMPUTING)
                    self.computing_since = now + (dt - remaining)
            elif self.state is ZoneState.COMPUTING:
                need = total_compute_s - self.local_progress_s
                if need <= 1e-9:
                    completion = dt - remaining
                    break
                if compute_rate <= 0.0:
                    # stalled application phase: wall time passes,
                    # nothing is accomplished
                    remaining = 0.0
                    break
                used = min(need / compute_rate, remaining)
                self.computed_s += used * compute_rate
                remaining -= used
                if total_compute_s - self.local_progress_s <= 1e-9:
                    completion = dt - remaining
                    break
            else:  # pragma: no cover - running states are exhaustive
                raise InstanceError(f"{self.zone}: advance in state {self.state}")
        return committed, completion

    # -- internals ----------------------------------------------------------

    def _transition(self, new: ZoneState) -> None:
        """Change state, notifying the observer on real edges only."""
        if self.observer is not None and new is not self.state:
            self.observer(self.zone, self.state, new)
        self.state = new

    def _reset_run(self) -> None:
        self.phase_remaining_s = 0.0
        self.computed_s = 0.0
        self.base_progress_s = 0.0
        self.computing_since = None
        self.pending_checkpoint_progress_s = 0.0

    _pending_restart_s: float = 0.0
