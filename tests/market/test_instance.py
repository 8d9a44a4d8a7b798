"""Unit tests for the zone-instance state machine."""

from __future__ import annotations

import pytest

from repro.market.instance import (
    RUNNING_STATES,
    InstanceError,
    ZoneInstance,
    ZoneState,
)


def started_instance(
    queue_delay_s: float = 300.0,
    restart_cost_s: float = 300.0,
    from_progress_s: float = 0.0,
    price: float = 0.30,
) -> ZoneInstance:
    inst = ZoneInstance(zone="za")
    inst.mark_waiting()
    inst.start(
        now=0.0,
        spot_price=price,
        queue_delay_s=queue_delay_s,
        restart_cost_s=restart_cost_s,
        from_progress_s=from_progress_s,
    )
    return inst


class TestTransitions:
    def test_initial_state_down(self):
        assert ZoneInstance(zone="za").state is ZoneState.DOWN

    def test_waiting_then_start(self):
        inst = started_instance()
        assert inst.state is ZoneState.QUEUING
        assert inst.is_running
        assert inst.billing.is_open

    def test_start_requires_waiting(self):
        inst = ZoneInstance(zone="za")
        with pytest.raises(InstanceError):
            inst.start(0.0, 0.3, 300.0, 300.0, 0.0)

    def test_cannot_wait_while_running(self):
        inst = started_instance()
        with pytest.raises(InstanceError):
            inst.mark_waiting()

    def test_running_states_enumeration(self):
        assert ZoneState.COMPUTING in RUNNING_STATES
        assert ZoneState.WAITING not in RUNNING_STATES
        assert ZoneState.DOWN not in RUNNING_STATES

    @pytest.mark.parametrize("state", list(ZoneState))
    def test_is_running_agrees_with_running_states(self, state):
        assert ZoneInstance(zone="za", state=state).is_running is (
            state in RUNNING_STATES
        )


class TestAdvancePipeline:
    def test_queue_then_restart_then_compute(self):
        inst = started_instance(queue_delay_s=300.0, restart_cost_s=300.0)
        inst.advance(0.0, 300.0, 7200.0)
        assert inst.state is ZoneState.RESTARTING
        inst.advance(300.0, 300.0, 7200.0)
        assert inst.state is ZoneState.COMPUTING
        inst.advance(600.0, 300.0, 7200.0)
        assert inst.computed_s == pytest.approx(300.0)

    def test_fractional_phases_within_one_tick(self):
        inst = started_instance(queue_delay_s=100.0, restart_cost_s=50.0)
        inst.advance(0.0, 300.0, 7200.0)
        assert inst.state is ZoneState.COMPUTING
        assert inst.computed_s == pytest.approx(150.0)

    def test_zero_restart_cost_for_fresh_start(self):
        inst = started_instance(queue_delay_s=300.0, restart_cost_s=0.0)
        inst.advance(0.0, 300.0, 7200.0)
        assert inst.state is ZoneState.COMPUTING

    def test_completion_offset(self):
        inst = started_instance(queue_delay_s=0.0, restart_cost_s=0.0)
        # needs 250 s of compute; completes mid-tick
        _, completion = inst.advance(0.0, 300.0, 250.0)
        assert completion == pytest.approx(250.0)

    def test_local_progress_includes_base(self):
        inst = started_instance(queue_delay_s=0.0, restart_cost_s=0.0,
                                from_progress_s=1000.0)
        inst.advance(0.0, 300.0, 7200.0)
        assert inst.local_progress_s == pytest.approx(1300.0)

    def test_advance_while_down_noop(self):
        inst = ZoneInstance(zone="za")
        committed, completion = inst.advance(0.0, 300.0, 7200.0)
        assert committed == -1.0 and completion is None


class TestCheckpointing:
    def _computing(self):
        inst = started_instance(queue_delay_s=0.0, restart_cost_s=0.0)
        inst.advance(0.0, 600.0, 7200.0)
        return inst

    def test_checkpoint_snapshots_progress_at_start(self):
        inst = self._computing()
        inst.begin_checkpoint(600.0, 300.0)
        assert inst.state is ZoneState.CHECKPOINTING
        assert inst.pending_checkpoint_progress_s == pytest.approx(600.0)

    def test_checkpoint_commit_returns_snapshot(self):
        inst = self._computing()
        inst.begin_checkpoint(600.0, 300.0)
        committed, _ = inst.advance(600.0, 300.0, 7200.0)
        assert committed == pytest.approx(600.0)
        assert inst.state is ZoneState.COMPUTING

    def test_compute_resumes_after_commit_within_tick(self):
        inst = self._computing()
        inst.begin_checkpoint(600.0, 100.0)
        inst.advance(600.0, 300.0, 7200.0)
        # 100 s checkpointing + 200 s computing
        assert inst.computed_s == pytest.approx(800.0)

    def test_checkpoint_requires_computing(self):
        inst = started_instance()
        with pytest.raises(InstanceError):
            inst.begin_checkpoint(0.0, 300.0)

    def test_checkpoint_cost_positive(self):
        inst = self._computing()
        with pytest.raises(InstanceError):
            inst.begin_checkpoint(600.0, 0.0)

    def test_execution_time_resets_after_checkpoint(self):
        inst = self._computing()
        assert inst.execution_time_at_bid(600.0) == pytest.approx(600.0)
        inst.begin_checkpoint(600.0, 300.0)
        inst.advance(600.0, 300.0, 7200.0)
        # computing_since reset at checkpoint completion (t=900)
        assert inst.execution_time_at_bid(1000.0) == pytest.approx(100.0)


class TestTermination:
    def test_provider_terminate_loses_work_and_hour(self):
        inst = started_instance(queue_delay_s=0.0, restart_cost_s=0.0)
        inst.advance(0.0, 600.0, 7200.0)
        forfeited = inst.provider_terminate()
        assert forfeited == pytest.approx(0.30)
        assert inst.state is ZoneState.DOWN
        assert inst.local_progress_s == 0.0
        assert inst.billing.total_cost == 0.0
        assert inst.num_provider_terminations == 1

    def test_user_release_charges_hour(self):
        inst = started_instance(queue_delay_s=0.0, restart_cost_s=0.0)
        inst.advance(0.0, 600.0, 7200.0)
        charged = inst.user_release(600.0)
        assert charged == pytest.approx(0.30)
        assert inst.state is ZoneState.DOWN

    def test_terminate_not_running_rejected(self):
        inst = ZoneInstance(zone="za")
        with pytest.raises(InstanceError):
            inst.provider_terminate()
        with pytest.raises(InstanceError):
            inst.user_release(0.0)

    def test_negative_delays_rejected(self):
        inst = ZoneInstance(zone="za")
        inst.mark_waiting()
        with pytest.raises(InstanceError):
            inst.start(0.0, 0.3, -1.0, 300.0, 0.0)
