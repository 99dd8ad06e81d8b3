"""Fleet-mode group checkpointing: deferred accounting vs per-VM streams.

``MigrationManager`` always runs its steady-flush cohorts with
``defer_accounting=True``: rounds only flip a completion flag and
per-member totals are folded once at settle.  These tests hold that
mode to the per-VM streams — same credited totals, same committed
bytes, churn and in-flight rounds included — alongside the eager-mode
contract in ``test_group_checkpoint``.
"""

import pytest

from repro.sim.kernel import Environment
from repro.virt.migration.checkpoint import CheckpointConfig, CheckpointStream
from repro.virt.migration.group import GroupCheckpointScheduler
from repro.virt.testbed import MicroTestbed
from repro.workloads import SpecJbbWorkload, TpcwWorkload
from tests.virt.test_group_checkpoint import (
    _SteppedMemory,
    make_scheduler,
    make_stream,
    per_vm_rates,
    run_grouped,
    run_per_vm,
    run_testbed,
)


def run_deferred(vm_count, duration_s=1800.0, workload=TpcwWorkload,
                 checkpoint_config=None):
    """The testbed's streams under one defer-mode scheduler.

    Mirrors ``MicroTestbed.run_steady``, which stops the streams at
    ``duration_s`` and measures after a 1 s drain, with the manager's
    finalize: ``settle_now`` at the measurement instant credits only
    the rounds completed by then.
    """
    env = Environment(seed=3)
    testbed = MicroTestbed(env, vm_count=vm_count,
                           workload_factory=workload,
                           checkpoint_config=checkpoint_config)
    sched = GroupCheckpointScheduler(env, testbed.ingest,
                                     defer_accounting=True)
    for vm in testbed.vms:
        def _commit(flushed, vm_id=vm.id):
            testbed.server.store.commit(vm_id, flushed)
        sched.join(vm.id, testbed.streams[vm.id], on_flush=_commit)
    env.run(until=duration_s + 1.0)
    sched.settle_now()
    rates = [sched.flushed[vm.id] / duration_s for vm in testbed.vms]
    return env, testbed, rates


class TestEquivalence:
    @pytest.mark.parametrize("vm_count", [1, 10, 40])
    def test_bit_identical_to_per_vm_streams(self, vm_count):
        _, bed, per_vm = run_testbed(vm_count, grouped=False)
        _, _, deferred = run_deferred(vm_count)
        assert deferred == per_vm_rates(bed, per_vm)
        assert sum(deferred) == per_vm["aggregate_bps"]

    @pytest.mark.parametrize("workload", [TpcwWorkload, SpecJbbWorkload])
    def test_bit_identical_across_workloads(self, workload):
        _, bed, per_vm = run_testbed(10, grouped=False, workload=workload)
        _, _, deferred = run_deferred(10, workload=workload)
        assert deferred == per_vm_rates(bed, per_vm)

    def test_bit_identical_under_tight_throttle(self):
        config = CheckpointConfig(stream_bandwidth_bps=6e6,
                                  commit_bandwidth_bps=1.5e6)
        _, bed, per_vm = run_testbed(10, grouped=False,
                                     checkpoint_config=config)
        _, _, deferred = run_deferred(10, checkpoint_config=config)
        assert deferred == per_vm_rates(bed, per_vm)

    def test_store_commits_match_per_vm_mode(self):
        _, per_vm_bed, _ = run_testbed(5, grouped=False)
        _, deferred_bed, _ = run_deferred(5)
        for vm_a, vm_b in zip(per_vm_bed.vms, deferred_bed.vms):
            expected = per_vm_bed.server.store.image(vm_a.id)
            actual = deferred_bed.server.store.image(vm_b.id)
            # One settled commit carries every round's bytes: the same
            # sequential fold the per-round commits add up to.
            assert actual.commits == 2 < expected.commits
            assert sum(b for _, b in actual.history[1:]) == \
                sum(b for _, b in expected.history[1:])

    def test_batching_elides_kernel_events(self):
        env_per_vm, _, _ = run_testbed(40, grouped=False)
        env_deferred, _, _ = run_deferred(40)
        assert env_deferred.events_processed * 5 \
            < env_per_vm.events_processed


class TestMixedPlans:
    def test_divergence_regroups_without_new_processes(self):
        env_a = Environment(seed=9)
        per_vm = run_per_vm(
            env_a, [_SteppedMemory(env_a) for _ in range(3)], 310.0)
        env_b = Environment(seed=9)
        sched, grouped = run_grouped(
            env_b, [_SteppedMemory(env_b) for _ in range(3)], 310.0)
        assert grouped == per_vm
        # The three members diverge together at t=100 and share one
        # new cohort process; the emptied original cohort has exited.
        assert sched.splits == 3
        assert sched.cohorts_created == 2
        cohorts = {sched.cohort_of(f"vm{index}") for index in range(3)}
        assert len(cohorts) == 1
        assert sched.stats()["cohorts_active"] == 0

    def test_defer_mode_pins_plans_at_join(self):
        env = Environment(seed=9)
        sched = make_scheduler(env, defer=True)
        for index in range(3):
            memory = _SteppedMemory(env)
            sched.join(f"vm{index}", CheckpointStream(memory,
                                                      CheckpointConfig()))
        env.run(until=310.0)
        assert sched.splits == 0
        assert sched.cohorts_created == 1


class TestChurn:
    def test_later_join_starts_fresh_group(self):
        env = Environment(seed=5)
        sched = make_scheduler(env, defer=True)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        sched.join("a", stream_a)
        env.run(until=1.0)  # mid-interval
        sched.join("b", stream_b)
        assert sched.cohort_of("b") is not sched.cohort_of("a")
        assert sched.cohorts_created == 2

    def test_same_instant_same_plan_shares_group(self):
        env = Environment(seed=5)
        sched = make_scheduler(env, defer=True)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        sched.join("a", stream_a)
        sched.join("b", stream_b)
        assert sched.cohort_of("a") is sched.cohort_of("b")
        assert sched.cohorts_created == 1
        assert sched.member_count() == 2

    def test_duplicate_join_rejected(self):
        env = Environment(seed=5)
        sched = make_scheduler(env, defer=True)
        _, stream = make_stream(env)
        sched.join("a", stream)
        with pytest.raises(ValueError, match="already enrolled"):
            sched.join("a", stream)

    def test_leaver_misses_rounds_after_departure(self):
        env = Environment(seed=5)
        sched = make_scheduler(env, defer=True)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        cohort = sched.join("a", stream_a)
        sched.join("b", stream_b)
        interval, dirty, _cap = cohort.plan
        env.run(until=2.5 * interval)
        sched.leave("a")
        env.run(until=6.5 * interval)
        sched.settle_now()
        # The leaver is settled from the rounds armed before it left.
        assert sched.flushed["a"] == pytest.approx(2 * dirty)
        assert sched.flushed["b"] == pytest.approx(6 * dirty)

    def test_dead_group_is_elided(self):
        env = Environment(seed=5)
        sched = make_scheduler(env, defer=True)
        _, stream = make_stream(env)
        cohort = sched.join("a", stream)
        env.run(until=1.0)
        sched.leave("a")
        env.run(until=2.0)
        assert not cohort.proc.is_alive
        assert sched.stats()["cohorts_active"] == 0
        assert sched.member_count() == 0

    def test_in_flight_never_retains_dead_processes(self):
        env = Environment(seed=5)
        sched = make_scheduler(env, defer=True)
        _, stream_a = make_stream(env)
        _, stream_b = make_stream(env)
        cohort = sched.join("a", stream_a)
        sched.join("b", stream_b)
        env.run(until=12.5 * cohort.plan[0])
        dead = [p for p in cohort.in_flight if not p.is_alive]
        assert len(dead) <= 1
        assert len(cohort.in_flight) < 5


class TestAccounting:
    def test_defer_mode_matches_eager_totals(self):
        """Several cohorts with joiners and leavers settle as eager."""
        results = {}
        for defer in (False, True):
            env = Environment(seed=7)
            sched = make_scheduler(env, defer=defer)
            for index in range(3):
                _, stream = make_stream(env)
                sched.join(f"vm{index}", stream)
            interval = sched.cohort_of("vm0").plan[0]
            env.run(until=1.5 * interval)
            for index in range(3, 6):
                _, stream = make_stream(env, workload=SpecJbbWorkload)
                sched.join(f"vm{index}", stream)
            env.run(until=4.5 * interval)
            sched.leave("vm1")
            sched.leave("vm4")
            env.run(until=9.5 * interval)
            env.run(until=env.process(sched.settle()))
            assert sched.cohorts_created == 2
            results[defer] = dict(sched.flushed)
        assert results[True] == results[False]

    def test_settle_now_credits_only_completed_rounds(self):
        env = Environment(seed=7)
        sched = make_scheduler(env, defer=True)
        _, stream = make_stream(env)
        cohort = sched.join("a", stream)
        interval, dirty, cap = cohort.plan
        # The fourth round is armed at 4 x interval and still in
        # flight one second later (a flush takes dirty / cap seconds).
        assert dirty / cap > 1.0
        env.run(until=4 * interval + 1.0)
        assert cohort.rounds_armed == 4
        flushed = sched.settle_now()
        assert flushed["a"] == pytest.approx(3 * dirty)
        # Settling is idempotent.
        assert sched.settle_now() is flushed
