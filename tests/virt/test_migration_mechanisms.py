"""Tests for live migration, checkpointing, bounded-time migration and
restoration — the Section 3 mechanisms."""

import pytest

from repro.backup.server import BackupServer
from repro.virt.memory import MemoryModel, PAGE_SIZE
from repro.virt.migration.bounded import (
    BoundedMigrationConfig,
    BoundedTimeMigration,
)
from repro.virt.migration.checkpoint import CheckpointConfig, CheckpointStream
from repro.virt.migration.live import PreCopyMigration
from repro.virt.migration.restore import SKELETON_BYTES, RestorePlanner
from repro.workloads import TpcwWorkload

GiB = 1024 ** 3
GUEST = TpcwWorkload().memory_model(int(1.7 * GiB))


def quiet_memory(total=GiB):
    return MemoryModel(total_bytes=total, write_rate_pages=50.0)


def hot_memory(total=GiB):
    return MemoryModel(total_bytes=total, write_rate_pages=50000.0,
                       working_set_fraction=0.8, cold_write_fraction=0.1)


class TestPreCopy:
    def test_total_time_scales_with_memory(self):
        planner = PreCopyMigration(bandwidth_bps=50e6)
        small = planner.plan(quiet_memory(GiB))
        large = planner.plan(quiet_memory(4 * GiB))
        assert large.total_time_s > 3 * small.total_time_s

    def test_quiet_vm_converges_fast(self):
        plan = PreCopyMigration(bandwidth_bps=50e6).plan(quiet_memory())
        assert plan.converged
        assert plan.downtime_s < 1.0
        assert plan.rounds <= 3

    def test_hot_vm_does_not_converge(self):
        plan = PreCopyMigration(bandwidth_bps=20e6).plan(hot_memory())
        assert not plan.converged
        # Forced stop-and-copy of a large residual: big downtime.
        assert plan.downtime_s > 5.0

    def test_rounds_shrink_monotonically(self):
        plan = PreCopyMigration(bandwidth_bps=50e6).plan(GUEST)
        assert all(b2 < b1 for b1, b2 in
                   zip(plan.round_bytes, plan.round_bytes[1:]))

    def test_transferred_at_least_memory_size(self):
        plan = PreCopyMigration(bandwidth_bps=50e6).plan(GUEST)
        assert plan.transferred_bytes >= GUEST.total_bytes

    def test_fits_within_deadline(self):
        planner = PreCopyMigration(bandwidth_bps=22e6)
        small = MemoryModel(total_bytes=256 * 1024 ** 2,
                            write_rate_pages=200.0)
        assert planner.fits_within(small, 120.0)
        assert not planner.fits_within(hot_memory(8 * GiB), 120.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            PreCopyMigration(bandwidth_bps=0)

    def test_des_run_matches_plan(self, env):
        from repro.cloud.instance_types import M3_CATALOG
        from repro.virt.vm import NestedVM, VMState
        planner = PreCopyMigration(bandwidth_bps=50e6)
        vm = NestedVM(env, M3_CATALOG.get("m3.medium"),
                      memory=quiet_memory())
        vm.set_state(VMState.RUNNING)
        plan = env.run(until=planner.run(env, vm))
        assert env.now == pytest.approx(plan.total_time_s)
        assert vm.state is VMState.RUNNING


class TestCheckpointStream:
    def test_interval_respects_budget(self):
        stream = CheckpointStream(GUEST)
        interval = stream.interval_s()
        assert GUEST.dirty_bytes(interval) <= \
            stream.config.dirty_budget_bytes * 1.05

    def test_interval_consistent_with_time_bound(self):
        # The calibration invariant: the steady-state interval for the
        # paper's workloads sits near the 30 s bound.
        stream = CheckpointStream(GUEST)
        assert 10.0 < stream.interval_s() < 60.0

    def test_stream_rate_matches_backup_share(self):
        # ~2.75 MB/s: the worst-case per-VM share of a 40-VM backup.
        stream = CheckpointStream(GUEST)
        assert stream.stream_rate_bps() == pytest.approx(2.75e6, rel=0.25)

    def test_yank_commit_hits_time_bound(self):
        stream = CheckpointStream(GUEST)
        downtime = stream.final_commit_downtime_s(ramped=False)
        assert downtime == pytest.approx(
            stream.config.time_bound_s, rel=0.15)

    def test_ramped_commit_much_smaller(self):
        stream = CheckpointStream(GUEST)
        ramped = stream.final_commit_downtime_s(ramped=True)
        yank = stream.final_commit_downtime_s(ramped=False)
        assert ramped < yank / 10

    def test_ramp_schedule_decreasing(self):
        stream = CheckpointStream(GUEST)
        schedule = stream.ramp_schedule(120.0)
        assert schedule
        assert all(b <= a for a, b in zip(schedule, schedule[1:]))
        assert schedule[-1] >= stream.config.min_interval_s

    def test_no_ramp_no_warning_degradation(self):
        stream = CheckpointStream(GUEST)
        assert stream.warning_degradation_s(120.0, ramped=False) == 0.0

    def test_idle_vm_infinite_interval(self):
        idle = MemoryModel(total_bytes=GiB, write_rate_pages=0.0)
        stream = CheckpointStream(idle)
        assert stream.interval_s() == float("inf")
        assert stream.stream_rate_bps() == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(time_bound_s=0)
        with pytest.raises(ValueError):
            CheckpointConfig(ramp_factor=0)

    def test_des_stream_flushes(self, env):
        from repro.sim.resources import FairShareResource
        link = FairShareResource(env, {"nic": 100e6})
        stop = env.event()
        flushed = []
        stream = CheckpointStream(GUEST)
        proc = stream.run(env, link, stop, on_flush=flushed.append)
        def stopper():
            yield env.timeout(200.0)
            stop.succeed()
        env.process(stopper())
        total = env.run(until=proc)
        assert len(flushed) >= 3
        assert total == pytest.approx(sum(flushed))


class TestRestorePlanner:
    @pytest.fixture
    def server(self, env):
        return BackupServer(env)

    def test_full_restore_downtime_only(self, server):
        plan = RestorePlanner(server).plan(GiB, kind="full", optimized=True)
        assert plan.degraded_s == 0.0
        assert plan.downtime_s > 5.0

    def test_lazy_restore_mostly_degraded(self, server):
        plan = RestorePlanner(server).plan(GiB, kind="lazy", optimized=True)
        assert plan.downtime_s < 1.0  # skeleton only
        assert plan.degraded_s > plan.downtime_s

    def test_optimization_helps_full(self, server):
        planner = RestorePlanner(server)
        slow = planner.plan(GiB, kind="full", optimized=False)
        fast = planner.plan(GiB, kind="full", optimized=True)
        assert fast.downtime_s < slow.downtime_s

    def test_unoptimized_lazy_collapses_under_concurrency(self, server):
        planner = RestorePlanner(server)
        lone = planner.plan(GiB, kind="lazy", optimized=False, concurrent=1)
        storm = planner.plan(GiB, kind="lazy", optimized=False, concurrent=10)
        # Far worse than the 10x of pure sharing: random-read thrash.
        assert storm.degraded_s > 15 * lone.degraded_s

    def test_optimized_lazy_scales_linearly(self, server):
        planner = RestorePlanner(server)
        lone = planner.plan(GiB, kind="lazy", optimized=True, concurrent=1)
        storm = planner.plan(GiB, kind="lazy", optimized=True, concurrent=10)
        assert storm.degraded_s == pytest.approx(10 * lone.degraded_s,
                                                 rel=0.01)

    def test_unknown_kind_rejected(self, server):
        with pytest.raises(ValueError):
            RestorePlanner(server).plan(GiB, kind="warp")

    def test_skeleton_size_is_5mb(self):
        assert SKELETON_BYTES == 5 * 1024 ** 2


class TestBoundedTimeMigration:
    @pytest.fixture
    def server(self, env):
        return BackupServer(env)

    def test_default_outcome_safe_and_fast(self, server):
        migration = BoundedTimeMigration(GUEST, server)
        outcome = migration.plan(120.0, ec2_ops_downtime_s=22.65)
        assert outcome.state_safe
        assert outcome.within_deadline
        # Downtime dominated by the EC2 control-plane ops (~23 s).
        assert outcome.downtime_s == pytest.approx(23.5, abs=2.0)

    def test_yank_downtime_much_larger(self, server):
        yank = BoundedTimeMigration(
            GUEST, server, BoundedMigrationConfig.yank_baseline())
        spotcheck = BoundedTimeMigration(
            GUEST, server, BoundedMigrationConfig.spotcheck_lazy())
        assert yank.plan(120.0, ec2_ops_downtime_s=22.65).downtime_s > \
            2 * spotcheck.plan(120.0, ec2_ops_downtime_s=22.65).downtime_s

    def test_lazy_trades_downtime_for_degradation(self, server):
        lazy = BoundedTimeMigration(
            GUEST, server, BoundedMigrationConfig.spotcheck_lazy()).plan(120.0)
        full = BoundedTimeMigration(
            GUEST, server, BoundedMigrationConfig.spotcheck_full()).plan(120.0)
        assert lazy.downtime_s < full.downtime_s
        assert lazy.degraded_s > full.degraded_s

    def test_mechanism_presets_distinct(self):
        presets = {
            name: getattr(BoundedMigrationConfig, name)()
            for name in ("yank_baseline", "spotcheck_full",
                         "unoptimized_lazy", "spotcheck_lazy")
        }
        assert presets["yank_baseline"].restore_kind == "full"
        assert not presets["yank_baseline"].warning_ramp
        assert presets["spotcheck_lazy"].restore_kind == "lazy"
        assert presets["spotcheck_lazy"].restore_optimized

    def test_bad_restore_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundedMigrationConfig(restore_kind="teleport")

    def test_commit_bytes_positive(self, server):
        outcome = BoundedTimeMigration(GUEST, server).plan(120.0)
        assert outcome.commit_bytes > 0

    def test_storm_concurrency_increases_disruption(self, server):
        migration = BoundedTimeMigration(GUEST, server)
        calm = migration.plan(120.0, concurrent=1)
        storm = migration.plan(120.0, concurrent=10)
        assert storm.disruption_s > calm.disruption_s
