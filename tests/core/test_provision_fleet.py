"""The bulk fleet-provisioning path and its steady-flush wiring."""

import pytest

from repro.cloud.api import CloudApi
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Market
from repro.cloud.zones import default_region
from repro.core.config import SpotCheckConfig
from repro.core.controller import SpotCheckController
from repro.sim.kernel import Environment
from repro.traces.archive import PriceTrace, TraceArchive

DAY = 24 * 3600.0


def build(config=None):
    env = Environment(seed=17)
    region = default_region(1)
    zone = region.zones[0]
    api = CloudApi(env, region, M3_CATALOG)
    itype = M3_CATALOG.get("m3.2xlarge")
    archive = TraceArchive()
    archive.add(PriceTrace([0.0, 10 * DAY], [0.08, 0.08],
                           itype.name, zone.name, itype.on_demand_price))
    controller = SpotCheckController(env, api, config or SpotCheckConfig())
    controller.install_pools(archive, zone, type_names=[itype.name])
    return env, api, controller


def provision(env, controller, count, **kwargs):
    customer = controller.start_customer("fleet")
    vms = env.run(until=controller.provision_fleet(customer, count,
                                                   **kwargs))
    return customer, vms


class TestProvisionFleet:
    def test_boots_exact_count_on_sliced_hosts(self):
        env, api, controller = build()
        customer, vms = provision(env, controller, 20)
        assert len(vms) == 20
        pool = controller.pools.spot_pool("m3.2xlarge",
                                          controller.zone.name)
        # m3.2xlarge slices into 8 m3.medium slots -> ceil(20/8) hosts.
        assert pool.host_count == 3
        assert pool.vm_count == 20
        assert all(vm.host.instance.market is Market.SPOT for vm in vms)
        assert all(vm.customer is customer for vm in vms)

    def test_every_vm_gets_a_backup_assignment(self):
        env, api, controller = build()
        _, vms = provision(env, controller, 12)
        for vm in vms:
            backup = vm.backup_assignment
            assert backup is not None
            assert vm.id in backup.store

    def test_backup_cap_spreads_across_servers(self):
        env, api, controller = build(SpotCheckConfig(vms_per_backup=8))
        provision(env, controller, 20)
        assert controller.backup_pool.server_count == 3

    def test_steady_flush_forms_one_cohort(self):
        env, api, controller = build(SpotCheckConfig(
            vms_per_backup=100, steady_checkpoint_flush=True))
        _, vms = provision(env, controller, 16)
        stats = controller.migrations.flush_drive_stats()
        assert stats["schedulers"] == 1
        assert stats["members"] == 16
        assert stats["cohorts_created"] == 1

    def test_finalize_settles_flush_credits(self):
        env, api, controller = build(SpotCheckConfig(
            vms_per_backup=100, steady_checkpoint_flush=True))
        _, vms = provision(env, controller, 10)
        env.run(until=env.now + 3600.0)
        controller.finalize()
        scheduler = next(iter(
            controller.migrations._flush_schedulers.values()))
        # An hour of steady streaming at the analytic rate, credited
        # to every member at settle despite O(1) rounds.
        rate = vms[0].checkpoint_stream.stream_rate_bps()
        for vm in vms:
            assert scheduler.flushed[vm.id] == \
                pytest.approx(rate * 3600.0, rel=0.15)
            # Defer mode lands the whole credit as one commit.
            image = vm.backup_assignment.store.image(vm.id)
            assert image.commits >= 1

    def test_released_backup_leaves_flush_group(self):
        env, api, controller = build(SpotCheckConfig(
            vms_per_backup=100, steady_checkpoint_flush=True))
        _, vms = provision(env, controller, 4)
        assert controller.migrations.flush_drive_stats()["members"] == 4
        controller.release_backup(vms[0])
        assert controller.migrations.flush_drive_stats()["members"] == 3

    def test_count_must_be_positive(self):
        env, api, controller = build()
        customer = controller.start_customer("fleet")
        with pytest.raises(ValueError):
            env.run(until=controller.provision_fleet(customer, 0))
