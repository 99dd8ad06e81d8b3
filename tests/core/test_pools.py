"""Tests for pools, the backup pool, and the pool manager."""

import pytest

from repro.backup.server import BackupServer, BackupServerSpec
from repro.backup.store import CheckpointStore
from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Instance, Market
from repro.cloud.spot_market import SpotMarket
from repro.core.policies.spares import HotSparePolicy
from repro.core.pools import BackupPool, OnDemandPool, PoolManager, SpotPool
from repro.virt.hypervisor import HostVM

from tests.conftest import flat_trace, step_trace

MEDIUM = M3_CATALOG.get("m3.medium")
LARGE = M3_CATALOG.get("m3.large")


def make_host(env, zone, itype=MEDIUM, slots=1):
    instance = Instance(env, itype, zone, Market.ON_DEMAND)
    instance._mark_running()
    return HostVM(env, instance, MEDIUM, slots=slots)


def make_spot_pool(env, zone, itype=MEDIUM, price=0.02):
    trace = flat_trace(price, type_name=itype.name,
                       on_demand_price=itype.on_demand_price)
    market = SpotMarket(env, itype, zone, trace)
    return SpotPool(itype, zone, MEDIUM, market, bid=itype.on_demand_price)


class TestSpotPool:
    def test_key(self, env, zone):
        pool = make_spot_pool(env, zone)
        assert pool.key == ("spot", "m3.medium", zone.name)

    def test_host_management(self, env, zone):
        pool = make_spot_pool(env, zone)
        host = make_host(env, zone)
        pool.add_host(host)
        assert pool.host_with_free_slot() is host
        assert pool.host_count == 1
        pool.remove_host(host)
        assert pool.host_with_free_slot() is None

    def test_full_host_not_offered(self, env, zone):
        from repro.virt.vm import NestedVM
        pool = make_spot_pool(env, zone)
        host = make_host(env, zone)
        pool.add_host(host)
        host.hypervisor.boot(NestedVM(env, MEDIUM))
        assert pool.host_with_free_slot() is None
        assert pool.vm_count == 1

    def test_price_per_slot_uses_slicing(self, env, zone):
        pool = make_spot_pool(env, zone, itype=LARGE, price=0.03)
        assert pool.price_per_slot() == pytest.approx(0.015)

    def test_recent_mean_price(self, env, zone):
        market = SpotMarket(env, MEDIUM, zone,
                            step_trace([(0.0, 0.02), (10.0, 0.04)]))
        pool = SpotPool(MEDIUM, zone, MEDIUM, market,
                        bid=MEDIUM.on_demand_price)
        env.run(until=20.0)
        assert pool.recent_mean_price_per_slot() == pytest.approx(0.03)

    def test_migration_count_window(self, env, zone):
        pool = make_spot_pool(env, zone)
        pool.record_revocation(100.0, 1, 2)
        pool.record_revocation(500.0, 2, 8)
        assert pool.recent_migration_count() == 2
        assert pool.recent_migration_count(since=200.0) == 1


class TestBackupPool:
    def _provision(self, env):
        def factory():
            server = BackupServer(env, BackupServerSpec(max_checkpoint_vms=3))
            server.store = CheckpointStore(env)
            return server
        return factory

    def test_provisions_on_demand(self, env):
        pool = BackupPool(self._provision(env))
        assert pool.server_count == 0
        server = pool.assign("vm-1", 1e6)
        assert pool.server_count == 1
        assert server.assigned_vms == 1

    def test_round_robin_across_servers(self, env):
        pool = BackupPool(self._provision(env))
        servers = {pool.assign(f"vm-{i}", 1e6).id for i in range(6)}
        # 3-VM cap -> second server provisioned; round robin spreads.
        assert pool.server_count == 2
        assert len(servers) == 2
        assert pool.total_assigned() == 6

    def test_growth_when_all_full(self, env):
        pool = BackupPool(self._provision(env))
        for i in range(7):
            pool.assign(f"vm-{i}", 1e6)
        assert pool.server_count == 3

    def test_custom_cap_overrides_spec(self, env):
        pool = BackupPool(self._provision(env))
        pool.assign("a", 1e6, cap=1)
        pool.assign("b", 1e6, cap=1)
        assert pool.server_count == 2

    def test_release_frees_capacity(self, env):
        pool = BackupPool(self._provision(env))
        server = pool.assign("vm-1", 1e6)
        pool.release("vm-1", server)
        assert server.assigned_vms == 0


class TestPoolIndex:
    """The struct-of-arrays pool internals behind the O(1) hot paths."""

    def test_first_fit_is_insertion_order(self, env, zone):
        from repro.virt.vm import NestedVM
        pool = make_spot_pool(env, zone)
        first, second = make_host(env, zone), make_host(env, zone)
        pool.add_host(first)
        pool.add_host(second)
        assert pool.host_with_free_slot() is first
        host = pool.host_with_free_slot()
        host.hypervisor.boot(NestedVM(env, MEDIUM))
        assert pool.host_with_free_slot() is second

    def test_evict_reoffers_host(self, env, zone):
        from repro.virt.vm import NestedVM
        pool = make_spot_pool(env, zone)
        first = make_host(env, zone)
        second = make_host(env, zone)
        pool.add_host(first)
        pool.add_host(second)
        vm = NestedVM(env, MEDIUM)
        first.hypervisor.boot(vm)
        assert pool.host_with_free_slot() is second
        first.hypervisor.evict(vm)
        # The change hook re-offers the freed host; insertion order
        # makes it first-fit again.
        assert pool.host_with_free_slot() is first

    def test_vm_count_tracks_boot_and_evict(self, env, zone):
        from repro.virt.vm import NestedVM
        pool = make_spot_pool(env, zone)
        hosts = [make_host(env, zone, itype=LARGE, slots=2)
                 for _ in range(3)]
        for host in hosts:
            pool.add_host(host)
        vms = []
        for host in hosts:
            vm = NestedVM(env, MEDIUM)
            host.hypervisor.boot(vm)
            vms.append(vm)
        assert pool.vm_count == 3
        assert sorted(v.id for v in pool.iter_vms()) == \
            sorted(v.id for v in vms)
        hosts[1].hypervisor.evict(vms[1])
        assert pool.vm_count == 2

    def test_removed_host_detaches_hook_and_backref(self, env, zone):
        pool = make_spot_pool(env, zone)
        host = make_host(env, zone)
        pool.add_host(host)
        assert host._pool is pool
        assert host.hypervisor.on_change is not None
        pool.remove_host(host)
        assert host._pool is None
        assert host.hypervisor.on_change is None
        assert pool.host_with_free_slot() is None
        assert pool.vm_count == 0

    def test_readded_host_offered_again(self, env, zone):
        pool = make_spot_pool(env, zone)
        host = make_host(env, zone)
        pool.add_host(host)
        pool.remove_host(host)
        pool.add_host(host)
        assert pool.host_with_free_slot() is host

    def test_terminated_host_skipped(self, env, zone):
        pool = make_spot_pool(env, zone)
        first, second = make_host(env, zone), make_host(env, zone)
        pool.add_host(first)
        pool.add_host(second)
        first.instance._mark_terminated()
        assert pool.host_with_free_slot() is second

    def test_pending_host_offered_once_running(self, env, zone):
        pool = make_spot_pool(env, zone)
        instance = Instance(env, MEDIUM, zone, Market.ON_DEMAND)
        host = HostVM(env, instance, MEDIUM, slots=1)
        pool.add_host(host)
        assert pool.host_with_free_slot() is None
        instance._mark_running()
        env.run(until=env.now + 0.001)  # deliver the started event
        assert pool.host_with_free_slot() is host

    def test_hosts_view_behaves_like_a_sequence(self, env, zone):
        pool = make_spot_pool(env, zone)
        hosts = [make_host(env, zone) for _ in range(3)]
        for host in hosts:
            pool.add_host(host)
        assert len(pool.hosts) == 3
        assert list(pool.hosts) == hosts
        assert pool.hosts[0] is hosts[0]
        assert pool.hosts[1:] == hosts[1:]
        assert hosts[2] in pool.hosts
        assert bool(pool.hosts)
        pool.remove_host(hosts[0])
        assert hosts[0] not in pool.hosts
        assert len(pool.hosts) == 2


class TestPoolManager:
    def test_registration_and_lookup(self, env, zone):
        manager = PoolManager()
        spot = make_spot_pool(env, zone)
        od = OnDemandPool(MEDIUM, zone, MEDIUM)
        manager.add_spot_pool(spot)
        manager.add_on_demand_pool(od)
        assert manager.spot_pool("m3.medium", zone.name) is spot
        assert manager.on_demand_pool("m3.medium", zone.name) is od
        assert manager.all_spot_pools() == [spot]
        assert len(manager.all_pools()) == 2

    def test_duplicate_rejected(self, env, zone):
        manager = PoolManager()
        manager.add_spot_pool(make_spot_pool(env, zone))
        with pytest.raises(ValueError):
            manager.add_spot_pool(make_spot_pool(env, zone))

    def test_pool_of_host(self, env, zone):
        manager = PoolManager()
        pool = make_spot_pool(env, zone)
        manager.add_spot_pool(pool)
        host = make_host(env, zone)
        pool.add_host(host)
        assert manager.pool_of_host(host) is pool
        assert manager.pool_of_host(make_host(env, zone)) is None


class TestHotSpares:
    def test_take_and_deficit(self, env, zone):
        policy = HotSparePolicy(target=2)
        assert policy.deficit == 2
        policy.add_spare(make_host(env, zone))
        policy.add_spare(make_host(env, zone))
        assert policy.deficit == 0
        spare = policy.take_spare()
        assert spare is not None
        assert policy.deficit == 1
        assert policy.consumed == 1

    def test_empty_pool_returns_none(self):
        assert HotSparePolicy(target=0).take_spare() is None

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            HotSparePolicy(target=-1)

    def test_staging_disabled_by_default(self, env, zone):
        policy = HotSparePolicy(target=0)
        pool = make_spot_pool(env, zone)
        pool.add_host(make_host(env, zone))
        assert policy.find_staging_slot([pool]) is None

    def test_staging_finds_healthy_slot(self, env, zone):
        policy = HotSparePolicy(target=0, use_staging=True)
        pool = make_spot_pool(env, zone)
        host = make_host(env, zone)
        pool.add_host(host)
        assert policy.find_staging_slot([pool]) is host
        assert policy.staged == 1

    def test_staging_skips_excluded_pool(self, env, zone):
        policy = HotSparePolicy(target=0, use_staging=True)
        pool = make_spot_pool(env, zone)
        pool.add_host(make_host(env, zone))
        assert policy.find_staging_slot([pool], exclude_pool=pool) is None

    def test_staging_skips_warned_hosts(self, env, zone):
        policy = HotSparePolicy(target=0, use_staging=True)
        pool = make_spot_pool(env, zone)
        host = make_host(env, zone)
        host.instance._mark_warned()
        pool.add_host(host)
        assert policy.find_staging_slot([pool]) is None
