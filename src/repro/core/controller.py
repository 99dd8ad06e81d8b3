"""The SpotCheck controller.

The controller is the derivative cloud's brain (Section 5): it exposes
an EC2-like interface to customers (request / relinquish servers),
rents native spot and on-demand servers underneath, slices them with
the nested hypervisor, maps nested VMs to pools and backup servers per
the configured policies, and reacts to pool dynamics — revocation
warnings trigger bounded-time migrations to the on-demand side, price
recoveries trigger live migrations back to spot.
"""

from repro.cloud.errors import (
    ApiError,
    BidTooLow,
    CapacityError,
    InvalidOperation,
)
from repro.cloud.instances import InstanceState, Market
from repro.cloud.spot_market import PriceWatch
from repro.faults.retry import retry_call
from repro.core.accounting import AccountingLedger
from repro.core.config import SpotCheckConfig
from repro.core.customer import Customer
from repro.core.migration_manager import MigrationManager
from repro.core.policies.allocation import make_allocation_policy
from repro.core.policies.bidding import make_bid_policy
from repro.core.policies.placement import GreedyCheapestFirst, StabilityFirst
from repro.core.pools import BackupPool, OnDemandPool, PoolManager, SpotPool
from repro.backup.server import BackupServer
from repro.backup.store import CheckpointStore
from repro.virt.hypervisor import HostVM
from repro.virt.migration.checkpoint import CheckpointStream
from repro.virt.vm import NestedVM, VMState


class _Storm:
    """Bookkeeping for one pool-wide revocation event."""

    def __init__(self, pool_key, when):
        self.pool_key = pool_key
        self.when = when
        self.hosts = []
        self.vms = []
        self.backup_load = {}
        self._finalized = False

    def add_host(self, host, vms):
        self.hosts.append(host)
        self.vms.extend(vms)

    def finalize_once(self):
        """Compute backup concurrency once every warning registered."""
        if self._finalized:
            return False
        self._finalized = True
        for vm in self.vms:
            backup = vm.backup_assignment
            if backup is not None:
                self.backup_load[backup.id] = \
                    self.backup_load.get(backup.id, 0) + 1
        return True


class SpotCheckController:
    """A SpotCheck deployment over one native cloud endpoint.

    Parameters
    ----------
    env:
        Simulation environment.
    api:
        :class:`~repro.cloud.api.CloudApi` for the native platform.
    config:
        :class:`~repro.core.config.SpotCheckConfig`.
    slot_type_name:
        The advertised nested-VM type (the paper sells m3.medium
        equivalents).
    """

    def __init__(self, env, api, config=None, slot_type_name="m3.medium"):
        self.env = env
        self.api = api
        self.config = config or SpotCheckConfig()
        self.slot_itype = api.catalog.get(slot_type_name)
        self.pools = PoolManager()
        self.ledger = AccountingLedger(env)
        self.bid_policy = make_bid_policy(
            self.config.bid_policy, self.config.bid_multiple,
            floor_fraction=self.config.knee_floor_fraction)
        self.allocation = self._make_allocation()
        from repro.core.policies.spares import HotSparePolicy
        self.spares = HotSparePolicy(
            self.config.hot_spares, use_staging=self.config.use_staging)
        self.spares.on_deficit = self._kick_spares
        #: Pending replenisher sleep; deficit edges and finalize succeed it.
        self._spares_wakeup = None
        self._spares_stats = {"wakes": 0, "polls": 0, "provisioned": 0}
        self.backup_pool = BackupPool(self._provision_backup_server)
        self.migrations = MigrationManager(self)
        self.customers = {}
        self.zone = None
        self.zones = []
        #: vm.id -> (vm, home spot pool) for VMs parked on on-demand.
        self._parked = {}
        self._storms = {}
        self._returning_pools = set()
        self._draining_pools = set()
        self._rng = env.rng.stream("controller")
        self._finalized = False
        self.backup_failures = 0
        #: Optional hook ``on_storm(pool, storm)`` fired once per
        #: finalized revocation storm — shard event taps ride on this
        #: instead of the obs bus.
        self.on_storm = None
        #: Optional :class:`~repro.traffic.engine.TrafficEngine`.
        self.traffic = None
        self.predictor = None
        if self.config.predictive_migration:
            from repro.core.policies.prediction import RevocationPredictor
            self.predictor = RevocationPredictor(
                level_fraction=self.config.prediction_level_fraction,
                jump_factor=self.config.prediction_jump_factor)

    def _make_allocation(self):
        name = self.config.allocation_policy
        if name in ("greedy", "stability"):
            return None  # Placement policies are consulted per request.
        overrides = {}
        if self.config.portfolio and (name.startswith("IT")
                                      or name.startswith("OC")):
            overrides = dict(self.config.portfolio)
        policy = make_allocation_policy(
            name, now=lambda: self.env.now, **overrides)
        if hasattr(policy, "on_unclocked") and policy.on_unclocked is None:
            policy.on_unclocked = \
                lambda p=policy: self._note_unclocked_policy(p)
        return policy

    def _note_unclocked_policy(self, policy):
        """A time-windowed policy weighed pools without a clock.

        Controller-built policies are always clocked; this fires only
        when an externally constructed policy is grafted on, and turns
        the historical silent all-time-window degradation into an
        observable event.
        """
        obs = self.env.obs
        if obs is not None:
            obs.emit("policy.unclocked", policy=policy.name)
            obs.metrics.counter("policy_unclocked_total",
                                policy=policy.name).inc()

    # -- setup -----------------------------------------------------------

    def install_pools(self, archive, zone, type_names=None):
        """Create markets and pools from a trace archive.

        Parameters
        ----------
        archive:
            :class:`~repro.traces.archive.TraceArchive` with one trace
            per (type, zone) market to operate in.
        zone:
            The primary availability zone, or a list of zones for
            multi-zone operation ("SpotCheck's pool management
            strategies operate across multiple markets by permitting
            the unrestricted choice of server types and availability
            zones (within a region)").  Each zone gets its own spot
            pools and its own on-demand failover pool, because network
            volumes are zone-locked.
        type_names:
            Pool types to create (default: every type present in the
            archive for each zone).
        """
        zones = [zone] if not isinstance(zone, (list, tuple)) else list(zone)
        if not zones:
            raise ValueError("at least one zone is required")
        self.zone = zones[0]
        self.zones = zones
        for one_zone in zones:
            zone_types = type_names
            if zone_types is None:
                zone_types = sorted({t for (t, z) in archive.keys()
                                     if z == one_zone.name})
            for type_name in zone_types:
                itype = self.api.catalog.get(type_name)
                trace = archive.get(type_name, one_zone.name)
                market = self.api.install_market(itype, one_zone, trace)
                bid = self.bid_policy.bid_for(itype, trace=trace)
                pool = SpotPool(itype, one_zone, self.slot_itype, market, bid)
                self.pools.add_spot_pool(pool)
                self._wire_pool_dynamics(market, pool)
            od_pool = OnDemandPool(self.slot_itype, one_zone, self.slot_itype)
            self.pools.add_on_demand_pool(od_pool)
        if self.allocation is not None and \
                hasattr(self.allocation, "install"):
            # Portfolio policies register their crossing watches on the
            # freshly created markets and solve the initial weights.
            self.allocation.install(self)
        if self.config.hot_spares > 0:
            self.env.process(self._replenish_spares())

    def _wire_pool_dynamics(self, market, pool):
        """Subscribe pool dynamics to one market's price trace.

        The controller acts on two price bands — the proactive window
        (od, bid] and the return-to-spot recovery band (-inf, od] — so
        it registers crossing watches and the market drive skips every
        other point.  The predictor's EWMA must see every sample while
        the pool is live, so predictive runs add an unbounded watch
        between the two; callbacks at one point then run in the order
        proactive, predictor, return.
        """
        od_price = pool.itype.on_demand_price
        if self.config.proactive_migration and od_price < pool.bid:
            market.add_watch(PriceWatch(
                lambda mkt, price, p=pool: self._maybe_proactive_drain(
                    p, price),
                lo=od_price, hi=pool.bid))
        if self.predictor is not None:
            market.add_watch(PriceWatch(
                lambda mkt, price, p=pool: self._maybe_predictive_drain(
                    p, price)))
        if self.config.return_to_spot:
            # Inactive while nothing is parked (most of the time, which
            # is what makes the recovery band skippable at all); the
            # parking sites rearm the market when the gate opens.
            market.add_watch(PriceWatch(
                lambda mkt, price, p=pool: self._maybe_return_to_spot(
                    p, price),
                hi=od_price,
                active=lambda p=pool: p.key not in self._returning_pools
                and bool(self._parked_vms_of(p))))

    def _rearm_market(self, pool):
        """Wake a pool's market drive after a watch gate opened."""
        market = getattr(pool, "market", None)
        if market is not None:
            market.rearm()

    def attach_traffic(self, engine):
        """Score this deployment's customers with a traffic engine.

        The engine is flushed from :meth:`finalize`, so ledgers are
        complete even when the caller tears the simulation down before
        the engine's own horizon.
        """
        self.traffic = engine

    def start_customer(self, name=None, traffic=None):
        """Register a customer; ``traffic`` (a ``CustomerTraffic``)
        puts them under the attached traffic engine's SLA watch."""
        customer = Customer(name)
        self.customers[customer.id] = customer
        if traffic is not None:
            if self.traffic is None:
                raise ValueError(
                    "attach_traffic() before start_customer(traffic=...)")
            self.traffic.watch(customer, traffic)
        return customer

    # -- public API (EC2-like) ---------------------------------------------

    def request_server(self, customer, type_name=None, workload=None):
        """Process: allocate a nested VM for ``customer``.

        Returns the running :class:`~repro.virt.vm.NestedVM`.
        """
        return self.env.process(
            self._request_flow(customer, type_name, workload))

    def relinquish(self, vm):
        """Process: the customer returns ``vm``; resources are freed."""
        return self.env.process(self._relinquish_flow(vm))

    # -- request flow ------------------------------------------------------

    def _request_flow(self, customer, type_name, workload):
        slot_itype = self.slot_itype if type_name is None \
            else self.api.catalog.get(type_name)
        if slot_itype.name != self.slot_itype.name:
            raise ValueError(
                f"this deployment sells {self.slot_itype.name}; "
                f"got {slot_itype.name}")

        vm = NestedVM(self.env, slot_itype, workload=workload,
                      customer=customer)
        vm.checkpoint_stream = CheckpointStream(
            vm.memory, self.config.mechanism.checkpoint)

        host, on_spot, pool = yield from self._place_vm(vm, customer)

        host.hypervisor.boot(vm)
        vm.host = host
        customer.add_vm(vm)
        self.ledger.vm_created(vm)
        obs = self.env.obs
        if obs is not None:
            obs.emit("vm.created", vm=vm.id, customer=customer.id,
                     host=host.instance.id, spot=on_spot)
            obs.metrics.counter("vms_created_total").inc()

        if not on_spot:
            self._parked[vm.id] = (vm, pool)
            self._rearm_market(pool)
        elif host.instance.state is InstanceState.MARKED_FOR_TERMINATION:
            # The warning arrived between placement and boot: this VM
            # missed the host's storm, so it joins the exodus directly
            # (live path — it has no backup image yet).
            deadline = host.instance.termination_notice.value
            self.migrations.migrate_on_revocation(vm, host, deadline, pool)
        else:
            self._assign_backup(vm)
        return vm

    def _place_vm(self, vm, customer):
        """Process body: attach ``vm``'s plumbing to a host with a slot.

        Plumbing (interface, IP, volume) is attached *before* the VM
        boots, so a half-built VM is never visible to revocation
        storms.  Setup races (the chosen host revoked under us while
        the control-plane operations ran) retry immediately on a fresh
        host; transient control-plane errors retry with jittered
        backoff inside :meth:`_api_retry`.  When the policy's attempt
        budget runs out the flow degrades to a direct on-demand
        placement — the VM is born parked and the price dynamics bring
        it to spot later — instead of failing the request.
        """
        policy = self.config.retry
        pool = None
        for _attempt in range(policy.max_attempts):
            pool = self._choose_pool(customer)
            host = None
            try:
                host, on_spot = yield from self._host_with_slot(pool)
                yield from self._wire_networking(vm, customer, host)
                yield from self._attach_storage(vm, host)
            except (ApiError, CapacityError) as exc:
                self._unwire(vm)
                if host is not None:
                    host.hypervisor.cancel_reservation()
                self._note_degraded("request.placement", exc)
                continue
            if host.instance.is_running:
                return host, on_spot, pool
            self._unwire(vm)
            host.hypervisor.cancel_reservation()
        host = yield from self._fallback_on_demand(vm, customer, pool)
        return host, False, pool

    def _fallback_on_demand(self, vm, customer, pool):
        """Process body: last-resort placement on the on-demand side.

        Loops — free slot, fresh on-demand host, then a hold-down and
        another round — until the platform yields a host.  This is the
        graceful-degradation tail of the request flow: under capacity
        episodes or error storms the request is deferred, never
        failed.
        """
        zone = pool.zone if pool is not None else self.zone
        od_pool = self.pools.on_demand_pool(self.slot_itype.name, zone.name)
        while True:
            host = od_pool.host_with_free_slot()
            if host is None:
                try:
                    instance = yield from self._api_retry(
                        lambda: self.api.run_instance(
                            self.slot_itype, zone, Market.ON_DEMAND),
                        "start_on_demand_instance")
                except (ApiError, CapacityError) as exc:
                    self._note_degraded("request.deferred", exc)
                    yield self.env.timeout(self.config.retry.max_delay_s)
                    continue
                host = HostVM(self.env, instance, self.slot_itype, slots=1)
                od_pool.add_host(host)
            host.hypervisor.reserve_slot()
            try:
                yield from self._wire_networking(vm, customer, host)
                yield from self._attach_storage(vm, host)
            except (ApiError, CapacityError) as exc:
                self._unwire(vm)
                host.hypervisor.cancel_reservation()
                self._note_degraded("request.deferred", exc)
                yield self.env.timeout(self.config.retry.base_delay_s)
                continue
            return host

    def _api_retry(self, factory, operation, deadline=None):
        """Retry generator for one control-plane call (``yield from``)."""
        return retry_call(self.env, factory, self.config.retry, operation,
                          deadline=deadline)

    def _note_degraded(self, path, exc):
        """Publish one graceful-degradation decision."""
        obs = self.env.obs
        if obs is not None:
            obs.emit("fault.degraded", path=path, error=type(exc).__name__)
            obs.metrics.counter("fault_degradations_total", path=path).inc()

    def _unwire(self, vm):
        """Detach a never-booted VM's plumbing after a setup race."""
        if vm.eni is not None:
            if vm.eni.is_attached:
                vm.eni._detach()
            if vm.private_ip is not None:
                self.api.vpc.unassign_private_ip(vm.eni, vm.private_ip)
                vm.private_ip = None
            vm.eni = None
        if vm.volume is not None:
            vm.volume._force_detach()
            vm.volume.delete()
            vm.volume = None
        return
        yield  # pragma: no cover — generator form for symmetry

    def _choose_pool(self, customer=None):
        spot_pools = self.pools.all_spot_pools()
        if self.allocation is not None:
            return self.allocation.choose(spot_pools, self._rng,
                                          customer=customer)
        # Placement policies pick a (type, zone, slots) from the markets.
        markets = {market.key: market for market in self.api.marketplace}
        if self.config.allocation_policy == "greedy":
            policy = GreedyCheapestFirst(self.api.catalog)
            choice = policy.choose(self.slot_itype, markets)
        else:
            policy = StabilityFirst(self.api.catalog)
            choice = policy.choose(self.slot_itype, markets, now=self.env.now)
        key = ("spot", choice.itype.name, choice.zone.name)
        if key not in self.pools.spot_pools:
            market = self.api.marketplace.market(choice.itype, choice.zone)
            pool = SpotPool(choice.itype, choice.zone, self.slot_itype,
                            market, self.bid_policy.bid_for(choice.itype))
            self.pools.add_spot_pool(pool)
            self._wire_pool_dynamics(market, pool)
        return self.pools.spot_pools[key]

    def _slots_per_host(self, host_itype):
        if not self.config.slicing:
            return 1
        return max(int(min(
            host_itype.memory_gib // self.slot_itype.memory_gib,
            host_itype.vcpus // self.slot_itype.vcpus)), 1)

    # -- bulk provisioning -------------------------------------------------

    def provision_fleet(self, customer, count, pool=None,
                        workload_factory=None):
        """Process: bulk-boot ``count`` nested VMs onto one spot pool.

        The fleet-scale request path: one batched ``run_instances``
        call launches every host (one control-plane latency for the
        whole fleet), VMs boot directly into the sliced slots, and
        plan-level per-VM work (the live-fits-warning planner, the
        iterative stream-rate solve) is computed once per workload
        class instead of once per VM.  Unlike :meth:`request_server`,
        the bulk path skips per-VM ENI/volume plumbing — subnets are
        /24s, so a 100k-VM cell cannot hold per-VM addresses, and
        nothing in the steady-state machinery needs them (every
        consumer null-checks ``vm.eni`` / ``vm.volume``).

        Returns the list of running nested VMs.
        """
        return self.env.process(
            self._provision_fleet(customer, count, pool, workload_factory))

    def _provision_fleet(self, customer, count, pool, workload_factory):
        if count < 1:
            raise ValueError("count must be at least 1")
        if pool is None:
            pool = next(iter(self.pools.spot_pools.values()))
        slots = self._slots_per_host(pool.itype)
        host_count = -(-count // slots)
        instances = yield self.api.run_instances(
            pool.itype, pool.zone, Market.SPOT, host_count, bid=pool.bid)
        hosts = []
        for instance in instances:
            host = HostVM(self.env, instance, self.slot_itype, slots=slots)
            pool.add_host(host)
            self.env.process(self._watch_spot_host(host, pool))
            hosts.append(host)

        warning = self.api.marketplace.warning_period
        #: Per-workload-class plan cache keyed by the VM's memory model
        #: (a frozen dataclass): the planner verdict and stream rate
        #: are pure functions of the dirtying profile, and distinct
        #: workload classes may share one python type (write-scaled
        #: fleet mixes), so the type name is not a safe key.
        class_plans = {}
        vms = []
        booted = 0
        obs = self.env.obs
        for host in hosts:
            for _slot in range(slots):
                if booted >= count:
                    break
                workload = (workload_factory() if workload_factory
                            is not None else None)
                vm = NestedVM(self.env, self.slot_itype, workload=workload,
                              customer=customer)
                vm.checkpoint_stream = CheckpointStream(
                    vm.memory, self.config.mechanism.checkpoint)
                key = vm.memory
                plan = class_plans.get(key)
                if plan is None:
                    plan = {
                        "live_fits": self.migrations.live_fits_warning(
                            vm.memory, warning),
                        "rate": vm.checkpoint_stream.stream_rate_bps(),
                    }
                    class_plans[key] = plan
                host.hypervisor.boot(vm)
                vm.host = host
                customer.add_vm(vm)
                self.ledger.vm_created(vm)
                if not (self.config.live_migration_only
                        or plan["live_fits"]):
                    backup = self.backup_pool.assign(
                        vm.id, plan["rate"], cap=self.config.vms_per_backup)
                    vm.backup_assignment = backup
                    backup.store.open_image(vm.id, vm.memory.total_bytes)
                    backup.store.seed_full_image(vm.id)
                    if self.config.steady_checkpoint_flush:
                        self.migrations.steady_flush_join(vm, backup)
                booted += 1
                vms.append(vm)
        if obs is not None:
            obs.emit("fleet.provisioned", vms=len(vms), hosts=len(hosts),
                     pool_key=pool.key)
            obs.metrics.counter("vms_created_total").inc(len(vms))
        return vms

    def _host_with_slot(self, pool):
        """Process body: a host in ``pool`` with a slot reserved for us.

        Reuses reserved slots on existing (healthy) hosts first, then
        launches a new spot host; if the pool's market price currently
        exceeds the bid, falls back to an on-demand host (the VM is
        born parked).
        """
        host = pool.host_with_free_slot()
        if host is not None and host.instance.state is \
                InstanceState.RUNNING:
            host.hypervisor.reserve_slot()
            return host, True
        try:
            instance = yield from self._api_retry(
                lambda: self.api.run_instance(
                    pool.itype, pool.zone, Market.SPOT, bid=pool.bid),
                "start_spot_instance")
        except (BidTooLow, CapacityError):
            od_pool = self.pools.on_demand_pool(
                self.slot_itype.name, pool.zone.name)
            host = od_pool.host_with_free_slot()
            if host is None:
                instance = yield from self._api_retry(
                    lambda: self.api.run_instance(
                        self.slot_itype, pool.zone, Market.ON_DEMAND),
                    "start_on_demand_instance")
                host = HostVM(self.env, instance, self.slot_itype, slots=1)
                od_pool.add_host(host)
            host.hypervisor.reserve_slot()
            return host, False
        host = HostVM(self.env, instance, self.slot_itype,
                      slots=self._slots_per_host(pool.itype))
        host.hypervisor.reserve_slot()
        pool.add_host(host)
        self.env.process(self._watch_spot_host(host, pool))
        return host, True

    def _wire_networking(self, vm, customer, host):
        subnet = customer.subnets.get(host.zone.name)
        if subnet is None:
            subnet = self.api.vpc.create_subnet(host.zone)
            customer.subnets[host.zone.name] = subnet
        eni = self.api.create_interface(subnet)
        # Recorded on the VM before the attach so a mid-flight failure
        # leaves something for _unwire to release.
        vm.eni = eni
        yield from self._api_retry(
            lambda: self.api.attach_interface(eni, host.instance),
            "attach_network_interface")
        vm.private_ip = self.api.vpc.assign_private_ip(eni)

    def _attach_storage(self, vm, host):
        volume = self.api.create_volume(
            size_gib=max(int(vm.itype.memory_gib * 2), 8), zone=host.zone)
        vm.volume = volume
        yield from self._api_retry(
            lambda: self.api.attach_volume(volume, host.instance),
            "attach_volume")

    # -- backup management ---------------------------------------------------

    def _assign_backup(self, vm):
        """Give a spot-hosted VM its backup server, unless exempt.

        Idempotent: a VM that is already protected keeps its server.
        """
        if self.config.live_migration_only or \
                vm.backup_assignment is not None:
            return
        warning = self.api.marketplace.warning_period
        if self.migrations.live_fits_warning(vm.memory, warning):
            return  # Small-VM exception: live migration suffices.
        backup = self.backup_pool.assign(
            vm.id, vm.checkpoint_stream.stream_rate_bps(),
            cap=self.config.vms_per_backup)
        vm.backup_assignment = backup
        backup.store.open_image(vm.id, vm.memory.total_bytes)
        backup.store.seed_full_image(vm.id)
        if self.config.steady_checkpoint_flush:
            self.migrations.steady_flush_join(vm, backup)

    def on_demand_pool_for(self, vm):
        """The on-demand pool revoked VMs of ``vm`` fail over to.

        Failover stays within the VM's zone: its network volume is
        zone-locked, so the destination must be able to attach it.
        """
        zone = self.zone
        if vm.volume is not None:
            zone = vm.volume.zone
        elif vm.host is not None:
            zone = vm.host.zone
        return self.pools.on_demand_pool(self.slot_itype.name, zone.name)

    def release_backup(self, vm):
        backup = vm.backup_assignment
        if backup is None:
            return
        self.migrations.steady_flush_leave(vm.id)
        self.backup_pool.release(vm.id, backup)
        backup.store.close_image(vm.id)
        vm.backup_assignment = None

    def _provision_backup_server(self):
        server = BackupServer(self.env, self.config.backup_spec)
        server.store = CheckpointStore(self.env)
        return server

    def fail_backup_server(self, server):
        """Failure injection: a backup server (and its images) dies.

        Every VM it protected is re-assigned to a healthy (or freshly
        provisioned) backup server and re-seeded from its own live
        memory.  Until the new full copy completes, the VM is exposed:
        a revocation in that window falls back to an in-warning live
        migration, which risks (but does not necessarily cause) state
        loss — the invariant "no state loss" holds again as soon as the
        re-seed lands.
        """
        server.mark_failed()
        self.backup_failures += 1
        obs = self.env.obs
        if obs is not None:
            obs.emit("backup.server_failed", server=server.id,
                     protected_vms=len(server.streams))
            obs.metrics.counter("backup_server_failures_total").inc()
        victims = [vm for vm in self.all_vms()
                   if vm.backup_assignment is server]
        for vm in victims:
            self.backup_pool.release(vm.id, server)
            vm.backup_assignment = None
            if vm.is_running and vm.host is not None and \
                    vm.host.instance.is_spot:
                # Reassign immediately; the fresh full copy streams in
                # the background and completes after transfer time.
                backup = self.backup_pool.assign(
                    vm.id, vm.checkpoint_stream.stream_rate_bps(),
                    cap=self.config.vms_per_backup)
                vm.backup_assignment = backup
                backup.store.open_image(vm.id, vm.memory.total_bytes)
                self.env.process(self._reseed(vm, backup))
        return victims

    def _reseed(self, vm, backup):
        """Stream a fresh full image to the replacement backup server."""
        reseed_rate = self.config.mechanism.checkpoint.stream_bandwidth_bps
        yield self.env.timeout(vm.memory.total_bytes / reseed_rate)
        if vm.backup_assignment is backup and vm.id in backup.store:
            backup.store.seed_full_image(vm.id)

    # -- revocation handling ---------------------------------------------------

    def _watch_spot_host(self, host, pool):
        deadline = yield host.instance.termination_notice
        vms = list(host.vms)
        storm = self._storm_for(pool)
        storm.add_host(host, vms)
        # Let every same-instant warning register before sizing the storm.
        yield self.env.timeout(0)
        if storm.finalize_once():
            pool.record_revocation(storm.when, len(storm.hosts),
                                   len(storm.vms))
            self.ledger.record_revocation(
                pool_key=pool.key, hosts_lost=len(storm.hosts),
                vms_displaced=len(storm.vms), backup_load=storm.backup_load)
            if self.on_storm is not None:
                self.on_storm(pool, storm)
            obs = self.env.obs
            if obs is not None:
                obs.emit("storm.finalized",
                         pool="/".join(map(str, pool.key)),
                         hosts_lost=len(storm.hosts),
                         vms_displaced=len(storm.vms),
                         backup_servers=len(storm.backup_load))
                obs.metrics.counter(
                    "revocation_storms_total",
                    pool="/".join(map(str, pool.key))).inc()
                obs.metrics.histogram(
                    "storm_vms_displaced").observe(len(storm.vms))
        for vm in vms:
            self.migrations.migrate_on_revocation(
                vm, host, deadline, pool, storm=storm)
        # The doomed host stays in the pool (unplaceable, still
        # draining) until the platform actually terminates it.
        yield host.instance.terminated
        pool.remove_host(host)

    def _storm_for(self, pool):
        key = (pool.key, self.env.now)
        storm = self._storms.get(key)
        if storm is None:
            storm = _Storm(pool.key, self.env.now)
            self._storms[key] = storm
        return storm

    # -- pool dynamics: parking, returns, proactive moves ------------------

    def note_parked(self, vm, home_pool, dest_kind):
        """A VM landed on the on-demand side (or a staging slot)."""
        self._parked[vm.id] = (vm, home_pool)
        obs = self.env.obs
        if obs is not None:
            obs.emit("vm.parked", vm=vm.id, dest_kind=dest_kind,
                     home_pool="/".join(map(str, home_pool.key)))
            obs.metrics.gauge("parked_vms").set(len(self._parked))
        self._rearm_market(home_pool)
        if dest_kind == "staging":
            self.env.process(self._rebalance_from_staging(vm))

    def _rebalance_from_staging(self, vm):
        """Move a staged VM to a real on-demand host ("this strategy
        doubles the number of migrations")."""
        zone = vm.volume.zone if vm.volume is not None else self.zone
        try:
            instance = yield from self._api_retry(
                lambda: self.api.run_instance(
                    vm.itype, zone, Market.ON_DEMAND),
                "start_on_demand_instance")
        except (CapacityError, ApiError) as exc:
            if isinstance(exc, ApiError):
                self._note_degraded("rebalance.start", exc)
            return  # Stay staged; the return-to-spot path will move it.
        od_pool = self.pools.on_demand_pool(
            self.slot_itype.name, zone.name)
        host = HostVM(self.env, instance, self.slot_itype, slots=1)
        host.hypervisor.reserve_slot()
        od_pool.add_host(host)
        source_host = vm.host
        moved = yield self.migrations.live_migrate(
            vm, source_host, cause="rebalance", dest_host=host)
        if moved is None:
            host.hypervisor.cancel_reservation()
            self._gc_host_if_empty(host)
        self._gc_host_if_empty(source_host)

    def _maybe_predictive_drain(self, pool, price):
        """Unbounded-watch trigger: feed the predictor, drain on signal."""
        if pool.vm_count > 0 and pool.key not in self._draining_pools and \
                self.predictor.observe(pool.key, self.env.now, price,
                                       pool.bid):
            self._draining_pools.add(pool.key)
            self._note_pool_move(pool, "pool.drain", cause="predictive",
                                 price=price)
            self.env.process(self._proactive_drain(pool, cause="predictive"))

    def _maybe_proactive_drain(self, pool, price):
        """Crossing-tier trigger: the price entered (od, bid]."""
        if pool.key in self._draining_pools or pool.vm_count <= 0:
            return
        self._draining_pools.add(pool.key)
        self._note_pool_move(pool, "pool.drain", cause="proactive",
                             price=price)
        self.env.process(self._proactive_drain(pool))

    def _maybe_return_to_spot(self, pool, price):
        """Crossing-tier trigger: the price recovered below on-demand."""
        if pool.key in self._returning_pools or \
                not self._parked_vms_of(pool):
            return
        self._returning_pools.add(pool.key)
        self._note_pool_move(pool, "pool.return_to_spot",
                             cause="price-recovery", price=price)
        self.env.process(self._return_to_spot(pool))

    def _note_pool_move(self, pool, event_name, cause, price):
        """Publish the start of a pool-wide drain or return."""
        obs = self.env.obs
        if obs is None:
            return
        obs.emit(event_name, pool="/".join(map(str, pool.key)),
                 cause=cause, price=price, vms=pool.vm_count)
        obs.metrics.counter("pool_moves_total", kind=event_name,
                            cause=cause).inc()

    def _parked_vms_of(self, pool):
        return [vm for vm, home in self._parked.values() if home is pool]

    def is_parked(self, vm):
        """Whether ``vm`` currently lives on the on-demand side."""
        return vm.id in self._parked

    def spot_residents(self, customer):
        """``(vm, pool)`` for the customer's spot-hosted running VMs.

        Parked VMs are excluded — they belong to the return-to-spot
        path, not to portfolio rebalancing.
        """
        residents = []
        for vm in customer.vms:
            if not vm.is_running or vm.id in self._parked:
                continue
            host = vm.host
            if host is None:
                continue
            pool = self.pools.pool_of_host(host)
            if pool is not None and pool.market_kind == "spot":
                residents.append((vm, pool))
        return residents

    def estimate_rebalance_seconds(self):
        """Planning estimate: live-migration duration of one slot VM."""
        bits = self.slot_itype.memory_gib * 8 * 2 ** 30
        return bits / self.config.live_migration_bps

    def execute_rebalance(self, moves):
        """Process: live-migrate ``[(vm, dest_pool), ...]`` toward a
        portfolio policy's new weights."""
        return self.env.process(self._rebalance_spot_flow(moves))

    def _rebalance_spot_flow(self, moves):
        """Carry out planned portfolio moves, one bounded flow.

        Each move mirrors the return-to-spot mechanics: a destination
        slot is reserved (reusing free slots before launching a fresh
        spot host), the VM live-migrates, and emptied source hosts are
        garbage-collected.  A move whose VM meanwhile parked, died, or
        already sits in the destination pool is skipped; a platform
        refusal abandons the remaining moves — the next crossing
        replans from current state.
        """
        obs = self.env.obs
        if obs is not None:
            obs.emit("pool.rebalance", moves=len(moves))
            obs.metrics.counter("pool_moves_total", kind="pool.rebalance",
                                cause="portfolio").inc()
        for vm, dest_pool in moves:
            if not vm.is_running or vm.id in self._parked:
                continue
            source_host = vm.host
            if source_host is None or \
                    self.pools.pool_of_host(source_host) is dest_pool:
                continue
            host = dest_pool.host_with_free_slot()
            if host is None:
                try:
                    instance = yield from self._api_retry(
                        lambda: self.api.run_instance(
                            dest_pool.itype, dest_pool.zone, Market.SPOT,
                            bid=dest_pool.bid),
                        "start_spot_instance")
                except (BidTooLow, CapacityError, ApiError) as exc:
                    self._note_degraded("rebalance.start_spot", exc)
                    return
                host = HostVM(self.env, instance, self.slot_itype,
                              slots=self._slots_per_host(dest_pool.itype))
                dest_pool.add_host(host)
                self.env.process(self._watch_spot_host(host, dest_pool))
            host.hypervisor.reserve_slot()
            moved = yield self.migrations.live_migrate(
                vm, source_host, cause="rebalance", dest_host=host)
            if moved is None:
                host.hypervisor.cancel_reservation()
                self._gc_host_if_empty(host)
                continue
            self._assign_backup(vm)
            self.migrations.chase_if_doomed(vm, host)
            self._gc_host_if_empty(source_host)

    def _proactive_drain(self, pool, cause="proactive"):
        """Live-migrate a pool to on-demand ahead of a revocation.

        All of the pool's VMs drain concurrently — a sequential drain
        could not beat an onset ramp to the bid crossing.  VMs whose
        drain loses the race are caught by the normal warning path
        (they are busy-locked, so the flows never collide).
        """
        try:
            drains = []
            for host in list(pool.hosts):
                for vm in list(host.vms):
                    if not vm.is_running:
                        continue
                    drains.append((vm, self.migrations.live_migrate(
                        vm, host, cause=cause, exclude_pool=pool)))
            for vm, drain in drains:
                moved = yield drain
                if moved is None:
                    continue
                self.release_backup(vm)
                self.note_parked(vm, pool, "pool")
            if pool.market.current_price() > pool.bid:
                return  # Too late: the warning path takes over.
            for host in list(pool.hosts):
                if host.vms:
                    continue
                pool.remove_host(host)
                if host.instance.is_running:
                    self._terminate_host(host.instance, "drain.terminate")
        finally:
            self._draining_pools.discard(pool.key)

    def _return_to_spot(self, pool):
        """After the hold-down, bring parked VMs home to the spot pool."""
        try:
            yield self.env.timeout(self.config.return_holddown_s)
            od_price = pool.itype.on_demand_price
            if pool.market.current_price() > od_price:
                return  # The dip did not last.
            for vm in self._parked_vms_of(pool):
                if not vm.is_running:
                    continue
                host = pool.host_with_free_slot()
                if host is None:
                    try:
                        instance = yield from self._api_retry(
                            lambda: self.api.run_instance(
                                pool.itype, pool.zone, Market.SPOT,
                                bid=pool.bid),
                            "start_spot_instance")
                    except (BidTooLow, CapacityError, ApiError):
                        return
                    host = HostVM(self.env, instance, self.slot_itype,
                                  slots=self._slots_per_host(pool.itype))
                    pool.add_host(host)
                    self.env.process(self._watch_spot_host(host, pool))
                host.hypervisor.reserve_slot()
                source_host = vm.host
                moved = yield self.migrations.live_migrate(
                    vm, source_host, cause="return-to-spot", dest_host=host)
                if moved is None:
                    host.hypervisor.cancel_reservation()
                    continue
                self._parked.pop(vm.id, None)
                # The return migration just streamed the VM's full
                # state; the backup server tees that stream, so the
                # image is complete the moment the VM lands — there is
                # no unprotected window on arrival.
                self._assign_backup(vm)
                self.migrations.chase_if_doomed(vm, host)
                self._gc_host_if_empty(source_host)
                if pool.market.current_price() > od_price:
                    return
        finally:
            self._returning_pools.discard(pool.key)
            # VMs may still be parked (the dip did not last, or a
            # mid-return launch failed): reopen the recovery watch.
            self._rearm_market(pool)

    def _gc_host_if_empty(self, host):
        """Relinquish an emptied on-demand host (not hot spares)."""
        if host.vms or host in self.spares.spares:
            return
        pool = self.pools.pool_of_host(host)
        if pool is None or pool.market_kind != "on-demand":
            return
        pool.remove_host(host)
        if host.instance.is_running:
            self._terminate_host(host.instance, "host.gc")

    def _terminate_host(self, instance, path):
        """Supervised fire-and-forget terminate.

        An unwaited process that fails crashes the simulation kernel,
        so every background terminate runs under this wrapper: retries
        per policy, then gives the host up (the platform's revocation
        machinery or billing finalization reaps it) rather than die.
        """
        def _body():
            try:
                yield from self._api_retry(
                    lambda: self.api.terminate_instance(instance),
                    "terminate_instance")
            except (ApiError, InvalidOperation) as exc:
                self._note_degraded(path, exc)
        return self.env.process(_body())

    # -- hot spares -------------------------------------------------------

    def _kick_spares(self):
        """Deficit-edge hook: wake the sleeping replenisher."""
        wakeup = self._spares_wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()

    def _replenish_spares(self):
        """Keep the hot-spare reserve at its target size.

        Condition-driven: after filling the reserve the process sleeps
        on a bare event that only deficit transition edges (a spare
        taken via ``HotSparePolicy.on_deficit``) or finalization
        succeed, so an at-target reserve costs zero kernel events no
        matter how long the run — the old 60 s poll survives only as a
        retry backoff after the platform refused capacity.  Finalize
        wakes the process too, so a drained controller goes quiet
        immediately instead of leaking one last poll wakeup.
        """
        od_pool = self.pools.on_demand_pool(
            self.slot_itype.name, self.zone.name)
        while not self._finalized:
            refused = False
            while self.spares.deficit > 0 and not self._finalized:
                try:
                    instance = yield from self._api_retry(
                        lambda: self.api.run_instance(
                            self.slot_itype, self.zone, Market.ON_DEMAND),
                        "start_on_demand_instance")
                except (CapacityError, ApiError):
                    refused = True
                    break
                host = HostVM(self.env, instance, self.slot_itype, slots=1)
                od_pool.add_host(host)
                self.spares.add_spare(host)
                self._spares_stats["provisioned"] += 1
            if self._finalized:
                break
            self._spares_wakeup = wakeup = self.env.event()
            if refused:
                # Capacity backoff: retry on the legacy 60 s cadence,
                # but let a deficit edge or finalize cut it short.
                yield self.env.any_of([wakeup, self.env.timeout(60.0)])
                self._spares_stats["polls"] += 1
            else:
                yield wakeup
                self._spares_stats["wakes"] += 1
            self._spares_wakeup = None

    def spares_drive_stats(self):
        """Replenisher wakeup counters (the fleet bench's elision proof)."""
        stats = dict(self._spares_stats)
        stats["consumed"] = self.spares.consumed
        stats["replenished"] = self.spares.replenished
        return stats

    # -- relinquish -------------------------------------------------------

    def _relinquish_flow(self, vm):
        self.release_backup(vm)
        self._parked.pop(vm.id, None)
        if vm.customer is not None:
            vm.customer.remove_vm(vm)
        host = vm.host
        vm.set_state(VMState.TERMINATED)
        self.ledger.vm_terminated(vm)
        obs = self.env.obs
        if obs is not None:
            obs.emit("vm.terminated", vm=vm.id)
            obs.metrics.counter("vms_terminated_total").inc()
        if host is not None:
            host.hypervisor.evict(vm)
        if vm.eni is not None and vm.eni.is_attached:
            try:
                yield from self._api_retry(
                    lambda: self.api.detach_interface(vm.eni),
                    "detach_network_interface")
            except ApiError as exc:
                # The ENI is orphaned, not leaked: a later forced host
                # termination releases it.
                self._note_degraded("relinquish.detach_interface", exc)
        if vm.volume is not None and vm.volume.attached_to is not None:
            try:
                yield from self._api_retry(
                    lambda: self.api.detach_volume(vm.volume),
                    "detach_volume")
            except ApiError as exc:
                self._note_degraded("relinquish.detach_volume", exc)
            if vm.volume.attached_to is None:
                vm.volume.delete()
        if host is not None and not host.vms and \
                host not in self.spares.spares:
            pool = self.pools.pool_of_host(host)
            if pool is not None:
                pool.remove_host(host)
            if host.instance.is_running:
                try:
                    yield from self._api_retry(
                        lambda: self.api.terminate_instance(host.instance),
                        "terminate_instance")
                except (ApiError, InvalidOperation) as exc:
                    self._note_degraded("relinquish.terminate", exc)
        return vm

    # -- reporting -------------------------------------------------------

    def finalize(self):
        """Close the books: backup-server and lifetime accounting."""
        if self._finalized:
            return
        self._finalized = True
        self._kick_spares()
        self.migrations.settle_steady_flush()
        if self.traffic is not None:
            self.traffic.finalize()
        for server in self.backup_pool.servers:
            end = server.failed_at if server.failed else self.env.now
            hours = (end - server.created_at) / 3600.0
            self.ledger.add_cost(
                f"backup:{server.id}", hours * server.spec.hourly_price)
        self.ledger.finalize()
        obs = self.env.obs
        if obs is not None:
            for market in self.api.marketplace:
                obs.emit("spot.drive", type=market.itype.name,
                         zone=market.zone.name, **market.drive_stats())

    def summary(self, total_vms=None):
        """Cost/availability/storm report (see AccountingLedger)."""
        return self.ledger.summary(self.api, total_vms=total_vms)

    def all_vms(self):
        return [vm for customer in self.customers.values()
                for vm in customer.vms]
