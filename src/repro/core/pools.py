"""Server pools: spot pools, the on-demand pool, and the backup pool.

SpotCheck "maintains multiple pools of servers ... for each server
type, separate spot and on-demand pools".  A pool groups the native
hosts of one (market, type, zone) and tracks the statistics the
allocation policies weigh: historical cost per nested-VM slot and
revocation/migration counts.
"""

import heapq
from itertools import count

#: How many trailing price samples feed ``recent_mean_price_per_slot``.
PRICE_SAMPLE_WINDOW = 512

#: Per-host record fields inside ``ServerPool._hosts``.
_SEQ, _VMS, _OFFERED, _HOOK = range(4)


class _HostsView:
    """Live, ordered, sequence-like view over a pool's host set.

    The pool stores hosts in an insertion-ordered dict (O(1) removal);
    this view preserves the old ``pool.hosts`` list surface — iteration,
    ``len``, ``in``, indexing — without materializing a list on every
    access.  Indexing is O(n) but only test/inspection code indexes.
    """

    __slots__ = ("_records",)

    def __init__(self, records):
        self._records = records

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def __contains__(self, host):
        return host in self._records

    def __bool__(self):
        return bool(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records)[index]
        n = len(self._records)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("host index out of range")
        for i, host in enumerate(self._records):
            if i == index:
                return host
        raise IndexError("host index out of range")

    def __repr__(self):
        return repr(list(self._records))


class ServerPool:
    """Base pool: the native hosts of one (market, type, zone).

    Hot state is kept in aggregate form so fleet-scale controllers never
    scan the host list: an insertion-ordered host dict (O(1) add and
    remove), a running nested-VM total maintained by per-host
    :attr:`~repro.virt.hypervisor.NestedHypervisor.on_change` hooks
    (O(1) ``vm_count``), and a min-seq heap of placement candidates so
    ``host_with_free_slot`` is amortized O(log n) while still returning
    the *first* eligible host in insertion order, exactly as the old
    linear scan did.
    """

    market_kind = "abstract"

    def __init__(self, itype, zone, slot_itype):
        self.itype = itype
        self.zone = zone
        self.slot_itype = slot_itype
        #: host -> [seq, last_vm_count, offered, hook]
        self._hosts = {}
        self._seq = count()
        self._vm_total = 0
        #: (seq, host) placement candidates; entries go stale when a
        #: host leaves, fills up, or stops running, and are discarded
        #: lazily on lookup.  ``offered`` on the record keeps each live
        #: membership represented at most once.
        self._free_heap = []
        self.hosts = _HostsView(self._hosts)

    @property
    def key(self):
        return (self.market_kind, self.itype.name, self.zone.name)

    def add_host(self, host):
        if host in self._hosts:
            return
        record = [next(self._seq), len(host.vms), False, None]
        record[_HOOK] = lambda h=host: self._host_changed(h)
        self._hosts[host] = record
        self._vm_total += record[_VMS]
        host._pool = self
        host.hypervisor.on_change = record[_HOOK]
        state = host.instance.state.value
        if state == "pending":
            # Rare: a host registered before its instance finished
            # launching.  Offer it once the instance reaches RUNNING.
            started = host.instance.started
            if started.callbacks is not None:
                started.callbacks.append(
                    lambda _event, h=host: self._host_changed(h))
        self._offer(host, record)

    def remove_host(self, host):
        record = self._hosts.pop(host, None)
        if record is None:
            return
        self._vm_total -= record[_VMS]
        if getattr(host, "_pool", None) is self:
            host._pool = None
        if host.hypervisor.on_change is record[_HOOK]:
            host.hypervisor.on_change = None

    def _offer(self, host, record):
        """Push an eligible host into the placement heap (idempotent)."""
        if record[_OFFERED]:
            return
        if host.free_slots > 0 and host.instance.state.value == "running":
            record[_OFFERED] = True
            heapq.heappush(self._free_heap, (record[_SEQ], host))

    def _host_changed(self, host):
        """Slot-occupancy hook: refresh aggregates for one host."""
        record = self._hosts.get(host)
        if record is None:
            return
        n = len(host.vms)
        self._vm_total += n - record[_VMS]
        record[_VMS] = n
        self._offer(host, record)

    def host_with_free_slot(self):
        """A healthy host with a free nested-VM slot, or None.

        Hosts that have received a revocation warning stay in the pool
        until the platform actually terminates them (their VMs are
        still draining), but they are never offered for placement.
        Warned and terminated entries are dropped permanently (instance
        states never return to RUNNING); full hosts re-enter the heap
        via the hypervisor change hook when a slot frees.
        """
        heap = self._free_heap
        records = self._hosts
        while heap:
            seq, host = heap[0]
            record = records.get(host)
            if record is None or record[_SEQ] != seq:
                heapq.heappop(heap)  # host left the pool; entry is stale
                continue
            if host.instance.state.value != "running":
                heapq.heappop(heap)
                record[_OFFERED] = False
                continue
            if host.free_slots <= 0:
                heapq.heappop(heap)
                record[_OFFERED] = False
                continue
            return host
        return None

    def vms(self):
        """All nested VMs across the pool's hosts (materialized)."""
        return [vm for host in self._hosts for vm in host.vms]

    def iter_vms(self):
        """Iterate nested VMs without building a list."""
        for host in self._hosts:
            yield from host.vms

    @property
    def vm_count(self):
        return self._vm_total

    @property
    def host_count(self):
        return len(self._hosts)

    def __repr__(self):
        return (f"<{type(self).__name__} {self.key} hosts={self.host_count} "
                f"vms={self.vm_count}>")


class SpotPool(ServerPool):
    """A pool of spot hosts sharing one market and one bid price."""

    market_kind = "spot"

    def __init__(self, itype, zone, slot_itype, market, bid):
        super().__init__(itype, zone, slot_itype)
        self.market = market
        self.bid = bid
        #: Revocation-event history: (time, hosts_lost, vms_displaced).
        self.revocations = []
        #: Trace points already delivered when this pool attached —
        #: the start of its sample series, exactly as if it had been
        #: hearing per-point callbacks from that moment on.
        counter = getattr(market, "delivered_count", None)
        self._series_start = counter() if counter is not None else 0

    def record_revocation(self, when, hosts_lost, vms_displaced):
        self.revocations.append((when, hosts_lost, vms_displaced))

    @property
    def slots_per_host(self):
        """Nested-VM slots one host of this pool carries (memory-bound)."""
        return max(int(self.itype.memory_gib // self.slot_itype.memory_gib), 1)

    def price_per_slot(self):
        """Current spot price divided by nested-VM slots per host."""
        return self.market.current_price() / self.slots_per_host

    def _market_price_window(self):
        """The last <= 512 prices a per-point drive would have fed us.

        Reconstructed from the trace arrays via the market's delivered
        count, so the market drive does not need to wake at every point
        just to feed it: same values, same order, same left-to-right
        float sum as a per-point deque accumulation.
        """
        counter = getattr(self.market, "delivered_count", None)
        if counter is None:
            return []
        end = counter()
        start = max(self._series_start, end - PRICE_SAMPLE_WINDOW)
        if end <= start:
            return []
        _times, prices = self.market.trace.arrays()
        return prices[start:end].tolist()

    def recent_mean_price_per_slot(self):
        """Historical mean price per slot (4P-COST's weight input).

        The mean of the lazily reconstructed market window; with an
        empty window, the current price per slot.
        """
        prices = self._market_price_window()
        if not prices:
            return self.price_per_slot()
        return (sum(prices) / len(prices)) / self.slots_per_host

    def recent_migration_count(self, since=None):
        """Revocation events in the window (4P-ST's weight input)."""
        if since is None:
            return len(self.revocations)
        return sum(1 for when, _h, _v in self.revocations if when >= since)

    # -- portfolio cost/risk accessors ---------------------------------

    def mean_price_per_slot_between(self, start, end):
        """Exact time-weighted per-slot price over ``[start, end)``.

        Computed from the trace itself (not from delivered samples), so
        realized-cost folds are subdivision-invariant: folding a window
        in one call or in many yields the same integral.
        """
        if end <= start:
            return self.price_per_slot()
        window = self.market.trace.slice(start, end)
        return window.time_weighted_mean(horizon=end) / self.slots_per_host

    def slot_cost_between(self, start, end):
        """Dollars one nested-VM slot costs over ``[start, end)``."""
        if end <= start:
            return 0.0
        hours = (end - start) / 3600.0
        return self.mean_price_per_slot_between(start, end) * hours

    def eviction_rate(self, now=None, window_s=7 * 24 * 3600.0):
        """Revocation events per hour over the trailing window.

        The eviction-risk input of the optimal-combination scorer; with
        ``now=None`` the whole recorded history counts (rate over the
        series so far is then undefined, so the raw count over one
        window is returned).
        """
        if now is None:
            return len(self.revocations) / (window_s / 3600.0)
        since = now - window_s
        events = sum(1 for when, _h, _v in self.revocations if when >= since)
        return events / (window_s / 3600.0)


class OnDemandPool(ServerPool):
    """The non-revocable pool VMs fail over to."""

    market_kind = "on-demand"


class BackupPool:
    """The pool of backup servers, with round-robin VM assignment.

    "SpotCheck employs a simple round-robin policy to map nested VMs
    within each pool across the set of backup servers.  Once every
    backup server becomes fully utilized, SpotCheck provisions a native
    VM from the IaaS platform to serve as a new backup server."
    """

    def __init__(self, provision):
        self._provision = provision
        self.servers = []
        self._cursor = 0

    def assign(self, vm_id, stream_rate_bps, cap=None):
        """Assign a VM's checkpoint stream round-robin; grow if full.

        Returns the chosen :class:`~repro.backup.server.BackupServer`.
        """
        chosen = self._next_with_capacity(cap)
        if chosen is None:
            chosen = self._provision()
            self.servers.append(chosen)
        chosen.assign_stream(vm_id, stream_rate_bps)
        return chosen

    def _next_with_capacity(self, cap):
        if not self.servers:
            return None
        n = len(self.servers)
        for offset in range(n):
            server = self.servers[(self._cursor + offset) % n]
            if getattr(server, "failed", False):
                continue
            limit = cap if cap is not None else server.spec.max_checkpoint_vms
            if server.assigned_vms < limit:
                self._cursor = (self._cursor + offset + 1) % n
                return server
        return None

    def release(self, vm_id, server):
        server.release_stream(vm_id)

    @property
    def server_count(self):
        return len(self.servers)

    def total_assigned(self):
        return sum(server.assigned_vms for server in self.servers)


class PoolManager:
    """Registry of every pool the controller manages."""

    def __init__(self):
        self.spot_pools = {}
        self.on_demand_pools = {}

    def add_spot_pool(self, pool):
        if pool.key in self.spot_pools:
            raise ValueError(f"duplicate spot pool {pool.key}")
        self.spot_pools[pool.key] = pool

    def add_on_demand_pool(self, pool):
        if pool.key in self.on_demand_pools:
            raise ValueError(f"duplicate on-demand pool {pool.key}")
        self.on_demand_pools[pool.key] = pool

    def spot_pool(self, type_name, zone_name):
        return self.spot_pools[("spot", type_name, zone_name)]

    def on_demand_pool(self, type_name, zone_name):
        return self.on_demand_pools[("on-demand", type_name, zone_name)]

    def all_spot_pools(self):
        return list(self.spot_pools.values())

    def all_pools(self):
        return list(self.spot_pools.values()) + \
            list(self.on_demand_pools.values())

    def pool_of_host(self, host):
        """The registered pool holding ``host``, or None.

        O(1): pools stamp a ``_pool`` backref on membership changes; the
        stamp is validated against this manager's registry so hosts from
        foreign managers (or hosts that already left) return None.
        """
        pool = getattr(host, "_pool", None)
        if pool is None:
            return None
        registry = (self.spot_pools if pool.market_kind == "spot"
                    else self.on_demand_pools)
        if registry.get(pool.key) is not pool:
            return None
        return pool
