"""Host VMs and the nested hypervisor (the XenBlanket layer).

A :class:`HostVM` pairs one native instance with a
:class:`NestedHypervisor` that slices it into nested-VM slots.  Slicing
is how SpotCheck arbitrages non-uniform size-to-price ratios: a
m3.large host can hold two m3.medium nested VMs, and is sometimes
cheaper than two m3.medium spot servers.
"""

from repro.virt.vm import VMState


class NestedHypervisor:
    """The nested hypervisor installed on a host VM.

    Parameters
    ----------
    env:
        Simulation environment.
    host_itype:
        The native instance type underneath.
    slot_itype:
        The advertised nested-VM type each slot holds.
    slots:
        Number of nested-VM slots carved from the host.
    """

    def __init__(self, env, host_itype, slot_itype, slots=1):
        if slots < 1:
            raise ValueError("a hypervisor needs at least one slot")
        needed_gib = slot_itype.memory_gib * slots
        if needed_gib > host_itype.memory_gib:
            raise ValueError(
                f"{slots}x {slot_itype.name} does not fit in "
                f"{host_itype.name} ({needed_gib} > {host_itype.memory_gib} GiB)")
        if slot_itype.vcpus * slots > host_itype.vcpus:
            raise ValueError(
                f"{slots}x {slot_itype.name} exceeds {host_itype.name} vCPUs")
        self.env = env
        self.host_itype = host_itype
        self.slot_itype = slot_itype
        self.slots = slots
        self.vms = []
        #: Slots promised to in-flight migrations; counted as occupied
        #: so concurrent migrations cannot race for the same slot.
        self.reserved = 0
        #: Optional callback fired after any slot-occupancy mutation
        #: (reserve/cancel/consume/evict).  Pools use it to keep their
        #: aggregate counters and free-slot index current without
        #: scanning hosts.
        self.on_change = None

    @property
    def free_slots(self):
        return self.slots - len(self.vms) - self.reserved

    def reserve_slot(self):
        """Promise a slot to an in-flight migration."""
        if self.free_slots <= 0:
            raise ValueError("no slot available to reserve")
        self.reserved += 1
        if self.on_change is not None:
            self.on_change()

    def cancel_reservation(self):
        """Return an unused reservation."""
        self.reserved = max(self.reserved - 1, 0)
        if self.on_change is not None:
            self.on_change()

    def _consume_slot(self, vm):
        if self.reserved > 0:
            self.reserved -= 1
        elif self.free_slots <= 0:
            raise ValueError(f"no free slot for {vm.id}")
        self.vms.append(vm)
        if self.on_change is not None:
            self.on_change()

    def boot(self, vm):
        """Place a nested VM into a free (or reserved) slot, start it."""
        if vm.itype.name != self.slot_itype.name:
            raise ValueError(
                f"{vm.id} is {vm.itype.name}; this hypervisor slices "
                f"{self.slot_itype.name} slots")
        self._consume_slot(vm)
        vm.set_state(VMState.RUNNING)

    def attach(self, vm):
        """Place a migrated-in nested VM without changing its state."""
        self._consume_slot(vm)

    def evict(self, vm):
        """Remove a nested VM (migrated away or terminated)."""
        if vm in self.vms:
            self.vms.remove(vm)
            if self.on_change is not None:
                self.on_change()


class HostVM:
    """One rented native instance running the nested hypervisor."""

    def __init__(self, env, instance, slot_itype, slots=1):
        self.env = env
        self.instance = instance
        self.hypervisor = NestedHypervisor(
            env, instance.itype, slot_itype, slots=slots)
        #: ENIs reserved for nested-VM addresses (one per slot, plus the
        #: host's default interface which is not modelled here).
        self.interfaces = []
        #: Backref stamped by :meth:`repro.core.pools.ServerPool.add_host`
        #: so ``PoolManager.pool_of_host`` is O(1).
        self._pool = None

    @property
    def id(self):
        return self.instance.id

    @property
    def itype(self):
        return self.instance.itype

    @property
    def zone(self):
        return self.instance.zone

    @property
    def vms(self):
        return self.hypervisor.vms

    @property
    def free_slots(self):
        return self.hypervisor.free_slots

    def __repr__(self):
        return (f"<HostVM {self.id} {self.itype.name} "
                f"{len(self.vms)}/{self.hypervisor.slots} slots>")
