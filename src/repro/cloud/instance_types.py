"""The instance-type catalog.

On-demand prices are the US-East EC2 prices the paper quotes for 2014:
m3.medium $0.070/hr, m3.xlarge $0.280/hr (used for backup servers), and
the m1.small $0.06/hr on-demand price referenced under Figure 1.  The
remaining types fill out the 15-type catalog used for the Figure 6(d)
cross-type correlation study.
"""

from dataclasses import dataclass

from repro.cloud.errors import NotFound

#: Bytes in one GiB.
GiB = 1024 ** 3


@dataclass(frozen=True)
class InstanceType:
    """A rentable server type.

    Attributes
    ----------
    name:
        EC2-style type name, e.g. ``"m3.medium"``.
    vcpus:
        Number of virtual CPUs.
    memory_gib:
        RAM allotment in GiB.
    on_demand_price:
        Fixed price in $/hour for a non-revocable server.
    network_gbps:
        Usable network bandwidth in Gbit/s.  Catalog data only; no
        simulated transfer reads it.
    hvm:
        Whether the type supports hardware virtual machines.  The
        XenBlanket nested hypervisor — and therefore SpotCheck — can
        only use HVM-capable types.
    """

    name: str
    vcpus: int
    memory_gib: float
    on_demand_price: float
    network_gbps: float = 1.0
    hvm: bool = True

    @property
    def memory_bytes(self):
        """RAM allotment in bytes."""
        return int(self.memory_gib * GiB)

    def unit_price(self):
        """On-demand price per GiB of RAM — the arbitrage yardstick."""
        return self.on_demand_price / self.memory_gib

    def __str__(self):
        return self.name


#: The m3 family (April 2014 US-East prices) used in all experiments.
M3_FAMILY = (
    InstanceType("m3.medium", 1, 3.75, 0.070, 0.5),
    InstanceType("m3.large", 2, 7.5, 0.140, 0.7),
    InstanceType("m3.xlarge", 4, 15.0, 0.280, 1.0),
    InstanceType("m3.2xlarge", 8, 30.0, 0.560, 1.0),
)

#: Wider catalog for the Figure 6(d) 15-type correlation study.  Prices
#: are the contemporary (2014) US-East on-demand prices.
EXTENDED_FAMILIES = (
    InstanceType("m1.small", 1, 1.7, 0.060, 0.3, hvm=False),
    InstanceType("m1.medium", 1, 3.75, 0.087, 0.5, hvm=False),
    InstanceType("m1.large", 2, 7.5, 0.175, 0.7, hvm=False),
    InstanceType("c3.large", 2, 3.75, 0.105, 0.7),
    InstanceType("c3.xlarge", 4, 7.5, 0.210, 1.0),
    InstanceType("c3.2xlarge", 8, 15.0, 0.420, 1.0),
    InstanceType("c3.4xlarge", 16, 30.0, 0.840, 2.0),
    InstanceType("r3.large", 2, 15.0, 0.175, 0.7),
    InstanceType("r3.xlarge", 4, 30.5, 0.350, 1.0),
    InstanceType("r3.2xlarge", 8, 61.0, 0.700, 1.0),
    InstanceType("m2.xlarge", 2, 17.1, 0.245, 0.7, hvm=False),
)


class InstanceTypeCatalog:
    """A lookup table of instance types, keyed by name."""

    def __init__(self, types):
        self._types = {}
        for itype in types:
            if itype.name in self._types:
                raise ValueError(f"duplicate instance type {itype.name}")
            self._types[itype.name] = itype

    def get(self, name):
        """Return the :class:`InstanceType` called ``name``."""
        try:
            return self._types[name]
        except KeyError:
            raise NotFound(f"unknown instance type {name!r}") from None

    def __contains__(self, name):
        return name in self._types

    def __iter__(self):
        return iter(self._types.values())

    def __len__(self):
        return len(self._types)

    def names(self):
        """All type names, in catalog order."""
        return list(self._types)

    def hvm_types(self):
        """Types usable by the nested hypervisor (HVM-capable)."""
        return [t for t in self if t.hvm]

    def slicing_options(self, requested, max_factor=4):
        """Types a request for ``requested`` could be carved out of.

        Returns ``(type, slots)`` pairs: every catalog type whose memory
        and vCPU allotments fit an integer number ``slots`` in
        ``[1, max_factor]`` of the requested type.  This feeds the greedy
        cheapest-first placement policy, which exploits the fact that a
        large spot server is sometimes cheaper than the equivalent
        number of small ones.
        """
        options = []
        for itype in self:
            if not itype.hvm:
                continue
            slots = int(min(itype.memory_gib // requested.memory_gib,
                            itype.vcpus // requested.vcpus))
            if 1 <= slots <= max_factor:
                options.append((itype, slots))
        return options


#: Catalog holding every type above.
DEFAULT_CATALOG = InstanceTypeCatalog(M3_FAMILY + EXTENDED_FAMILIES)

#: Catalog restricted to the m3 family the paper's evaluation uses.
M3_CATALOG = InstanceTypeCatalog(M3_FAMILY)
