"""Typed messages exchanged between the coordinator and market shards.

Two directions, two families:

Coordinator -> shard (requests)
    :class:`ProvisionRequest`, :class:`ParkRequest`,
    :class:`MigrateRequest` — imperative work the shard applies at an
    epoch boundary.

Shard -> coordinator (events)
    :class:`RevocationWarning`, :class:`StormReport`,
    :class:`SlaSegment`, :class:`MigrateAck` —
    observations stamped with a :class:`Stamp` logical clock so the
    coordinator can merge streams from any number of shards into one
    total order (see :mod:`repro.core.shard.mailbox`).

Every event is identified by its market *key* (type name, zone name)
and carries only counts, prices, and times — never raw instance or VM
ids.  Ids come from module-global counters whose values depend on how
markets share a process, so a message carrying one would break the
bit-identity guarantee between shard counts.  Everything here is a
frozen dataclass: hashable, picklable, and safe to send over a pipe.
"""

from dataclasses import dataclass

# -- logical clock ---------------------------------------------------------


@dataclass(frozen=True, order=True)
class Stamp:
    """Logical clock for the deterministic merge.

    ``time``
        The emitting market's simulated time.
    ``market``
        The market's index in the coordinator's sorted market list —
        NOT a process or shard id, so the total order is identical no
        matter which process hosts the market.
    ``seq``
        Per-market emission counter, breaking same-instant ties in
        emission order.
    """

    time: float
    market: int
    seq: int


# -- coordinator -> shard requests ----------------------------------------


@dataclass(frozen=True)
class ProvisionRequest:
    """Boot ``count`` nested VMs into market ``market`` (by index)."""

    market: int
    count: int
    customer: str = "fleet"


@dataclass(frozen=True)
class ParkRequest:
    """Live-migrate up to ``count`` of the market's VMs to on-demand."""

    market: int
    count: int


@dataclass(frozen=True)
class MigrateRequest:
    """Move ``count`` VMs out of ``market`` toward ``dest_market``.

    Cross-market moves are coordinator-mediated: the source shard
    relinquishes the VMs (acking with a :class:`MigrateAck`) and the
    coordinator provisions replacements in the destination market.
    VM state never crosses a market boundary — in SpotCheck terms the
    move restores from the backup tier rather than streaming live.
    """

    market: int
    count: int
    dest_market: int


# -- shard -> coordinator events ------------------------------------------


@dataclass(frozen=True)
class RevocationWarning:
    """The market warned an instance; revocation lands at ``deadline``."""

    stamp: Stamp
    market_key: tuple
    bid: float
    deadline: float


@dataclass(frozen=True)
class StormReport:
    """A finalized revocation storm: every same-instant warning, sized."""

    stamp: Stamp
    market_key: tuple
    hosts_lost: int
    vms_displaced: int


@dataclass(frozen=True)
class SlaSegment:
    """One market's contribution to the fleet's availability SLA."""

    stamp: Stamp
    market_key: tuple
    customer: str
    vm_hours: float
    availability: float
    unavailability_pct: float
    degradation_pct: float


@dataclass(frozen=True)
class MigrateAck:
    """Source-side completion of a :class:`MigrateRequest`."""

    stamp: Stamp
    market_key: tuple
    released: int
    dest_market: int


@dataclass(frozen=True)
class ShardReport:
    """Per-market final report returned by ``FinalizeCommand``.

    ``summary`` holds reducible aggregates (vm-seconds, downtime,
    dollars, event counts) rather than ratios, so the coordinator can
    merge markets in index order and derive fleet-level ratios from
    exact sums — the float reduction order is fixed, which is what
    keeps merged summaries bit-identical across shard counts.
    """

    stamp: Stamp
    market: int
    market_key: tuple
    vms: int
    hosts: int
    parked: int
    events_processed: int
    summary: dict
    drive: dict
    flush: dict
    spares: dict


# -- transport commands ----------------------------------------------------


@dataclass(frozen=True)
class ApplyCommand:
    """Apply epoch-boundary requests (each targets one of the shard's
    markets); flows run to completion before the reply."""

    requests: tuple


@dataclass(frozen=True)
class RunCommand:
    """Advance every market in the shard to simulated time ``until``."""

    until: float


@dataclass(frozen=True)
class FinalizeCommand:
    """Close the books on every market; reply carries ShardReports."""


@dataclass(frozen=True)
class StopCommand:
    """Shut the worker process down."""


@dataclass(frozen=True)
class ShardReply:
    """Worker response: drained event messages plus per-command payload.

    ``error`` carries a formatted traceback when the command failed —
    raising in the worker would just hang the pipe.
    """

    messages: tuple = ()
    acks: tuple = ()
    reports: tuple = ()
    error: str = None


__all__ = [
    "ApplyCommand",
    "FinalizeCommand",
    "MigrateAck",
    "MigrateRequest",
    "ParkRequest",
    "ProvisionRequest",
    "RevocationWarning",
    "RunCommand",
    "ShardReply",
    "ShardReport",
    "SlaSegment",
    "Stamp",
    "StopCommand",
    "StormReport",
]
