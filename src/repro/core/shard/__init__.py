"""Sharded multi-process fleet cell.

SpotCheck's derivative cloud is naturally partitioned: each
(type, zone) spot market is an independent price trace with its own
pools, bids, group-checkpoint cohorts, and spare replenishment.  This
subsystem exploits that partition to scale one fleet cell past the
single-process ceiling — each :class:`MarketShard` process owns the
full controller stack for a subset of markets, and a coordinator
(:class:`ShardedCell`) owns the customers, the portfolio split, and
cross-market migration decisions.

Shards exchange typed messages (see :mod:`repro.core.shard.messages`)
over a deterministic mailbox layer (:mod:`repro.core.shard.mailbox`):
provision/park/migrate requests flow coordinator -> shard; revocation
warnings, storm reports, and SLA segments flow back.
Per-market seeded RNG streams plus the mailbox's logical-clock merge
rule make a sharded run bit-identical to the single-process run at any
shard count — ``ShardedCell.run(shards=4)`` digests equal
``run(shards=1)``.
"""

from repro.core.shard.coordinator import (
    FleetResult,
    ShardedCell,
    ShardWorkerError,
    apportion,
)
from repro.core.shard.mailbox import Mailbox, Outbox, merge_messages
from repro.core.shard.market import (
    MarketShard,
    MarketSimulation,
    MarketSpec,
    ShardConfig,
    fleet_backup_spec,
    steady_rate_bps,
)
from repro.core.shard.messages import (
    ApplyCommand,
    FinalizeCommand,
    MigrateAck,
    MigrateRequest,
    ParkRequest,
    ProvisionRequest,
    RevocationWarning,
    RunCommand,
    ShardReport,
    SlaSegment,
    Stamp,
    StopCommand,
    StormReport,
)

__all__ = [
    "ApplyCommand",
    "FinalizeCommand",
    "FleetResult",
    "Mailbox",
    "MarketShard",
    "MarketSimulation",
    "MarketSpec",
    "MigrateAck",
    "MigrateRequest",
    "Outbox",
    "ParkRequest",
    "ProvisionRequest",
    "RevocationWarning",
    "RunCommand",
    "ShardConfig",
    "ShardReport",
    "ShardWorkerError",
    "ShardedCell",
    "SlaSegment",
    "Stamp",
    "StopCommand",
    "StormReport",
    "apportion",
    "fleet_backup_spec",
    "merge_messages",
    "steady_rate_bps",
]
