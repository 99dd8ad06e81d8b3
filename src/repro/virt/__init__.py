"""The virtualization substrate.

SpotCheck's migration strategies are built from four mechanisms, all
modelled here:

* **live (pre-copy) migration** — iterative rounds of dirty-page
  transfer converging to a brief stop-and-copy (:mod:`.migration.live`),
* **continuous checkpointing** — a background stream of dirty pages to
  a backup server that keeps the residual dirty state bounded
  (:mod:`.migration.checkpoint`),
* **bounded-time migration** — the guarantee that a revoked VM's state
  is safe on the backup server before the warning period expires
  (:mod:`.migration.bounded`), and
* **restoration** — stop-and-copy (full) restore versus lazy restore
  from a ~5 MB skeleton with demand paging (:mod:`.migration.restore`).

The memory-dirtying model (:mod:`.memory`) drives all four: migration
behaviour in the paper is a function of memory size, page dirty rate,
and the bandwidth available to move pages.
"""

from repro.virt.hypervisor import HostVM, NestedHypervisor
from repro.virt.memory import MemoryModel, PAGE_SIZE
from repro.virt.testbed import MicroTestbed
from repro.virt.vm import NestedVM, VMState

__all__ = [
    "HostVM",
    "MemoryModel",
    "MicroTestbed",
    "NestedHypervisor",
    "NestedVM",
    "PAGE_SIZE",
    "VMState",
]
