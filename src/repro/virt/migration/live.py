"""Live (pre-copy) VM migration.

Pre-copy transfers the whole memory image while the VM keeps running,
then iterates over the pages dirtied during each round until the
residual dirty set is small enough to move in a brief stop-and-copy
pause [Clark et al., NSDI'05].  Total latency is therefore proportional
to memory size (and inflated by the dirtying rate), which is exactly
why live migration alone cannot be trusted inside a 120 s revocation
warning: "if the latency to live migrate a VM exceeds the warning
period ... the IaaS platform will terminate the spot server and any
resident nested VMs before their migrations complete".
"""

from dataclasses import dataclass, field

from repro.virt.memory import PAGE_SIZE


@dataclass
class LiveMigrationPlan:
    """The outcome of planning a pre-copy migration.

    Attributes
    ----------
    total_time_s:
        Wall-clock length of the whole migration.
    downtime_s:
        Final stop-and-copy pause.
    transferred_bytes:
        Total bytes moved across all rounds.
    rounds:
        Number of pre-copy rounds (excluding the stop-and-copy).
    converged:
        False if the writable working set outpaced the link and the
        migration had to force a large stop-and-copy.
    round_bytes:
        Bytes moved in each round, for inspection.
    """

    total_time_s: float
    downtime_s: float
    transferred_bytes: float
    rounds: int
    converged: bool
    round_bytes: list = field(default_factory=list)


class PreCopyMigration:
    """Plans/executes pre-copy migrations against a memory model.

    Parameters
    ----------
    bandwidth_bps:
        Bytes/s available to the migration stream.
    stop_copy_threshold_bytes:
        Residual dirty size at which the final pause is taken
        (default: 256 pages, ~1 MiB — sub-second at typical rates).
    switchover_s:
        Fixed cost of the final handoff (vCPU state, device re-attach
        at the hypervisor level; the *cloud* control-plane costs are
        accounted separately by the controller).
    max_rounds:
        Bound on pre-copy rounds before forcing stop-and-copy.
    """

    def __init__(self, bandwidth_bps, stop_copy_threshold_bytes=256 * PAGE_SIZE,
                 switchover_s=0.05, max_rounds=30):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = float(bandwidth_bps)
        self.threshold = float(stop_copy_threshold_bytes)
        self.switchover_s = switchover_s
        self.max_rounds = max_rounds

    def plan(self, memory):
        """Compute the rounds for migrating ``memory``."""
        to_send = float(memory.total_bytes)
        total_time = 0.0
        transferred = 0.0
        round_bytes = []
        converged = False
        for _round in range(self.max_rounds):
            round_time = to_send / self.bandwidth
            total_time += round_time
            transferred += to_send
            round_bytes.append(to_send)
            dirtied = memory.dirty_bytes(round_time)
            if dirtied <= self.threshold:
                to_send = dirtied
                converged = True
                break
            if dirtied >= to_send * 0.95:
                # Dirtying outpaces the link: further rounds cannot
                # shrink the residual — cut to stop-and-copy.
                to_send = dirtied
                break
            to_send = dirtied
        downtime = to_send / self.bandwidth + self.switchover_s
        total_time += to_send / self.bandwidth
        transferred += to_send
        return LiveMigrationPlan(
            total_time_s=total_time,
            downtime_s=downtime,
            transferred_bytes=transferred,
            rounds=len(round_bytes),
            converged=converged,
            round_bytes=round_bytes,
        )

    def fits_within(self, memory, deadline_s):
        """Whether the migration reliably completes inside ``deadline_s``.

        SpotCheck uses this test to decide whether a "small" nested VM
        can ride out a revocation with a plain live migration instead
        of needing a backup server (Section 3.5).
        """
        plan = self.plan(memory)
        return plan.converged and plan.total_time_s <= deadline_s

    def run(self, env, vm):
        """DES process: execute the plan on the simulated clock.

        The VM is MIGRATING for the pre-copy rounds and SUSPENDED for
        the stop-and-copy pause.  Returns the realized plan.
        """
        from repro.virt.vm import VMState

        def _migrate():
            obs = getattr(env, "obs", None)
            plan = self.plan(vm.memory)
            vm.set_state(VMState.MIGRATING)
            yield env.timeout(plan.total_time_s - plan.downtime_s)
            vm.set_state(VMState.SUSPENDED)
            yield env.timeout(plan.downtime_s)
            if obs is not None:
                obs.emit("live.stop_and_copy", vm=vm.id,
                         downtime_s=plan.downtime_s,
                         rounds=plan.rounds, converged=plan.converged)
            vm.set_state(VMState.RUNNING)
            return plan

        return env.process(_migrate())
