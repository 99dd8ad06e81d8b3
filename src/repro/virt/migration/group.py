"""Group checkpoint scheduling: one wakeup per cohort, not per VM.

At fleet scale the per-VM steady-state checkpoint processes of
:class:`~repro.virt.migration.checkpoint.CheckpointStream` dominate the
kernel event budget: every VM wakes every interval to arm a flush, so
idle fleet size costs O(VMs) events per interval.  But SpotCheck pools
are *homogeneous* — every nested VM of one (pool, mechanism) runs the
same instance type and workload profile, so their steady-state plans
(interval, dirty volume per round, stream throttle) are identical.

The :class:`GroupCheckpointScheduler` exploits that: members with the
same plan that join at the same instant form a **cohort** sharing one
scheduler process.  The cohort wakes once per interval, issues *one*
aggregated flow (``n x dirty`` bytes at ``n x cap``) through the
fair-share backup datapath, and credits every member on completion.

Equivalence with per-VM streams is exact by construction:

* cohort wake times reproduce the per-VM loop bit-for-bit — the same
  ``timeout(interval)`` accumulation from the same join instant;
* each completed round credits each member ``flushed += dirty``, the
  same repeated float addition the per-VM flush performs;
* members whose recomputed plan diverges from the cohort's are split
  off into fresh (usually singleton) cohorts at the round boundary —
  exactly where a per-VM stream would have adopted the new interval —
  so heterogeneous fleets degrade gracefully to exact per-VM mode;
* a member joining mid-interval starts its own cohort at its join
  time, just as a fresh per-VM stream would.

The aggregated flow matches ``n`` separate flows whenever the cohort's
flows are either capacity-bound together or cap-bound individually
(min(n*cap, C) == n*min(cap, C/n)); under *mixed* contention with
unrelated flows the aggregate carries one fair-share weight instead of
``n``, a deliberate modelling trade documented in docs/performance.md.

Two accounting modes:

* **eager** (default): every round credits every member — bit-identical
  observable state at any instant, used by the equivalence tests;
* **defer**: rounds only flip an O(1) completion flag; per-member
  totals are reconstructed at :meth:`settle` through a shared
  fold cache (``F[k] = F[k-1] + dirty``, the same sequential fold
  eager crediting performs), so a 100k-member cohort costs O(1) per
  round instead of O(n).
"""

from repro.virt.memory import MemoryModel

__all__ = ["GroupCheckpointScheduler"]

_INF = float("inf")

#: Plan cache keyed by (memory, config) — both frozen dataclasses whose
#: plans are pure functions of their fields, so a 100k-VM fleet pays
#: the iterative interval solve once per workload class, not per VM.
#: Only genuine :class:`MemoryModel` instances are cached; test doubles
#: with time-varying behaviour (the divergence-fallback tests) bypass
#: the cache and are re-solved every round.
_PLAN_CACHE = {}


def _plan_of(stream):
    """The (interval, dirty, cap) steady-state plan of one stream."""
    cacheable = type(stream.memory) is MemoryModel
    if cacheable:
        key = (stream.memory, stream.config)
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            return plan
    interval = stream.interval_s()
    if interval == _INF:
        dirty = 0.0
    else:
        dirty = stream.memory.dirty_bytes(interval)
    plan = (interval, dirty, stream.config.stream_bandwidth_bps)
    if cacheable and len(_PLAN_CACHE) < 4096:
        _PLAN_CACHE[key] = plan
    return plan


class _Cohort:
    """One shared checkpoint loop over members with an identical plan."""

    __slots__ = ("sched", "plan", "created_at", "members", "streams",
                 "stop", "proc", "in_flight", "rounds_armed",
                 "flags", "left_at_round")

    def __init__(self, sched, plan):
        self.sched = sched
        self.plan = plan
        self.created_at = sched.env.now
        #: member_id -> on_flush callback (insertion-ordered).
        self.members = {}
        #: member_id -> stream (for divergence rechecks).
        self.streams = {}
        self.stop = sched.env.event()
        self.in_flight = []
        #: Rounds armed with a positive dirty volume.
        self.rounds_armed = 0
        #: Per-round completion flags (defer mode).
        self.flags = []
        #: member_id -> rounds_armed at departure (defer mode).
        self.left_at_round = {}
        self.proc = sched.env.process(self._run())

    @property
    def size(self):
        return len(self.members)

    def _run(self):
        env = self.sched.env
        while self.members and not self.stop.triggered:
            interval, dirty, _cap = self.plan
            if interval == _INF:
                # Parked, like the per-VM stream: recheck hourly.
                yield env.any_of([self.stop, env.timeout(3600.0)])
                if self.stop.triggered:
                    break
                self._replan()
                continue
            yield env.any_of([self.stop, env.timeout(interval)])
            if self.stop.triggered:
                break
            if not self.members:
                break
            if dirty > 0:
                self._arm_flush(dirty)
            # Replan *after* arming: this round's flush uses the plan
            # the members slept under, exactly as the per-VM loop
            # flushes the interval it just waited out.
            self._replan()
        pending = [p for p in self.in_flight if p.is_alive]
        if pending:
            yield env.all_of(pending)

    def _arm_flush(self, dirty):
        sched = self.sched
        env = sched.env
        if sched.defer:
            # O(1) per round: membership is only needed for eager
            # crediting; defer mode reconstructs totals at settle.
            snapshot = None
            n = len(self.members)
        else:
            snapshot = list(self.members.items())
            n = len(snapshot)
        _interval, _dirty, cap = self.plan
        round_index = self.rounds_armed
        self.rounds_armed += 1
        sched.flows_issued += 1
        if sched.defer:
            self.flags.append(False)
        # Prune completed flows on every arm: a healthy cohort keeps at
        # most a flush or two in flight (flush time < interval), and a
        # dead process reference would otherwise pin its frame for the
        # cohort's whole life — a slow leak under fleet-length runs.
        if self.in_flight:
            self.in_flight = [p for p in self.in_flight if p.is_alive]

        def _flush():
            yield sched.link.transfer(dirty * n, rate_cap=cap * n)
            if sched.defer:
                self.flags[round_index] = True
            else:
                flushed = sched.flushed
                for member_id, on_flush in snapshot:
                    flushed[member_id] = flushed.get(member_id, 0.0) + dirty
                    if on_flush is not None:
                        on_flush(dirty)
            obs = getattr(env, "obs", None)
            if obs is not None:
                obs.emit("checkpoint.group_flush", members=n,
                         bytes=dirty * n, round=round_index + 1)
                obs.metrics.counter("checkpoint_flushes_total").inc(n)
                obs.metrics.counter("checkpoint_bytes_total").inc(dirty * n)

        self.in_flight.append(env.process(_flush()))

    def _replan(self):
        """Recompute member plans; split divergent members off.

        A split member re-enters :meth:`GroupCheckpointScheduler.join`
        at the current round boundary — the instant a per-VM stream
        would have started sleeping under its new interval — so the
        fallback to exact per-VM (singleton-cohort) mode is lossless.
        Skipped in defer mode, where stream parameters are pinned at
        join (the documented fleet-scale contract).
        """
        if self.sched.defer:
            return
        divergent = []
        for member_id, stream in self.streams.items():
            if _plan_of(stream) != self.plan:
                divergent.append(member_id)
        for member_id in divergent:
            on_flush = self.members.pop(member_id)
            stream = self.streams.pop(member_id)
            self.sched._members.pop(member_id, None)
            self.sched.splits += 1
            self.sched.join(member_id, stream, on_flush=on_flush)

    def remove(self, member_id):
        self.members.pop(member_id, None)
        self.streams.pop(member_id, None)
        if self.sched.defer:
            self.left_at_round[member_id] = self.rounds_armed
        if not self.members and not self.stop.triggered:
            # Event elision: wake the sleeping loop so an empty cohort
            # exits now instead of at its next interval boundary.
            self.stop.succeed()

    def settle_credits(self):
        """Defer mode: reconstruct per-member totals from round flags."""
        sched = self.sched
        _interval, dirty, _cap = self.plan
        completed_prefix = [0]
        for flag in self.flags:
            completed_prefix.append(completed_prefix[-1] + (1 if flag else 0))
        # Shared fold cache: F[k] is what k eager credits of `dirty`
        # would have accumulated (same sequential float fold).
        fold = [0.0]
        for _ in range(completed_prefix[-1]):
            fold.append(fold[-1] + dirty)
        for member_id, on_flush in self.members.items():
            credits = completed_prefix[self.rounds_armed]
            total = fold[credits]
            sched.flushed[member_id] = \
                sched.flushed.get(member_id, 0.0) + total
            if on_flush is not None and total > 0:
                on_flush(total)
        for member_id, last_round in self.left_at_round.items():
            credits = completed_prefix[last_round]
            total = fold[credits]
            sched.flushed[member_id] = \
                sched.flushed.get(member_id, 0.0) + total


class GroupCheckpointScheduler:
    """Batched steady-state checkpointing over one backup datapath.

    Parameters
    ----------
    env:
        Simulation environment.
    backup_link:
        Transfer facade (``.transfer(nbytes, rate_cap=...)`` returning a
        completion event) — a backup server's ``ingest`` or any
        :class:`~repro.sim.resources.FairShareResource`.
    defer_accounting:
        When True, rounds cost O(1) regardless of cohort size and
        per-member totals are settled once at :meth:`settle` (fleet
        mode).  When False (default), every round credits every member
        eagerly — bit-identical to per-VM streams at any instant.
    """

    def __init__(self, env, backup_link, defer_accounting=False):
        self.env = env
        self.link = backup_link
        self.defer = defer_accounting
        #: member_id -> cumulative flushed bytes.
        self.flushed = {}
        #: (join_time, plan) -> open cohort.
        self._open = {}
        self._all_cohorts = []
        self._members = {}
        self._settled = False
        self.cohorts_created = 0
        self.flows_issued = 0
        self.splits = 0

    def join(self, member_id, stream, on_flush=None):
        """Enroll a stream; returns the cohort it landed in.

        Members with identical plans joining at the same instant share
        a cohort; everyone else gets their own (exact per-VM mode).
        """
        if member_id in self._members:
            raise ValueError(f"{member_id} already enrolled")
        plan = _plan_of(stream)
        key = (self.env.now, plan)
        cohort = self._open.get(key)
        if cohort is None or cohort.stop.triggered:
            cohort = _Cohort(self, plan)
            self._open[key] = cohort
            self._all_cohorts.append(cohort)
            self.cohorts_created += 1
        cohort.members[member_id] = on_flush
        cohort.streams[member_id] = stream
        self._members[member_id] = cohort
        return cohort

    def leave(self, member_id):
        """Drop a member from future rounds.

        Rounds already in flight still credit it (matching a per-VM
        stream draining its in-flight flushes after its stop event).
        """
        cohort = self._members.pop(member_id, None)
        if cohort is not None:
            cohort.remove(member_id)

    def member_count(self):
        return len(self._members)

    def cohort_of(self, member_id):
        return self._members.get(member_id)

    def settle(self):
        """Process: stop all cohorts, drain flows, finalize credits.

        Returns the ``{member_id: flushed_bytes}`` dict (also available
        as :attr:`flushed` afterwards).
        """
        if self._settled:
            return self.flushed
        self._settled = True
        procs = []
        for cohort in self._all_cohorts:
            if not cohort.stop.triggered:
                cohort.stop.succeed()
            if cohort.proc.is_alive:
                procs.append(cohort.proc)
        if procs:
            yield self.env.all_of(procs)
        if self.defer:
            for cohort in self._all_cohorts:
                cohort.settle_credits()
        return self.flushed

    def settle_now(self):
        """Synchronous settle for non-process callers (finalize).

        Stops every cohort and finalizes credits from the rounds that
        have *already completed* — in-flight flows stay uncredited,
        exactly as a per-VM stream's in-flight flush is uncredited at
        the measurement horizon.  Returns the totals dict.
        """
        if self._settled:
            return self.flushed
        self._settled = True
        for cohort in self._all_cohorts:
            if not cohort.stop.triggered:
                cohort.stop.succeed()
        if self.defer:
            for cohort in self._all_cohorts:
                cohort.settle_credits()
        return self.flushed

    def stats(self):
        """Counters mirroring ``SpotMarket.drive_stats``'s shape."""
        active = sum(1 for c in self._all_cohorts if c.proc.is_alive)
        return {
            "cohorts_created": self.cohorts_created,
            "cohorts_active": active,
            "members": len(self._members),
            "flows_issued": self.flows_issued,
            "splits": self.splits,
        }
