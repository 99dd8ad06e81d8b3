"""The per-layer metrics of a traced run (the table in README.md).

Every metric is printed for every workload; a layer a workload bypasses
reads zero there, which is the prediction the table makes.
"""

from perfbench.layers import BENCH, LAYERS


def _sum_counter(counters, prefix, names):
    return sum(counters.get(prefix + name, 0) for name in names)


def _policy_choose_functions():
    from repro.core.policies.allocation import AllocationPolicy
    seen = []
    pending = [AllocationPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        choose = cls.__dict__.get("choose")
        if choose is not None and choose not in seen:
            seen.append(choose)
    return seen


def _api_functions():
    from repro.cloud.api import CloudApi
    return [value for name, value in vars(CloudApi).items()
            if callable(value) and not name.startswith("_")]


def merged_counters(record):
    """Program counters and simulated totals summed over a pass's cells."""
    totals = {"migrations": 0, "state_loss": 0, "profiled_events": 0}
    for result in record.results.values():
        if result is None:
            continue
        if result.in_process:
            totals["profiled_events"] += result.counters["events"]
        totals["migrations"] += result.summary["migrations"]
        totals["state_loss"] += result.summary["state_loss_events"]
        for name, value in result.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def layer_metrics(attribution, traced, untraced_wall_s):
    """{name: (value, unit)} for one traced pass."""
    from repro.backup.server import BackupServer, _BackupIngest
    from repro.cloud.latency import OperationLatencyModel
    from repro.core.controller import SpotCheckController
    from repro.core.shard.coordinator import ShardedCell, _ProcessHost
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy
    from repro.obs.bus import EventBus
    from repro.obs.metrics import P2Quantile
    from repro.sim.process import Process
    from repro.sim.resources import FairShareResource
    from repro.traffic.sla import SlaLedger
    from repro.virt.memory import MemoryModel

    calls = attribution.calls
    cumulative = attribution.cumulative
    self_s = attribution.self_times()
    counters = merged_counters(traced)
    events = counters.get("events", 0)
    # Ratios against profiled time or calls use only the events the
    # profiler saw (shard workers run out of its sight).
    profiled_events = counters["profiled_events"]
    flows = calls(FairShareResource.transfer)
    checks = calls(FaultInjector.check)
    call_faults = _sum_counter(counters, "faults.", (
        "throttle", "api-error", "api-error-terminal", "capacity"))
    migrations = counters["migrations"]
    mean_market_events = counters.get("shard.mean_market_events", 0)

    metrics = {
        "sim.kernel.events": (events, "count"),
        "sim.kernel.us_per_event": (
            1e6 * self_s["sim.kernel"] / profiled_events
            if profiled_events else 0.0, "us"),
        "sim.resources.flows": (flows, "count"),
        "sim.resources.rebalances": (
            calls(FairShareResource._rebalance), "count"),
        "sim.resources.interrupts": (attribution.edge_calls(
            FairShareResource._replan, Process.interrupt), "count"),
        "sim.resources.events_per_flow": (
            profiled_events / flows if flows else 0.0, "ratio"),
        "virt.checkpoint.plan_calls": (
            calls(MemoryModel.interval_for_dirty_bytes), "count"),
        "virt.migration.groups": (
            counters.get("flush.cohorts_created", 0), "count"),
        "virt.migration.flush_rounds": (
            counters.get("flush.flows_issued", 0), "count"),
        "cloud.spot_market.points": (
            counters.get("market.points", 0), "count"),
        "cloud.spot_market.delivered": (
            counters.get("market.delivered", 0), "count"),
        "cloud.spot_market.wakes": (counters.get("market.wakes", 0), "count"),
        "cloud.spot_market.rearms": (
            counters.get("market.rearms", 0), "count"),
        "cloud.latency.models_built": (
            calls(OperationLatencyModel.__init__), "count"),
        "cloud.latency.build_s": (
            cumulative(OperationLatencyModel.__init__), "s"),
        "cloud.latency.samples": (
            calls(OperationLatencyModel.sample), "count"),
        "cloud.api.calls": (
            sum(calls(function) for function in _api_functions()), "count"),
        "cloud.api.success_ratio": (
            1.0 - call_faults / checks if checks else 1.0, "ratio"),
        "faults.injected": (_sum_counter(counters, "faults.", (
            "throttle", "api-error", "api-error-terminal", "capacity",
            "latency-tail", "stuck-detach", "backup-crash")), "count"),
        "faults.retries": (calls(RetryPolicy.backoff_s), "count"),
        "faults.degradations": (_sum_counter(
            counters, "faults.", ("latency-tail", "stuck-detach")), "count"),
        "backup.commit_flows": (calls(BackupServer.commit_flow), "count"),
        "backup.restore_flows": (
            calls(BackupServer.restore_read_flow), "count"),
        "backup.steady_flows": (calls(_BackupIngest.transfer), "count"),
        "core.migration_manager.migrations": (migrations, "count"),
        "core.migration_manager.state_safe_ratio": (
            1.0 - counters["state_loss"] / migrations if migrations else 1.0,
            "ratio"),
        "core.controller.boot_s": (
            cumulative(SpotCheckController._request_flow)
            + cumulative(SpotCheckController._provision_fleet), "s"),
        "core.policies.choose_calls": (
            sum(calls(f) for f in _policy_choose_functions()), "count"),
        "core.shard.messages": (counters.get("shard.messages", 0), "count"),
        "core.shard.epochs": (calls(ShardedCell.run), "count"),
        "core.shard.coord_wait_s": (
            cumulative(_ProcessHost.__init__)
            + cumulative(_ProcessHost.collect), "s"),
        "core.shard.market_imbalance": (
            counters.get("shard.max_market_events", 0) / mean_market_events
            if mean_market_events else 0.0, "ratio"),
        "traffic.engine.wakes": (counters.get("traffic.wakes", 0), "count"),
        "traffic.engine.segments": (
            counters.get("traffic.segments", 0), "count"),
        "traffic.sla.account_calls": (
            calls(SlaLedger.account_latency) + calls(SlaLedger.account_down),
            "count"),
        "obs.metrics.observes": (calls(P2Quantile.observe), "count"),
        "obs.bus.emits": (calls(EventBus.publish), "count"),
    }
    for layer in list(LAYERS) + [BENCH]:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    accounted = sum(self_s.values())
    metrics.update({
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead": (traced.wall_s / untraced_wall_s, "ratio"),
        "trace.accounted_ratio": (accounted / traced.wall_s, "ratio"),
    })
    return metrics
