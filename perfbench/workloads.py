"""The four benchmark workloads: inputs from a seed, cells, and checks.

A workload is a fixed list of simulation cells run in one process.  A
cell is one operation: it calls a public entry point of the simulator
(``PolicySimulation.run`` or ``ShardedCell.run``) with inputs the
workload built from the seed, and returns a :class:`CellResult`.  Every
workload uses the program's defaults wherever its shape allows and
passes no alternate-path flag (``soa_checkpoint_flush``, the stepped
market drive), so a later change that deletes an alternate path changes
the code path a workload takes but not the workload.

Each workload also checks that its mechanism actually ran, so a seed
change cannot silently make it trivial; a violation marks the cell
failed.
"""

import hashlib
import json
from dataclasses import dataclass, field

#: The simulated statistics a cell digest covers.  Host and program
#: counters (``events_processed``, drive/flush/spare counters) stay out:
#: an optimisation that elides kernel events must keep the digest.
SIM_KEYS = (
    "vm_hours",
    "cost_per_vm_hour",
    "cost_breakdown",
    "availability",
    "unavailability_pct",
    "degradation_pct",
    "migrations",
    "revocation_events",
    "max_concurrent_revocation",
    "state_loss_events",
)


def sim_digest(summary, extra=None):
    """sha256 over the canonical JSON of a summary's simulated statistics.

    ``extra`` adds further simulated outputs of the cell, keyed by name.
    """
    stats = {key: summary[key] for key in SIM_KEYS if key in summary}
    stats.update(extra or {})
    text = json.dumps(stats, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CellResult:
    """What one completed cell reports back to the runner."""

    vm_hours: float
    digest: str
    summary: dict
    #: Program counters summed over the cell (kernel events, drive,
    #: flush, spare, fault and traffic counters) for the traced run.
    counters: dict = field(default_factory=dict)
    #: False when the simulation ran in shard worker processes, out of
    #: sight of the profiler.
    in_process: bool = True


@dataclass
class Cell:
    """One operation: a name and a zero-argument callable."""

    name: str
    run: object


def _add(totals, counts, prefix=""):
    for key, value in counts.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            totals[prefix + key] = totals.get(prefix + key, 0) + value


def _controller_counters(controller, summary):
    counters = {"events": controller.env.events_processed}
    _add(counters, controller.api.marketplace.drive_stats(), "market.")
    _add(counters, controller.migrations.flush_drive_stats(), "flush.")
    _add(counters, controller.spares_drive_stats(), "spares.")
    _add(counters, summary.get("faults_by_kind", {}), "faults.")
    _add(counters, summary.get("traffic_drive", {}), "traffic.")
    return counters


def _fleet_counters(result):
    counters = {"events": 0, "shard.messages": len(result.messages)}
    for report in result.reports:
        counters["events"] += report.events_processed
        _add(counters, report.drive, "market.")
        _add(counters, report.flush, "flush.")
        _add(counters, report.spares, "spares.")
    market_events = [report.events_processed for report in result.reports]
    mean = sum(market_events) / len(market_events)
    counters["shard.max_market_events"] = max(market_events)
    counters["shard.mean_market_events"] = mean
    return counters


# -- paper_grid --------------------------------------------------------


class PaperGrid:
    """Figs 10-12 / Table 3: 5 policies x 4 mechanisms on one archive."""

    name = "paper_grid"
    spawns_workers = False
    replicas = False
    why = ("the Figs 10-12 / Table 3 policy x mechanism grid on one shared "
           "m3 archive: revocation-path plan math, latency calibration, "
           "policies and the market drive")
    sizes = {
        "full": {"days": 10.0, "vms": 20, "policies": None,
                 "mechanisms": None},
        "tiny": {"days": 2.0, "vms": 6, "policies": ("1P-M", "4P-COST"),
                 "mechanisms": ("spotcheck-full", "spotcheck-lazy")},
    }

    def setup(self, seed, size):
        from repro.experiments.scenario import (
            MECHANISMS,
            POLICIES,
            PolicySimulation,
        )
        shape = self.sizes[size]
        archive = PolicySimulation.build_archive(
            seed, shape["days"] * 24 * 3600.0)
        return {"seed": seed, "archive": archive, **shape,
                "policies": shape["policies"] or POLICIES,
                "mechanisms": shape["mechanisms"] or MECHANISMS}

    def cells(self, inputs, trace=False):
        return [Cell(f"{policy}/{mechanism}",
                     _grid_cell(inputs, policy, mechanism))
                for policy in inputs["policies"]
                for mechanism in inputs["mechanisms"]]

    def check(self, results):
        """The grid must migrate and see at least one revocation storm.

        Both are properties of the whole grid (1P-M may legitimately sit
        out a calm month), so a violation fails every cell of the pass.
        """
        done = {name: r for name, r in results.items() if r is not None}
        problems = []
        if done and sum(r.summary["migrations"] for r in done.values()) == 0:
            problems.append("no cell migrated a VM")
        if done and max(r.summary["max_concurrent_revocation"]
                        for r in done.values()) < 2:
            problems.append("no revocation storm (2+ concurrent revocations)")
        return {name: problems for name in done} if problems else {}


def _grid_cell(inputs, policy, mechanism):
    def run():
        from repro.experiments.scenario import (
            PolicySimulation,
            ScenarioConfig,
        )
        config = ScenarioConfig(policy=policy, mechanism=mechanism,
                                seed=inputs["seed"], days=inputs["days"],
                                vms=inputs["vms"])
        summary, controller = PolicySimulation(
            config, archive=inputs["archive"]).run(return_controller=True)
        return CellResult(summary["vm_hours"], sim_digest(summary), summary,
                          _controller_counters(controller, summary))
    return run


# -- fleet_mix ---------------------------------------------------------


class FleetMixCell:
    """One calm m3.2xlarge market, ~20k nested VMs in 8 write classes."""

    name = "fleet_mix"
    spawns_workers = False
    replicas = False
    why = ("one calm m3.2xlarge market with 20k nested VMs in 8 write "
           "classes: kernel heap, checkpoint core and a few large "
           "aggregated fair-share flows")
    sizes = {
        "full": {"vms": 20_000, "days": 4.0, "classes": 8},
        "tiny": {"vms": 400, "days": 0.5, "classes": 8},
    }
    #: The checkpoint core must form at least one plan-group per class.
    min_plan_groups = 8

    def setup(self, seed, size):
        from repro.core.shard import MarketSpec, ShardConfig
        from repro.workloads import default_fleet_mix
        shape = self.sizes[size]
        config = ShardConfig(seed=seed, days=shape["days"],
                             workload_mix=default_fleet_mix(shape["classes"]))
        return {"vms": shape["vms"], "config": config,
                "markets": [MarketSpec(type_name="m3.2xlarge",
                                       zone_name="us-east-1a")]}

    def cells(self, inputs, trace=False):
        return [Cell("fleet", _sharded_cell(inputs, shards=1))]

    def check(self, results):
        problems = {}
        for name, result in results.items():
            if result is None:
                continue
            groups = result.counters.get("flush.cohorts_created", 0)
            if groups < self.min_plan_groups:
                problems[name] = [f"{groups} plan-groups, want >= "
                                  f"{self.min_plan_groups}"]
        return problems


def _sharded_cell(inputs, shards):
    def run():
        from repro.core.shard import ShardedCell
        cell = ShardedCell(total_vms=inputs["vms"], markets=inputs["markets"],
                           config=inputs["config"])
        result = cell.run(shards=shards)
        return CellResult(result.summary["vm_hours"],
                          sim_digest(result.summary), result.summary,
                          _fleet_counters(result),
                          in_process=result.shards == 1)
    return run


# -- storm_shards ------------------------------------------------------


class StormShards:
    """Spiky m3.medium markets with steady flush, on 2 shard workers."""

    name = "storm_shards"
    spawns_workers = True
    #: Every cell runs the same simulation at another shard count, so
    #: all of a pass's digests must agree.
    replicas = True
    why = ("16 spiky m3.medium markets on 2 shard workers: storms put final "
           "commits and lazy-restore reads on the datapath beside steady "
           "writes (many-flow regime)")
    sizes = {
        "full": {"vms": 96, "days": 0.1, "markets": 16},
        "tiny": {"vms": 24, "days": 0.1, "markets": 4},
    }
    shards = 2
    #: The shard tests' storm parameters with spikes five times as
    #: frequent.  The cost of the many-flow regime is heavy-tailed in
    #: the price history (README.md), so the workload averages many
    #: small markets that all storm early instead of a few large ones.
    spike_rate_per_hour = 1.5

    def setup(self, seed, size):
        from repro.core.shard import MarketSpec, ShardConfig
        from repro.traces.model import MarketParams
        shape = self.sizes[size]
        params = MarketParams(
            on_demand_price=0.07,
            base_ratio_mean=0.25,
            spike_rate_per_hour=self.spike_rate_per_hour,
            spike_duration_mean_s=1800.0,
            change_interval_s=600.0,
        )
        markets = [MarketSpec(type_name="m3.medium",
                              zone_name=f"us-east-1{letter}",
                              market_params=params)
                   for letter in "abcdefghijklmnop"[:shape["markets"]]]
        return {"vms": shape["vms"], "markets": markets,
                "config": ShardConfig(seed=seed, days=shape["days"])}

    def cells(self, inputs, trace=False):
        cells = [Cell(f"shards={self.shards}",
                      _sharded_cell(inputs, self.shards))]
        if trace:
            # The profiler sees the workers' work only through an
            # in-process run, which must also replay the same cell.
            cells.append(Cell("shards=1", _sharded_cell(inputs, 1)))
        return cells

    def check(self, results):
        problems = {}
        done = {name: r for name, r in results.items() if r is not None}
        for name, result in done.items():
            if result.summary["max_concurrent_revocation"] < 2:
                problems.setdefault(name, []).append("no revocation storm")
            if result.summary["migrations"] == 0:
                problems.setdefault(name, []).append("no VM restored")
        return problems


# -- chaos_sla ---------------------------------------------------------


class ChaosSla:
    """The ``repro sla`` set-up with observability on, two horizons.

    The scenario runs at ``repro sla``'s own seed whatever the workload
    seed: the known terminate-under-capacity-episode crash strikes a
    different subset of cells at almost every seed (README.md), which
    would swing the failure count and the throughput from seed to seed.
    At seed 11 exactly the 21-day 4P-COST cell crashes, in every run.
    """

    name = "chaos_sla"
    spawns_workers = False
    replicas = False
    scenario_seed = 11
    why = ("chaos fault plan plus SLA traffic with observability on: the "
           "only workload that exercises faults, traffic, obs and the "
           "per-point observed market drive")
    sizes = {
        "full": {"vms": 12, "horizons": (14.0, 21.0),
                 "policies": ("1P-M", "4P-COST")},
        "tiny": {"vms": 6, "horizons": (3.0,),
                 "policies": ("1P-M", "4P-COST")},
    }

    def setup(self, seed, size):
        from repro.experiments.chaos import default_chaos_plan
        from repro.experiments.scenario import PolicySimulation
        from repro.experiments.sla_chaos import default_traffic_mix
        shape = self.sizes[size]
        seed = self.scenario_seed
        horizons = []
        for days in shape["horizons"]:
            # Both policies of a horizon see identical prices, as in
            # ``run_sla``.
            archive = PolicySimulation.build_archive(seed, days * 24 * 3600.0)
            horizons.append((days, archive, default_traffic_mix(days)))
        return {"seed": seed, "vms": shape["vms"], "horizons": horizons,
                "policies": shape["policies"], "plan": default_chaos_plan()}

    def cells(self, inputs, trace=False):
        return [Cell(f"{policy}/{days:g}d",
                     _chaos_cell(inputs, policy, days, archive, mix))
                for days, archive, mix in inputs["horizons"]
                for policy in inputs["policies"]]

    def check(self, results):
        problems = {}
        for name, result in results.items():
            if result is None:
                continue
            if result.summary.get("faults_injected", 0) == 0:
                problems.setdefault(name, []).append("no fault injected")
            if result.counters.get("retries", 0) == 0:
                problems.setdefault(name, []).append(
                    "no control-plane retry")
        return problems


def _chaos_cell(inputs, policy, days, archive, mix):
    def run():
        from repro.experiments.scenario import (
            PolicySimulation,
            ScenarioConfig,
        )
        from repro.obs import Observability
        config = ScenarioConfig(policy=policy, seed=inputs["seed"],
                                days=days, vms=inputs["vms"],
                                faults=inputs["plan"], traffic=mix)
        obs = Observability()
        summary, controller = PolicySimulation(config, archive=archive).run(
            return_controller=True, obs=obs)
        counters = _controller_counters(controller, summary)
        counters["retries"] = sum(
            series.value for series in obs.metrics.find("retries_total"))
        return CellResult(summary["vm_hours"],
                          sim_digest(summary, _chaos_outputs(obs, summary)),
                          summary, counters)
    return run


def _chaos_outputs(obs, summary):
    """The fault, retry and SLA outputs of a chaos cell, for its digest.

    The traffic drive counters (``traffic_drive``) stay out, like every
    program counter.
    """
    from repro.experiments.chaos import chaos_digest
    histograms = {
        histogram.labels["customer"]: {
            "count": histogram.count,
            "sum": histogram.sum,
            "min": histogram.min,
            "max": histogram.max,
            "quantiles": {str(q): value
                          for q, value in histogram.quantiles.items()},
        }
        for histogram in obs.metrics.find("sla_latency_ms")}
    return {
        "sla": summary.get("sla", {}),
        "faults_injected": summary.get("faults_injected", 0),
        "faults_by_kind": summary.get("faults_by_kind", {}),
        "chaos": chaos_digest(obs, summary),
        "sla_latency_ms": histograms,
    }


WORKLOADS = {w.name: w for w in (PaperGrid(), FleetMixCell(), StormShards(),
                                 ChaosSla())}
