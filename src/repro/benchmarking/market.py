"""Market-drive microbenchmark: per-point replay vs threshold skipping.

The same stack — one calibrated 14-day trace, one :class:`SpotMarket`,
a fleet of registered spot instances, one crossing watch at the
on-demand boundary — is driven twice.  The *stepped* run adds a no-op
:class:`PriceWatch` with no band, which matches every trace index and
so makes the drive deliver every point (the per-point reference); the
*indexed* run leaves only crossing thresholds active, so the drive
sleeps straight between them.  Both runs must warn and terminate the
identical instances; the payoff is the kernel-event count, reported as
``events_eliminated`` and the per-mode ``events_per_sec`` in the bench
artifact.
"""

import time

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Instance, Market
from repro.cloud.spot_market import PriceWatch, SpotMarket
from repro.cloud.zones import default_region
from repro.experiments.scenario import PolicySimulation
from repro.sim.kernel import Environment
from repro.traces.calibration import M3_MARKET_PARAMS


def _drive_once(trace, itype, seed, bids, stepped):
    env = Environment(seed=seed)
    zone = default_region(1).zones[0]
    market = SpotMarket(env, itype, zone, trace)
    # The controller's park/unpark logic watches the on-demand
    # boundary; a crossing watch there keeps the indexed run honest
    # about the wake-ups a real simulation needs.  The stepped run's
    # unbounded watch matches every point.
    lo = None if stepped else trace.on_demand_price
    market.add_watch(PriceWatch(lambda market, price: None, lo=lo))
    fleet = []
    for bid in bids:
        instance = Instance(env, itype, zone, Market.SPOT, bid=bid)
        instance._mark_running()
        market.register(instance)
        fleet.append(instance)
    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    # Keyed by fleet position, not instance id — the id counter is
    # process-global and the two runs share a process.
    outcome = [(i, instance.state.value) for i, instance in enumerate(fleet)]
    return wall, market.drive_stats(), outcome


def measure_market_drive(days=14.0, seed=11, instances=10,
                         type_name="m3.medium"):
    """Benchmark one market's drive, stepped vs indexed.

    Returns a dict with the trace size, per-mode wall clock and drive
    counters, the derived ``events_eliminated`` / ``event_reduction``
    / ``speedup``, and per-mode ``events_per_sec`` (trace points
    retired per wall-clock second — the indexed drive retires skipped
    points for free, which is the entire point).  Raises
    ``AssertionError`` if the two modes revoke different instances.
    """
    archive = PolicySimulation.build_archive(
        seed, days * 24 * 3600.0, market_params=M3_MARKET_PARAMS, zones=1)
    itype = M3_CATALOG.get(type_name)
    zone = default_region(1).zones[0]
    trace = archive.get(type_name, zone.name)
    # Bids straddling the observed price range: the low bids get
    # revoked by spikes mid-trace, the high ones survive to the end.
    low = float(trace.prices.min())
    high = float(trace.prices.max())
    bids = [low + (high - low) * (i + 1) / (instances + 1)
            for i in range(instances)]

    stepped_wall, stepped_stats, stepped_outcome = _drive_once(
        trace, itype, seed, bids, stepped=True)
    indexed_wall, indexed_stats, indexed_outcome = _drive_once(
        trace, itype, seed, bids, stepped=False)
    if indexed_outcome != stepped_outcome:
        raise AssertionError(
            "indexed market drive revoked different instances than the "
            "stepped drive")

    points = len(trace)
    return {
        "trace_points": points,
        "days": days,
        "seed": seed,
        "instances": instances,
        "type": type_name,
        "stepped": {
            "wall_s": stepped_wall,
            "wakes": stepped_stats["wakes"],
            "delivered": stepped_stats["delivered"],
            "events_per_sec": points / stepped_wall,
        },
        "indexed": {
            "wall_s": indexed_wall,
            "wakes": indexed_stats["wakes"],
            "delivered": indexed_stats["delivered"],
            "rearms": indexed_stats["rearms"],
            "stale_skips": indexed_stats["stale_skips"],
            "events_per_sec": points / indexed_wall,
        },
        "events_eliminated": (
            stepped_stats["delivered"] - indexed_stats["delivered"]),
        "event_reduction": (
            stepped_stats["delivered"] / max(indexed_stats["delivered"], 1)),
        "speedup": stepped_wall / indexed_wall,
    }
