"""Tests for spot markets: prices, warnings, revocations."""

import pytest

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Instance, InstanceState, Market
from repro.cloud.spot_market import PriceWatch, SpotMarket, SpotMarketplace
from repro.cloud.zones import default_region

from tests.conftest import flat_trace, step_trace

MEDIUM = M3_CATALOG.get("m3.medium")


def make_market(env, zone, steps=None, price=0.02, warning=120.0):
    trace = step_trace(steps) if steps else flat_trace(price)
    return SpotMarket(env, MEDIUM, zone, trace, warning_period=warning)


def spot_instance(env, zone, bid):
    instance = Instance(env, MEDIUM, zone, Market.SPOT, bid=bid)
    instance._mark_running()
    return instance


class TestPrices:
    def test_current_price_follows_trace(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (100, 0.09)])
        assert market.current_price() == 0.02
        env.run(until=150)
        assert market.current_price() == 0.09

    def test_price_at_before_start(self, env, zone):
        market = make_market(env, zone, steps=[(10, 0.05)])
        assert market.price_at(0.0) == 0.05

    def test_price_listeners_called(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (50, 0.03)])
        seen = []
        market.add_watch(PriceWatch(lambda m, p: seen.append((env.now, p))))
        env.run(until=100)
        assert seen == [(0.0, 0.02), (50.0, 0.03)]

    def test_empty_trace_rejected(self, env, zone):
        import numpy as np
        from repro.traces.archive import PriceTrace
        with pytest.raises(ValueError):
            PriceTrace(np.array([]), np.array([]), "m3.medium", zone.name,
                       0.07)


class TestWarningsAndRevocation:
    def test_price_crossing_warns(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (1000, 0.10)])
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        env.run(until=1000)
        assert instance.state is InstanceState.MARKED_FOR_TERMINATION
        assert instance.termination_notice.triggered
        assert instance.termination_notice.value == 1000 + 120

    def test_forced_termination_after_warning(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (1000, 0.10)])
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        env.run(until=1121)
        assert instance.state is InstanceState.TERMINATED
        assert instance.terminated_at == 1120.0

    def test_price_below_bid_never_warns(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (500, 0.06)])
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        env.run(until=10000)
        assert instance.state is InstanceState.RUNNING

    def test_graceful_exit_before_deadline_survives(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (1000, 0.10)])
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        env.run(until=1050)
        # SpotCheck relinquishes the instance before the deadline.
        instance._mark_terminated()
        market.deregister(instance)
        env.run(until=2000)
        assert instance.terminated_at == 1050.0

    def test_register_above_price_immediately_warned(self, env, zone):
        market = make_market(env, zone, price=0.10)
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        assert instance.state is InstanceState.MARKED_FOR_TERMINATION

    def test_revoke_callback_invoked(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (100, 0.2)])
        revoked = []
        market.set_revoke_callback(
            lambda inst: (revoked.append(inst), inst._mark_terminated()))
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        env.run(until=400)
        assert revoked == [instance]

    def test_multiple_instances_all_warned_together(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (600, 0.5)])
        instances = [spot_instance(env, zone, bid=0.07) for _ in range(5)]
        for instance in instances:
            market.register(instance)
        env.run(until=601)
        assert all(i.state is InstanceState.MARKED_FOR_TERMINATION
                   for i in instances)
        assert len({i.warned_at for i in instances}) == 1

    def test_wrong_market_registration_rejected(self, env, zone, region):
        market = make_market(env, zone)
        other = Instance(env, M3_CATALOG.get("m3.large"), zone, Market.SPOT,
                         bid=0.2)
        with pytest.raises(ValueError):
            market.register(other)

    def test_on_demand_registration_rejected(self, env, zone):
        market = make_market(env, zone)
        instance = Instance(env, MEDIUM, zone, Market.ON_DEMAND)
        with pytest.raises(ValueError):
            market.register(instance)


class TestMarketplace:
    def test_add_and_lookup(self, env, zone):
        marketplace = SpotMarketplace(env)
        market = marketplace.add_market(MEDIUM, zone, flat_trace(0.02))
        assert marketplace.market("m3.medium", zone.name) is market
        assert marketplace.market(MEDIUM, zone) is market

    def test_duplicate_market_rejected(self, env, zone):
        marketplace = SpotMarketplace(env)
        marketplace.add_market(MEDIUM, zone, flat_trace(0.02))
        with pytest.raises(ValueError):
            marketplace.add_market(MEDIUM, zone, flat_trace(0.03))

    def test_missing_market_raises(self, env, zone):
        with pytest.raises(KeyError):
            SpotMarketplace(env).market("m3.medium", zone.name)

    def test_len_and_iter(self, env, region):
        marketplace = SpotMarketplace(env)
        for zone in region.zones:
            marketplace.add_market(
                MEDIUM, zone, flat_trace(0.02, zone_name=zone.name))
        assert len(marketplace) == len(region.zones)
        assert {m.zone.name for m in marketplace} == \
            {z.name for z in region.zones}


class TestPriceBoundaries:
    """Exact boundary semantics of price_at/current_price."""

    def test_price_at_exactly_at_change_point(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (100, 0.09)])
        # The new price takes effect at the change instant itself.
        assert market.price_at(100.0) == 0.09
        assert market.price_at(99.999999) == 0.02

    def test_price_at_after_last_point_holds(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (100, 0.09)])
        assert market.price_at(1e9) == 0.09

    def test_current_price_at_change_instant(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (100, 0.09)])
        env.run(until=100.0)
        assert market.current_price() == 0.09

    def test_price_before_first_point_extends_backwards(self, env, zone):
        market = make_market(env, zone, steps=[(10, 0.05), (20, 0.08)])
        assert market.price_at(0.0) == 0.05
        assert market.price_at(-5.0) == 0.05


class TestRegisterDuringSpike:
    def test_register_during_spike_warns_exactly_once(self, env, zone):
        market = make_market(
            env, zone, steps=[(0, 0.02), (100, 0.09), (200, 0.095),
                              (300, 0.01)])
        warns = []
        original = market._warn
        market._warn = lambda instance: (warns.append(instance),
                                         original(instance))[-1]
        instance = spot_instance(env, zone, bid=0.05)

        def register_mid_spike():
            yield env.timeout(150)
            market.register(instance)
        env.process(register_mid_spike())
        env.run(until=250)
        # Warned on registration; the ongoing spike (and the further
        # point at 200 still above the bid) must not warn again.
        assert warns == [instance]

    def test_warned_on_register_still_terminates(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (100, 0.09)],
                             warning=120.0)

        def register_mid_spike():
            yield env.timeout(150)
            instance = spot_instance(env, zone, bid=0.05)
            market.register(instance)
            return instance
        instance = env.run(until=env.process(register_mid_spike()))
        env.run(until=271)
        assert instance.state is InstanceState.TERMINATED


class TestRevocationStorm:
    """The id-keyed instance table under concurrent deregistration."""

    def test_deregister_during_warning_fanout(self, env, zone):
        market = make_market(env, zone, steps=[(0, 0.02), (600, 0.5)])
        instances = [spot_instance(env, zone, bid=0.07) for _ in range(8)]
        for instance in instances:
            market.register(instance)

        # A revoke callback that tears down *other* instances while the
        # storm is being processed — deregistration during the warning
        # fan-out and the termination sweep must not corrupt iteration.
        def revoke(instance):
            instance._mark_terminated()
            market.deregister(instance)
            for other in list(market.instances()):
                if other is not instance and \
                        other.state is InstanceState.TERMINATED:
                    market.deregister(other)
        market.set_revoke_callback(revoke)

        env.run(until=1000)
        assert all(i.state is InstanceState.TERMINATED for i in instances)
        assert market.instances() == []

    def test_deregister_is_idempotent(self, env, zone):
        market = make_market(env, zone)
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        market.deregister(instance)
        market.deregister(instance)
        assert market.instances() == []


class TestEventSkipping:
    """The threshold-indexed drive sleeps over non-crossing points."""

    def test_uninstrumented_drive_skips_every_quiet_point(self, env, zone):
        steps = [(float(i * 60), 0.02 + 0.001 * (i % 5)) for i in range(200)]
        market = make_market(env, zone, steps=steps)
        instance = spot_instance(env, zone, bid=0.5)
        market.register(instance)
        env.run()
        stats = market.drive_stats()
        assert stats["points"] == 200
        # No point ever crosses the bid: nothing is delivered at all.
        assert stats["delivered"] == 0
        assert instance.state is InstanceState.RUNNING

    def test_step_listener_pins_per_point_delivery(self, env, zone):
        # A watch with no band is a per-step listener: it matches every
        # trace index, so the drive delivers every point.
        steps = [(float(i * 60), 0.02) for i in range(50)]
        market = make_market(env, zone, steps=steps)
        seen = []
        market.add_watch(PriceWatch(lambda m, p: seen.append((m.env.now, p))))
        env.run()
        assert len(seen) == 50
        assert market.drive_stats()["delivered"] == 50

    def test_skipping_still_warns_at_crossing_time(self, env, zone):
        steps = [(float(i * 60), 0.02) for i in range(100)]
        steps[70] = (70 * 60.0, 0.9)
        market = make_market(env, zone, steps=steps, warning=120.0)
        instance = spot_instance(env, zone, bid=0.07)
        market.register(instance)
        env.run()
        assert instance.warned_at == 70 * 60.0
        assert instance.state is InstanceState.TERMINATED
        assert market.drive_stats()["delivered"] < 5

    def test_watch_fires_only_in_band(self, env, zone):
        steps = [(0, 0.02), (100, 0.08), (200, 0.03), (300, 0.09),
                 (400, 0.01)]
        market = make_market(env, zone, steps=steps)
        hits = []
        market.add_watch(PriceWatch(
            lambda m, p: hits.append((m.env.now, p)), lo=0.05))
        env.run()
        assert hits == [(100.0, 0.08), (300.0, 0.09)]

    def test_inactive_watch_does_not_wake_the_drive(self, env, zone):
        steps = [(float(i * 60), 0.02) for i in range(100)]
        market = make_market(env, zone, steps=steps)
        market.add_watch(PriceWatch(lambda m, p: None, hi=0.05,
                                    active=lambda: False))
        env.run()
        assert market.drive_stats()["delivered"] == 0

    def test_rearm_does_not_replay_stale_points(self, env, zone):
        # Regression: the price dips into the watch band at t=100 while
        # the watch gate is closed; the gate opens at t=150 (between
        # points).  The step drive evaluated t=100 under the closed
        # gate, so the rearmed drive must NOT hand the stale t=100
        # price to the watch — only the next in-band point at t=200.
        steps = [(0, 0.10), (100, 0.03), (200, 0.04), (300, 0.09)]
        market = make_market(env, zone, steps=steps)
        gate = {"open": False}
        hits = []
        market.add_watch(PriceWatch(
            lambda m, p: gate["open"] and hits.append((m.env.now, p)),
            hi=0.05, active=lambda: gate["open"]))

        def open_gate():
            yield env.timeout(150)
            gate["open"] = True
            market.rearm()
        env.process(open_gate())
        env.run()
        assert hits == [(200.0, 0.04)]
        assert market.drive_stats()["stale_skips"] >= 1

    def test_register_mid_run_lowers_the_wake_threshold(self, env, zone):
        steps = [(0, 0.02), (100, 0.06), (200, 0.02), (300, 0.06)]
        market = make_market(env, zone, steps=steps, warning=120.0)

        def late_register():
            yield env.timeout(250)
            instance = spot_instance(env, zone, bid=0.05)
            market.register(instance)
            return instance
        instance = env.run(until=env.process(late_register()))
        env.run()
        assert instance.warned_at == 300.0

    def test_delivered_count_tracks_elapsed_points(self, env, zone):
        steps = [(float(i * 100), 0.02) for i in range(10)]
        market = make_market(env, zone, steps=steps)
        assert market.delivered_count() == 0  # Drive not started yet.
        env.run(until=450)
        assert market.delivered_count() == 5  # Points at 0..400.
        env.run(until=2000)
        assert market.delivered_count() == 10


class TestPriceWatch:
    def test_band_semantics_exclusive_inclusive(self):
        watch = PriceWatch(lambda m, p: None, lo=0.05, hi=0.10)
        assert not watch.matches(0.05)
        assert watch.matches(0.050001)
        assert watch.matches(0.10)
        assert not watch.matches(0.100001)

    def test_unbounded_sides(self):
        assert PriceWatch(lambda m, p: None, lo=0.05).matches(1e9)
        assert PriceWatch(lambda m, p: None, hi=0.05).matches(-1e9)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            PriceWatch(lambda m, p: None, lo=0.10, hi=0.05)
