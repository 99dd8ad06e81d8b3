"""Tests for SpotCheckConfig and the bidding/allocation/placement
policies."""

import pytest

from repro.cloud.instance_types import M3_CATALOG
from repro.core.config import SpotCheckConfig
from repro.core.policies.allocation import (
    ALLOCATION_POLICIES,
    make_allocation_policy,
)
from repro.core.policies.bidding import BidPolicy, make_bid_policy
from repro.core.policies.placement import GreedyCheapestFirst, StabilityFirst
from repro.core.pools import SpotPool
from repro.cloud.spot_market import SpotMarket
from repro.cloud.zones import default_region
from repro.sim.rng import RngRegistry

from tests.conftest import flat_trace, step_trace

MEDIUM = M3_CATALOG.get("m3.medium")
LARGE = M3_CATALOG.get("m3.large")


class TestConfig:
    def test_defaults_valid(self):
        config = SpotCheckConfig()
        assert config.allocation_policy == "1P-M"
        assert config.mechanism.restore_kind == "lazy"

    def test_bad_bid_policy(self):
        with pytest.raises(ValueError):
            SpotCheckConfig(bid_policy="yolo")

    def test_bad_bid_multiple(self):
        with pytest.raises(ValueError):
            SpotCheckConfig(bid_multiple=0.5)

    def test_proactive_requires_multiple_bid(self):
        with pytest.raises(ValueError):
            SpotCheckConfig(proactive_migration=True)
        SpotCheckConfig(proactive_migration=True, bid_policy="multiple")

    def test_safety_factor_bounds(self):
        with pytest.raises(ValueError):
            SpotCheckConfig(live_safety_factor=0.0)


class TestBidPolicy:
    def test_on_demand_bid(self):
        policy = make_bid_policy("on-demand")
        assert policy.bid_for(MEDIUM) == pytest.approx(0.07)
        assert not policy.allows_proactive

    def test_multiple_bid(self):
        policy = make_bid_policy("multiple", multiple=2.0)
        assert policy.bid_for(MEDIUM) == pytest.approx(0.14)
        assert policy.allows_proactive

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            BidPolicy(0.9)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_bid_policy("magic")


def make_pools(env, zone, prices=None):
    prices = prices or {}
    pools = []
    for itype in M3_CATALOG:
        trace = flat_trace(prices.get(itype.name, 0.1 * itype.on_demand_price),
                           type_name=itype.name,
                           on_demand_price=itype.on_demand_price)
        market = SpotMarket(env, itype, zone, trace)
        pools.append(SpotPool(itype, zone, MEDIUM, market,
                              bid=itype.on_demand_price))
    return pools


class TestAllocationPolicies:
    @pytest.fixture
    def rng(self):
        return RngRegistry(3).stream("alloc")

    def test_registry_covers_table2(self):
        assert {"1P-M", "2P-ML", "4P-ED", "4P-COST", "4P-ST"} <= \
            set(ALLOCATION_POLICIES)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_allocation_policy("5P-XYZ")

    def test_1pm_always_medium(self, env, zone, rng):
        policy = make_allocation_policy("1P-M")
        pools = make_pools(env, zone)
        for _ in range(10):
            assert policy.choose(pools, rng).itype.name == "m3.medium"

    def test_2pml_alternates(self, env, zone, rng):
        policy = make_allocation_policy("2P-ML")
        pools = make_pools(env, zone)
        chosen = [policy.choose(pools, rng).itype.name for _ in range(4)]
        assert chosen == ["m3.medium", "m3.large"] * 2

    def test_4ped_spreads_equally(self, env, zone, rng):
        policy = make_allocation_policy("4P-ED")
        pools = make_pools(env, zone)
        chosen = [policy.choose(pools, rng).itype.name for _ in range(8)]
        assert chosen.count("m3.medium") == 2
        assert chosen.count("m3.2xlarge") == 2

    def test_4pcost_prefers_cheap_pools(self, env, zone, rng):
        # Make m3.large dirt cheap per slot and 2xlarge expensive.
        policy = make_allocation_policy("4P-COST")
        pools = make_pools(env, zone, prices={
            "m3.large": 0.002, "m3.2xlarge": 0.50})
        counts = {}
        for _ in range(400):
            name = policy.choose(pools, rng).itype.name
            counts[name] = counts.get(name, 0) + 1
        assert counts.get("m3.large", 0) > counts.get("m3.2xlarge", 0)

    def test_4pst_prefers_stable_pools(self, env, zone, rng):
        policy = make_allocation_policy("4P-ST")
        policy.attach_clock(lambda: 1000.0)
        pools = make_pools(env, zone)
        for pool in pools:
            if pool.itype.name != "m3.medium":
                for i in range(20):
                    pool.record_revocation(float(i), 1, 5)
        counts = {}
        for _ in range(400):
            name = policy.choose(pools, rng).itype.name
            counts[name] = counts.get(name, 0) + 1
        assert counts["m3.medium"] > 200

    def test_missing_pools_raise(self, env, zone, rng):
        policy = make_allocation_policy("1P-M")
        with pytest.raises(ValueError):
            policy.choose([], rng)


class TestPlacement:
    def _markets(self, env, zone, prices):
        markets = {}
        for itype in M3_CATALOG:
            trace = flat_trace(prices[itype.name], type_name=itype.name,
                               on_demand_price=itype.on_demand_price)
            markets[(itype.name, zone.name)] = SpotMarket(
                env, itype, zone, trace)
        return markets

    def test_greedy_exploits_slicing_arbitrage(self, env, zone):
        # An m3.large at 0.01 holds two mediums at 0.005/slot — cheaper
        # than a medium at 0.008 (the paper's arbitrage example).
        markets = self._markets(env, zone, {
            "m3.medium": 0.008, "m3.large": 0.010,
            "m3.xlarge": 0.100, "m3.2xlarge": 0.200})
        choice = GreedyCheapestFirst(M3_CATALOG).choose(MEDIUM, markets)
        assert choice.itype.name == "m3.large"
        assert choice.slots == 2
        assert choice.sliced
        assert choice.price_per_slot == pytest.approx(0.005)

    def test_greedy_prefers_direct_when_cheapest(self, env, zone):
        markets = self._markets(env, zone, {
            "m3.medium": 0.004, "m3.large": 0.010,
            "m3.xlarge": 0.100, "m3.2xlarge": 0.200})
        choice = GreedyCheapestFirst(M3_CATALOG).choose(MEDIUM, markets)
        assert choice.itype.name == "m3.medium"
        assert not choice.sliced

    def test_greedy_no_markets_raises(self):
        with pytest.raises(ValueError):
            GreedyCheapestFirst(M3_CATALOG).choose(MEDIUM, {})

    def test_stability_prefers_quiet_market(self, env, zone):
        markets = {}
        volatile = step_trace(
            [(i * 600.0, 0.01 + 0.009 * (i % 2)) for i in range(200)],
            type_name="m3.medium")
        quiet = step_trace(
            [(i * 600.0, 0.02) for i in range(200)], type_name="m3.large",
            on_demand_price=0.14)
        markets[("m3.medium", zone.name)] = SpotMarket(
            env, MEDIUM, zone, volatile)
        markets[("m3.large", zone.name)] = SpotMarket(
            env, LARGE, zone, quiet)
        env.run(until=200 * 600.0)
        choice = StabilityFirst(M3_CATALOG).choose(
            MEDIUM, markets, now=env.now)
        assert choice.itype.name == "m3.large"
