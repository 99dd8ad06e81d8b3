"""A host link modelled as a single-path fair-share resource."""

import pytest

from repro.sim.resources import FairShareResource


def nic(env, capacity=100.0):
    return FairShareResource(env, {"nic": capacity})


class TestSingleFlow:
    def test_full_capacity(self, env):
        link = nic(env)
        done = link.transfer(1000.0)
        env.run()
        assert done.triggered
        assert done.value == pytest.approx(10.0)

    def test_rate_cap_limits(self, env):
        link = nic(env)
        done = link.transfer(1000.0, rate_cap=10.0)
        env.run()
        assert done.value == pytest.approx(100.0)

    def test_invalid_args(self, env):
        link = nic(env)
        with pytest.raises(ValueError):
            link.transfer(0)
        with pytest.raises(ValueError):
            link.transfer(10, rate_cap=0)
        with pytest.raises(ValueError):
            nic(env, capacity=0)


class TestSharing:
    def test_two_equal_flows_halve_rate(self, env):
        link = nic(env)
        a = link.transfer(1000.0)
        b = link.transfer(1000.0)
        env.run()
        assert a.value == pytest.approx(20.0)
        assert b.value == pytest.approx(20.0)

    def test_short_flow_releases_bandwidth(self, env):
        link = nic(env)
        long_flow = link.transfer(1000.0)
        short_flow = link.transfer(100.0)
        env.run()
        # Short: 100 bytes at 50 B/s -> 2s. Long: 100 bytes in the
        # first 2s, then 900 at full rate -> 2 + 9 = 11s.
        assert short_flow.value == pytest.approx(2.0)
        assert long_flow.value == pytest.approx(11.0)

    def test_late_joiner(self, env):
        link = nic(env)
        first = link.transfer(1000.0)
        def joiner():
            yield env.timeout(5.0)
            second = link.transfer(250.0)
            yield second
            return env.now
        join_proc = env.process(joiner())
        env.run()
        # First runs alone for 5s (500 bytes), then shares at 50 B/s.
        # Joiner: 250 bytes at 50 B/s -> done at t=10.  First then has
        # 250 bytes left at full rate -> done at t=12.5.
        assert join_proc.value == pytest.approx(10.0)
        assert first.value == pytest.approx(12.5)

    def test_capped_flow_leaves_rest_to_others(self, env):
        link = nic(env)
        capped = link.transfer(100.0, rate_cap=10.0)
        greedy = link.transfer(900.0)
        env.run()
        # Capped takes 10 B/s; greedy gets 90 B/s -> both end at 10s.
        assert capped.value == pytest.approx(10.0)
        assert greedy.value == pytest.approx(10.0)

    def test_active_flow_count(self, env):
        link = nic(env)
        link.transfer(1000.0)
        link.transfer(1000.0)
        assert link.flow_count() == 2
        env.run()
        assert link.flow_count() == 0

    def test_current_rate_estimate(self, env):
        """A joining flow's rate is its max-min share at arrival."""
        link = nic(env)
        link.transfer(1e6)
        assert link.flows[-1].rate == pytest.approx(100.0)
        link.transfer(1e6)
        assert link.flows[-1].rate == pytest.approx(50.0)
        link.transfer(1e6, rate_cap=10.0)
        assert link.flows[-1].rate == pytest.approx(10.0)


class TestManyFlows:
    def test_equal_split_many(self, env):
        link = nic(env)
        flows = [link.transfer(100.0) for _ in range(10)]
        env.run()
        for flow in flows:
            assert flow.value == pytest.approx(10.0)

    def test_total_throughput_conserved(self, env):
        link = nic(env)
        sizes = [100.0, 300.0, 600.0]
        flows = [link.transfer(size) for size in sizes]
        env.run()
        # All 1000 bytes moved through a 100 B/s link: exactly 10s.
        assert max(f.value for f in flows) == pytest.approx(10.0)
