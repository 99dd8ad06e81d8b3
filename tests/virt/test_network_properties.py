"""Property-based tests for a single-path fair-share link."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Environment
from repro.sim.resources import FairShareResource, fair_share_rates

flow_sizes = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=8)


def nic(env, capacity, on_rebalance=None):
    return FairShareResource(env, {"nic": capacity},
                             on_rebalance=on_rebalance)


class TestConservation:
    @given(flow_sizes)
    @settings(max_examples=60, deadline=None)
    def test_total_bytes_per_second_conserved(self, sizes):
        """All simultaneous flows finish exactly when sum(bytes)/capacity
        elapses for the *last* one — no bandwidth is lost or created."""
        env = Environment()
        link = nic(env, 100.0)
        flows = [link.transfer(size) for size in sizes]
        env.run()
        assert max(f.value for f in flows) == \
            pytest.approx(sum(sizes) / 100.0, rel=1e-6)

    @given(flow_sizes)
    @settings(max_examples=60, deadline=None)
    def test_smaller_flows_never_finish_later(self, sizes):
        env = Environment()
        link = nic(env, 50.0)
        flows = [(size, link.transfer(size)) for size in sizes]
        env.run()
        ordered = sorted(flows, key=lambda pair: pair[0])
        times = [flow.value for _size, flow in ordered]
        assert all(b >= a - 1e-9 for a, b in zip(times, times[1:]))

    @given(flow_sizes, st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_caps_only_slow_down(self, sizes, cap):
        env_free = Environment()
        free_link = nic(env_free, 100.0)
        free = [free_link.transfer(size) for size in sizes]
        env_free.run()

        env_capped = Environment()
        capped_link = nic(env_capped, 100.0)
        capped = [capped_link.transfer(size, rate_cap=cap)
                  for size in sizes]
        env_capped.run()

        for f, c in zip(free, capped):
            assert c.value >= f.value - 1e-9

    @given(flow_sizes)
    @settings(max_examples=40, deadline=None)
    def test_staggered_arrivals_all_complete(self, sizes):
        env = Environment()
        link = nic(env, 100.0)
        flows = []

        def spawner():
            for size in sizes:
                flows.append(link.transfer(size))
                yield env.timeout(size / 300.0)

        env.process(spawner())
        env.run()
        assert len(flows) == len(sizes)
        assert all(flow.triggered for flow in flows)
        assert link.flow_count() == 0


#: (size, cap or None, arrival gap) for one flow.
flow_specs = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        st.one_of(st.none(),
                  st.floats(min_value=0.5, max_value=150.0,
                            allow_nan=False)),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
    min_size=1, max_size=8)


class TestAnalyticRates:
    @given(flow_specs, st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=80, deadline=None)
    def test_rates_match_water_filling_at_every_rebalance(self, specs,
                                                          capacity):
        """On one path, progressive filling is plain water-filling: at
        every rate recomputation each flow holds its
        ``fair_share_rates`` grant for demands = caps (uncapped = inf)."""
        checked = []

        def check(resource):
            demands = [float("inf") if f.rate_cap is None else f.rate_cap
                       for f in resource.flows]
            expected = fair_share_rates(demands, capacity)
            actual = [f.rate for f in resource.flows]
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12)
            checked.append(len(actual))

        env = Environment()
        link = nic(env, capacity, on_rebalance=check)
        done = []

        def spawner():
            for size, cap, gap in specs:
                if gap > 0:
                    yield env.timeout(gap)
                done.append(link.transfer(size, rate_cap=cap))

        env.process(spawner())
        env.run()
        assert all(event.triggered for event in done)
        assert len(checked) >= len(specs)
