"""Equivalence of the event-skipping drive with the per-step drive.

The threshold-indexed market drive claims bit-identical observable
behaviour to a point-by-point loop: same scenario summaries, same
lazily reconstructed price windows, same predictor state.  These tests
pin each of those claims directly, so an optimization that subtly
changes *values* (not just wall-clock) fails loudly.  The per-step
oracle overrides ``SpotMarket._next_wake_index`` to return the cursor,
so the drive wakes at every trace point.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import M3_CATALOG
from repro.cloud.instances import Instance, Market
from repro.cloud.spot_market import PriceWatch, SpotMarket
from repro.cloud.zones import default_region
from repro.core.policies.prediction import RevocationPredictor
from repro.core.pools import PRICE_SAMPLE_WINDOW, SpotPool
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.sim.kernel import Environment

from tests.conftest import step_trace

MEDIUM = M3_CATALOG.get("m3.medium")
ZONE = default_region(1).zones[0]

SCENARIOS = [
    dict(policy="1P-M", mechanism="spotcheck-lazy"),
    dict(policy="4P-ED", mechanism="spotcheck-lazy", proactive=True,
         bid_policy="multiple"),
    dict(policy="4P-COST", mechanism="xen-live"),
    dict(policy="4P-COST", mechanism="spotcheck-lazy", predictive=True,
         proactive=True, bid_policy="multiple"),
]


def _step_wake_index(market):
    """The per-step oracle's plan: wake at the very next trace point."""
    return market._cursor if market._cursor < market._n else None


def _run(config, archive, force_step, monkeypatch):
    if force_step:
        monkeypatch.setattr(SpotMarket, "_next_wake_index", _step_wake_index)
    summary = PolicySimulation(config, archive=archive).run()
    monkeypatch.undo()
    return summary


class TestScenarioEquivalence:
    def test_skipping_drive_matches_per_step_summaries(self, monkeypatch):
        """Every scenario summary is equal — floats bitwise, not approx."""
        for kwargs in SCENARIOS:
            config = ScenarioConfig(seed=7, days=2.0, vms=4, **kwargs)
            archive = PolicySimulation.build_archive(
                config.seed, config.duration_s,
                market_params=config.market_params, zones=config.zones)
            stepped = _run(config, archive, True, monkeypatch)
            indexed = _run(config, archive, False, monkeypatch)
            assert stepped == indexed, kwargs

    def test_skipping_drive_delivers_fewer_points(self, monkeypatch):
        config = ScenarioConfig(policy="1P-M", mechanism="spotcheck-lazy",
                                seed=7, days=2.0, vms=4)
        archive = PolicySimulation.build_archive(
            config.seed, config.duration_s,
            market_params=config.market_params)
        _summary, controller = PolicySimulation(
            config, archive=archive).run(return_controller=True)
        stats = controller.api.marketplace.drive_stats()
        assert stats["points"] > 0
        assert stats["delivered"] < stats["points"] / 5


def _recorder(market):
    """Eager reference series: an unbounded watch appending every point."""
    samples = []
    market.add_watch(PriceWatch(
        lambda m, price: samples.append((m.env.now, price))))
    return samples


def _eager_mean_per_slot(pool, samples):
    prices = [price for _when, price in samples[-PRICE_SAMPLE_WINDOW:]]
    return (sum(prices) / len(prices)) / pool.slots_per_host


class TestPriceWindowEquivalence:
    def _market(self, env, zone, steps):
        trace = step_trace(steps)
        return SpotMarket(env, MEDIUM, zone, trace)

    def test_lazy_window_matches_per_step_recording(self, env, zone):
        steps = [(float(i * 60), 0.02 + 0.0001 * ((i * 7) % 13))
                 for i in range(600)]
        market = self._market(env, zone, steps)
        lazy = SpotPool(MEDIUM, zone, MEDIUM, market,
                        bid=MEDIUM.on_demand_price)
        samples = _recorder(market)
        env.run(until=500 * 60.0 + 1)
        assert len(samples) == 501
        # Bitwise equality: same values, same order, same float fold.
        assert lazy.recent_mean_price_per_slot() == \
            _eager_mean_per_slot(lazy, samples)

    def test_late_attach_sees_only_subsequent_points(self, env, zone):
        steps = [(float(i * 60), 0.01 + 0.001 * (i % 9)) for i in range(200)]
        market = self._market(env, zone, steps)
        # Attach strictly between two points: at an exact point time the
        # same-timestamp delivery order is heap-dependent either way.
        env.run(until=100 * 60.0 + 30.0)
        lazy = SpotPool(MEDIUM, zone, MEDIUM, market,
                        bid=MEDIUM.on_demand_price)
        samples = _recorder(market)
        env.run()
        assert [when for when, _price in samples] == \
            [float(i * 60) for i in range(101, 200)]
        assert lazy.recent_mean_price_per_slot() == \
            _eager_mean_per_slot(lazy, samples)

    def test_empty_window_falls_back_to_current_price(self, env, zone):
        market = self._market(env, zone, [(0, 0.02)])
        pool = SpotPool(MEDIUM, zone, MEDIUM, market,
                        bid=MEDIUM.on_demand_price)
        assert pool.recent_mean_price_per_slot() == pool.price_per_slot()


#: Trace points sit on a 60 s grid; mid-run actions happen at odd
#: multiples of 30 s, strictly between two points, where the delivery
#: order of same-timestamp events cannot matter.
GRID_S = 60.0
PRICE_LEVELS = [round(0.01 * k, 2) for k in range(1, 11)]
_price = st.sampled_from(PRICE_LEVELS)
_bound = st.one_of(st.none(), _price)


@st.composite
def drive_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    prices = draw(st.lists(_price, min_size=n, max_size=n))
    horizon = n + 4  # Past the last point, so warnings can expire.

    def between():
        return draw(st.integers(min_value=0, max_value=horizon)) * GRID_S \
            + GRID_S / 2

    bids = [(None if draw(st.booleans()) else between(), draw(_price))
            for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    watches = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lo, hi = draw(_bound), draw(_bound)
        if lo is not None and hi is not None and hi <= lo:
            lo, hi = hi, lo
            if hi == lo:
                hi = None
        gate = None
        if draw(st.booleans()):
            opens, closes = sorted([between(), between()])
            gate = (opens, closes)
        start = None if draw(st.booleans()) else between()
        watches.append((lo, hi, gate, start))
    return prices, bids, watches


def _drive_trace(scenario, stepped):
    """Run one scenario; return the callbacks and warnings it produced."""
    prices, bids, watches = scenario
    env = Environment(seed=5)
    trace = step_trace([(i * GRID_S, p) for i, p in enumerate(prices)])
    market = SpotMarket(env, MEDIUM, ZONE, trace)
    if stepped:
        market._next_wake_index = lambda: _step_wake_index(market)
    log = []
    fleet = []
    market.on_warning(lambda m, instance, deadline: log.append(
        ("warn", fleet.index(instance), env.now, deadline)))

    def at(when, action):
        def process():
            yield env.timeout_at(when)
            action()
        env.process(process())

    for bid_at, bid in bids:
        instance = Instance(env, MEDIUM, ZONE, Market.SPOT, bid=bid)
        instance._mark_running()
        fleet.append(instance)
        if bid_at is None:
            market.register(instance)
        else:
            at(bid_at, lambda i=instance: market.register(i))

    for k, (lo, hi, gate, start) in enumerate(watches):
        state = {"open": gate is None}

        def callback(m, price, k=k, state=state):
            # A gate is a scheduling hint, so the callback re-checks it.
            if state["open"]:
                log.append(("watch", k, env.now, price))

        watch = PriceWatch(callback, lo=lo, hi=hi,
                           active=lambda state=state: state["open"])
        if gate is not None:
            opens, closes = gate

            def flip(value, state=state):
                state["open"] = value
                market.rearm()
            at(opens, lambda flip=flip: flip(True))
            at(closes, lambda flip=flip: flip(False))
        if start is None:
            market.add_watch(watch)
        else:
            at(start, lambda w=watch: market.add_watch(w))

    env.run()
    states = [(i.state.value, i.warned_at) for i in fleet]
    return log, states


class TestGeneratedDriveEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(scenario=drive_scenarios())
    def test_indexed_drive_matches_step_oracle(self, scenario):
        indexed = _drive_trace(scenario, stepped=False)
        stepped = _drive_trace(scenario, stepped=True)
        assert indexed == stepped


class TestPredictorSeriesEquivalence:
    PRICES = [0.010, 0.012, 0.030, 0.055, 0.020, 0.015, 0.080, 0.050,
              0.049, 0.011, 0.010, 0.058, 0.059, 0.012]

    def _series(self):
        times = [float(i * 900) for i in range(len(self.PRICES))]
        return times, list(self.PRICES)

    def test_observe_series_matches_per_point_observe(self):
        times, prices = self._series()
        bid = MEDIUM.on_demand_price
        loop = RevocationPredictor(holdoff_s=1800.0)
        batch = RevocationPredictor(holdoff_s=1800.0)
        fired_loop = [i for i, (when, price) in enumerate(zip(times, prices))
                      if loop.observe("pool", when, price, bid)]
        fired_batch = batch.observe_series("pool", times, prices, bid)
        assert fired_loop == fired_batch
        assert fired_loop  # The series is built to fire at least once.
        assert loop._ewma == batch._ewma
        assert loop._last_signal == batch._last_signal
        assert loop.stats.signals == batch.stats.signals

    def test_observe_series_resumes_existing_state(self):
        times, prices = self._series()
        bid = MEDIUM.on_demand_price
        loop = RevocationPredictor()
        batch = RevocationPredictor()
        split = 5
        for i in range(split):
            loop.observe("pool", times[i], prices[i], bid)
            batch.observe("pool", times[i], prices[i], bid)
        fired_loop = [i for i in range(split, len(times))
                      if loop.observe("pool", times[i], prices[i], bid)]
        fired_batch = [split + j for j in batch.observe_series(
            "pool", times[split:], prices[split:], bid)]
        assert fired_loop == fired_batch
        assert loop._ewma == batch._ewma

    def test_observe_series_rejects_ragged_input(self):
        predictor = RevocationPredictor()
        try:
            predictor.observe_series("pool", [0.0, 1.0], [0.01], 0.1)
        except ValueError:
            pass
        else:
            raise AssertionError("ragged series accepted")
