"""Observing a run must not change how it executes.

Observability is a passive tap: an observed run delivers the same
market points, so it matches the unobserved run in its summary, its
kernel-event count and its market-drive counters.
"""

import pytest

from repro.experiments.chaos import default_chaos_plan
from repro.experiments.scenario import PolicySimulation, ScenarioConfig
from repro.experiments.sla_chaos import default_traffic_mix
from repro.obs import Observability

DAYS = 4.0


@pytest.fixture(scope="module")
def archive():
    config = ScenarioConfig(seed=11, days=DAYS)
    return PolicySimulation.build_archive(
        config.seed, config.duration_s, market_params=config.market_params)


def _run(policy, archive, obs):
    config = ScenarioConfig(policy=policy, seed=11, days=DAYS, vms=8,
                            faults=default_chaos_plan(),
                            traffic=default_traffic_mix(DAYS))
    summary, controller = PolicySimulation(config, archive=archive).run(
        return_controller=True, obs=obs)
    return (summary, controller.env.events_processed,
            controller.api.marketplace.drive_stats()), controller


@pytest.mark.parametrize("policy", ["1P-M", "4P-COST"])
def test_observed_chaos_run_matches_unobserved(policy, archive):
    unobserved, _ = _run(policy, archive, None)
    obs = Observability()
    observed, controller = _run(policy, archive, obs)
    assert observed == unobserved
    drives = [event for event in obs.events if event.name == "spot.drive"]
    assert len(drives) == len(controller.api.marketplace)
    stats = controller.api.marketplace.drive_stats()
    assert sum(event.fields["delivered"] for event in drives) == \
        stats["delivered"]
