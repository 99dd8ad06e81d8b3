"""Self-tests of the benchmark, at the workloads' tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They check that every metric ``BENCHMARK.json`` names is printed with
its unit, that cell digests repeat across two runs, and that a cell
which raises lands in the failure count without stopping the workload.
"""

import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS, Cell

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def bench(workload, trace, seed=3):
    """Run the benchmark script; returns (stdout lines, result dict)."""
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digests(lines):
    return sorted(re.findall(r"^  (\S+): ok digest=(\w+)$", "\n".join(lines),
                             flags=re.MULTILINE))


def assert_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_and_repeatable_digests(workload):
    first_lines, first = bench(workload, trace=0)
    second_lines, second = bench(workload, trace=0)
    assert_metrics(first, SPEC["end_to_end"])
    assert_metrics(second, SPEC["end_to_end"])
    assert first["failed"] == 0
    assert any(line.startswith("fail_ratio ") for line in first_lines)
    assert digests(first_lines)
    assert digests(first_lines) == digests(second_lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    lines, result = bench(workload, trace=1)
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    # The layers' self times account for the profiled wall time.
    assert 0.9 < metrics["trace.accounted_ratio"] < 1.1
    assert metrics["sim.kernel.events"] > 0
    assert metrics["trace.overhead"] > 0
    # Both sections replay the same cells.
    found = digests(lines)
    assert len(found) == 2 * len(set(found))


def test_raising_cell_counts_as_failed_and_the_workload_continues(capsys):
    real = WORKLOADS["fleet_mix"]

    def boom():
        raise KeyError("deliberate")

    workload = SimpleNamespace(
        name=real.name, spawns_workers=real.spawns_workers,
        replicas=real.replicas,
        setup=real.setup, check=real.check,
        cells=lambda inputs, trace=False: (
            [Cell("raises", boom)] + real.cells(inputs, trace)))
    args = SimpleNamespace(workload=real.name, seed=3, size="tiny",
                           seconds=0.0)
    run.import_program()
    result = run.run_end_to_end(args, workload)
    out = capsys.readouterr().out
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["correct"] is True
    assert result["metrics"]["cell_ok_ratio"]["value"] == 0.5
    assert result["metrics"]["vm_hours_per_s"]["value"] > 0
    assert "fail_ratio 0.5000 ratio" in out
    assert "raises: FAILED KeyError" in out


def test_missing_program_exits_nonzero(monkeypatch):
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "no-such-src"))
    with pytest.raises(SystemExit) as exit_info:
        run.import_program()
    assert exit_info.value.code != 0


def test_only_a_digest_disagreement_makes_the_result_incorrect():
    record = run.Pass()
    record.results = {"a": SimpleNamespace(digest="d1"),
                      "b": SimpleNamespace(digest="d2"), "c": None}
    record.errors["c"] = "ValueError: capacity mismatch"
    assert run.outputs_agree([record])
    run.check_replicas(record)
    assert record.mismatched == {"a", "b"}
    assert not run.outputs_agree([record])
