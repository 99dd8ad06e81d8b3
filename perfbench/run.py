"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_grid --seed 11 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's cell list
runs as many whole passes as fit in ``--seconds`` (at least one), and
the set-up is timed in fresh processes.  ``--trace 1`` runs set-up and
the cell list once plain and once under the profiler, and reports the
per-layer metrics (see README.md).  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import argparse
import cProfile
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # Running as a script puts this directory, not the checkout root,
    # on the path; the benchmark's modules import as ``perfbench.*``.
    sys.path.insert(0, ROOT)

from perfbench.hostspeed import reference_s, speed  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Default workload seed.  At 11, chaos_sla's 21-day 4P-COST cell hits
#: the known terminate-under-capacity-episode crash, so the default run
#: shows the defect in ``fail_ratio``.
DEFAULT_SEED = 11

#: Fresh processes timed for ``setup_s``, per ``--size``.
SETUP_SAMPLES = {"full": 3, "tiny": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the "
                             "benchmark's self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put ``src/`` on the path; exit 2 when the program is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- running cells -----------------------------------------------------


class Pass:
    """One run of a workload's whole cell list."""

    def __init__(self):
        self.results = {}
        self.errors = {}
        #: Cells whose simulated output disagreed with a replay.
        self.mismatched = set()
        #: Seconds spent in the cells.
        self.wall_s = 0.0
        #: Reference-loop times taken before and between the cells.
        self.references = []

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return len(self.errors)

    @property
    def vm_hours(self):
        """Simulated VM-hours of the cells that completed and passed."""
        return sum(result.vm_hours for name, result in self.results.items()
                   if result is not None and name not in self.errors)


def run_pass(workload, cells, scaled=False):
    """Run every cell; a cell that raises is recorded and the pass goes on.

    With ``scaled``, the reference loop also runs before the first cell
    and after every cell, untimed, to sample the host's speed through
    the pass (hostspeed.py).
    """
    record = Pass()
    if scaled:
        record.references.append(reference_s())
    for cell in cells:
        started = time.perf_counter()
        try:
            record.results[cell.name] = cell.run()
        except Exception as exc:  # noqa: BLE001 - a crashed cell is data
            record.results[cell.name] = None
            record.errors[cell.name] = f"{type(exc).__name__}: {exc}"
        record.wall_s += time.perf_counter() - started
        if scaled:
            record.references.append(reference_s())
    if workload.replicas:
        check_replicas(record)
    for name, problems in workload.check(record.results).items():
        record.errors.setdefault(name, "; ".join(problems))
    return record


def mismatch(record, name, message):
    """Fail a cell whose simulated output disagreed with a replay."""
    record.mismatched.add(name)
    record.errors[name] = f"mismatch: {message}"


def check_replicas(record):
    """Fail every cell of a pass whose cells disagree on the digest."""
    done = {name: result.digest for name, result in record.results.items()
            if result is not None and name not in record.errors}
    if len(set(done.values())) > 1:
        for name in done:
            mismatch(record, name, "replicas disagree on the digest")


def outputs_agree(records):
    """False when any cell's simulated output disagreed with a replay."""
    return not any(record.mismatched for record in records)


def check_repeats(passes):
    """Fail a cell whose digest differs from its first completed pass."""
    first = {}
    for record in passes:
        for name, result in record.results.items():
            if result is None or name in record.errors:
                continue
            want = first.setdefault(name, result.digest)
            if result.digest != want:
                mismatch(record, name, f"digest {result.digest[:12]} != "
                                       f"first pass {want[:12]}")


def print_cells(passes, label="pass"):
    for index, record in enumerate(passes):
        print(f"{label} {index}: {record.wall_s:.3f} s, "
              f"{record.vm_hours:.1f} VM-hours")
        for name, result in record.results.items():
            if name in record.errors:
                print(f"  {name}: FAILED {record.errors[name]}")
            else:
                print(f"  {name}: ok digest={result.digest[:16]}")


# -- end-to-end run ----------------------------------------------------


def rss_kib():
    """Current resident memory of this process, in KiB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def peak_rss_mb(workers=0, fork_kib=0.0):
    """High-water RSS of this process plus its forked workers' growth.

    A forked worker's high-water mark starts at the RSS it inherits at
    the fork (``fork_kib``), pages it shares with this process.  Each of
    the ``workers`` therefore adds only its growth beyond that, taken
    from the largest waited worker.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        growth = max(0.0, child - fork_kib)
        print(f"rss: self {kib / 1024:.1f} MB, largest worker "
              f"{child / 1024:.1f} MB, forked at {fork_kib / 1024:.1f} MB")
        kib += workers * growth
    return kib / 1024.0


def time_setup(args):
    """Seconds from process start to ready inputs, in a fresh process."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-only"]
    started = time.perf_counter()
    subprocess.run(command, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - started


def run_end_to_end(args, workload):
    inputs = workload.setup(args.seed, args.size)
    cells = workload.cells(inputs)
    passes = []
    # hostspeed.py explains why timings are scaled.  Shard workers run
    # on every CPU, beyond what a loop in this process measures, so
    # their passes stay in host seconds.
    scaled = not workload.spawns_workers
    workers = workload.shards if workload.spawns_workers else 0
    fork_kib = 0.0
    started = time.perf_counter()
    while True:
        # The workers fork at the start of the pass.
        fork_kib = max(fork_kib, rss_kib())
        passes.append(run_pass(workload, cells, scaled))
        elapsed = time.perf_counter() - started
        # Whole passes only: stop before a pass that would overrun.
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    check_repeats(passes)
    rss = peak_rss_mb(workers, fork_kib)
    setup_host, setup = [], []
    before = reference_s()
    for _ in range(SETUP_SAMPLES[args.size]):
        seconds = time_setup(args)
        after = reference_s()
        setup_host.append(seconds)
        setup.append(seconds * speed([before, after]))
        before = after

    attempted = sum(record.attempted for record in passes)
    failed = sum(record.failed for record in passes)
    host_rates = [record.vm_hours / record.wall_s for record in passes]
    speeds = [speed(record.references) if scaled else 1.0
              for record in passes]
    rates = [rate / factor for rate, factor in zip(host_rates, speeds)]
    print_cells(passes)
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} cells, {failed} failed")
    print(f"fail_ratio {failed / attempted:.4f} ratio "
          f"(failed / attempted cells)")
    print("host VMh/s per pass: "
          + ", ".join(f"{rate:.6g}" for rate in host_rates))
    print("host speed per pass: "
          + ", ".join(f"{factor:.4f}" for factor in speeds))
    print("setup host s: " + ", ".join(f"{s:.3f}" for s in setup_host)
          + "; scaled: " + ", ".join(f"{s:.3f}" for s in setup))
    metrics = {
        "vm_hours_per_s": (statistics.median(rates), "VMh/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "cell_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return emit(metrics, attempted, failed, outputs_agree(passes))


# -- traced run --------------------------------------------------------


def run_traced(args, workload):
    """One untraced and one profiled pass of setup plus the cell list."""
    from perfbench.layers import Attribution
    from perfbench.layer_metrics import layer_metrics

    def section():
        started = time.perf_counter()
        inputs = workload.setup(args.seed, args.size)
        record = run_pass(workload, workload.cells(inputs, trace=True))
        record.wall_s = time.perf_counter() - started
        return record

    # Lazy first-call work (imports inside the program, first archive)
    # must not land in the untraced section only.
    workload.setup(args.seed, args.size)
    plain = section()
    profile = cProfile.Profile()
    profile.enable()
    traced = section()
    profile.disable()
    check_repeats([plain, traced])
    print_cells([plain, traced], label="section")

    attribution = Attribution(profile, SRC)
    metrics = layer_metrics(attribution, traced, plain.wall_s)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(f"workload {workload.name} seed {args.seed}: traced "
          f"{traced.wall_s:.3f} s, untraced {plain.wall_s:.3f} s")
    return emit(metrics, attempted, failed, outputs_agree([plain, traced]))


def emit(metrics, attempted, failed, correct):
    """Print the metrics by name, then the one-line JSON result."""
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    args = parse_args(argv)
    import_program()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed, args.size)
        return 0
    if args.trace:
        run_traced(args, workload)
    else:
        run_end_to_end(args, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
