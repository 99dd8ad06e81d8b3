"""Scale host seconds to a nominal host speed.

The benchmark runs on shared machines whose CPU speed drifts by tens of
percent over minutes.  On a 2-CPU container the calm fleet_mix workload,
whose work hardly depends on the seed, read 461k VMh/s in one set of ten
runs and 328k in the next set twenty minutes later.  Two sets of runs of
one commit must agree, so end-to-end timings taken in this process are
scaled by a fixed reference loop timed in the same run: a timing is
multiplied by ``NOMINAL_S / t_ref``, the host speed relative to a host on
which the loop takes :data:`NOMINAL_S`.  The loop is the benchmark's
own code, so a program change moves a scaled timing exactly as it
moves the host timing.
"""

import time

import numpy as np

#: Reference-loop time of the nominal host, in seconds.
NOMINAL_S = 0.2

_ARRAY = 200_000
_ROUNDS = 180
_STEPS = 300_000


def reference_s():
    """Seconds one run of the fixed reference loop takes right now.

    The loop streams arrays larger than a core's cache through numpy,
    then runs plain interpreter steps, as the simulator does.  A loop of
    interpreter steps alone moved about twice as much as the 20k-VM
    fleet_mix cell when the host's speed changed, so scaling by it
    widened that workload's spread.
    """
    started = time.perf_counter()
    values = np.linspace(0.0, 1.0, _ARRAY)
    for _ in range(_ROUNDS):
        totals = np.cumsum(values)
        np.searchsorted(totals, totals[-1] * 0.5)
        values = np.minimum(values * 1.0001, 1.0)
    total = 0
    for k in range(_STEPS):
        total += (k * 31) % 7
    return time.perf_counter() - started


def speed(reference_times):
    """Host speed relative to the nominal host, from reference timings."""
    return NOMINAL_S / (sum(reference_times) / len(reference_times))
