"""Per-layer attribution of a traced run.

The traced run executes under :mod:`cProfile`, a deterministic
profiler: every Python call, generator resume and C call is recorded,
so a simulation process's generator body is timed on each resume, not
only when the process is created.  Self time is then summed by layer,
where a layer is a set of the program's modules (:data:`LAYERS`).
Code outside the program -- the standard library, NumPy, builtins --
is charged to the layer that called it, through the profiler's
per-caller edges, so the layers' self times add up to the profiled
wall time.  Time with no program frame above it (this benchmark, the
interpreter) is charged to ``bench``.

Counts come from two places: the program's own counters, summed over
the traced cells by :mod:`workloads`, and call counts the profiler
recorded at a few public functions (:func:`profile_counts`).
"""

import os
import pstats

#: Layer name -> module prefixes, matched longest prefix first.
#: ``other`` holds every program module the table in README.md does
#: not name (accounting, VM objects, workload models, experiments).
LAYERS = {
    "sim.kernel": ("repro.sim",),
    "sim.resources": ("repro.sim.resources",),
    "virt.memory": ("repro.virt.memory",),
    "virt.checkpoint": ("repro.virt.migration.checkpoint",),
    "virt.migration": ("repro.virt.migration.group",
                       "repro.virt.migration.soa"),
    "cloud.spot_market": ("repro.cloud.spot_market",),
    "cloud.latency": ("repro.cloud.latency",),
    "cloud.api": ("repro.cloud.api",),
    "faults": ("repro.faults",),
    "backup": ("repro.backup",),
    "core.migration_manager": ("repro.core.migration_manager",),
    "core.controller": ("repro.core.controller",),
    "core.policies": ("repro.core.policies",),
    "core.pools": ("repro.core.pools",),
    "core.shard": ("repro.core.shard",),
    "traffic": ("repro.traffic",),
    "obs": ("repro.obs",),
    "traces": ("repro.traces",),
    "other": ("repro",),
}

BENCH = "bench"

_PREFIXES = sorted(((prefix, layer) for layer, prefixes in LAYERS.items()
                    for prefix in prefixes),
                   key=lambda item: -len(item[0]))


def module_of(filename, src_root):
    """Dotted module name of a program file, or ``None`` outside it."""
    if not filename.startswith(src_root + os.sep):
        return None
    rel = os.path.splitext(filename[len(src_root) + 1:])[0]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module):
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Attribution:
    """Self time per layer and call counts from one profiler's stats."""

    def __init__(self, profile, src_root):
        self.stats = pstats.Stats(profile).stats
        self.src_root = os.path.abspath(src_root)
        self._dist = {}

    def _own_layer(self, func):
        module = module_of(func[0], self.src_root)
        return layer_of_module(module) if module else None

    def _distribution(self, func, visiting=frozenset()):
        """{layer: share} of the program code that ``func`` ran for."""
        cached = self._dist.get(func)
        if cached is not None:
            return cached
        layer = self._own_layer(func)
        if layer is not None:
            dist = {layer: 1.0}
        else:
            callers = self.stats[func][4] if func in self.stats else {}
            weights = {}
            total = 0.0
            for caller, edge in callers.items():
                if caller in visiting or caller not in self.stats:
                    continue
                # edge = (primitive calls, calls, self time, cumulative
                # time) of ``func`` when called from ``caller``.
                weight = edge[3] or edge[1]
                weights[caller] = weight
                total += weight
            if total <= 0:
                dist = {BENCH: 1.0}
            else:
                dist = {}
                for caller, weight in weights.items():
                    parent = self._distribution(caller, visiting | {func})
                    for name, share in parent.items():
                        dist[name] = dist.get(name, 0.0) \
                            + share * weight / total
        if not visiting:
            self._dist[func] = dist
        return dist

    def self_times(self):
        """{layer: seconds}; the values sum to the profiled time."""
        times = {layer: 0.0 for layer in LAYERS}
        times[BENCH] = 0.0
        for func, (_cc, _nc, self_s, _cum, callers) in self.stats.items():
            if self._own_layer(func) is not None or not callers:
                for layer, share in self._distribution(func).items():
                    times[layer] += self_s * share
                continue
            # Split a foreign function's self time by the caller that
            # spent it: the per-edge self times are exact.
            for caller, edge in callers.items():
                dist = (self._distribution(caller)
                        if caller in self.stats else {BENCH: 1.0})
                for layer, share in dist.items():
                    times[layer] += edge[2] * share
        return times

    def calls(self, function):
        """Times ``function`` was called (or a generator resumed)."""
        entry = self.stats.get(_key(function))
        return entry[1] if entry else 0

    def cumulative(self, function):
        """Seconds spent inside ``function`` and its callees."""
        entry = self.stats.get(_key(function))
        return entry[3] if entry else 0.0

    def edge_calls(self, caller, callee):
        """Calls of ``callee`` made directly by ``caller``."""
        entry = self.stats.get(_key(callee))
        if not entry:
            return 0
        edge = entry[4].get(_key(caller))
        return edge[1] if edge else 0


def _key(function):
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)
