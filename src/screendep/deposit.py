"""Simulation of screened multilayer deposition, settled one layer at a time.

Each vertex of a finite graph receives particles at unit rate.  A particle
arriving at v settles at height 1 + max over the closed neighborhood of v
of the current top height, i.e. it is blocked by the tallest stack it can
see, including v's own.

A replica reports the fill times of its measured vertices: for each of
them and each layer k up to the depth, the deepest layer an observable
reads, the time at which a particle settles at height k there, or inf if
none ever does.  A settled particle stays, so layer k is occupied at t
exactly when its fill time is at most t.  Sample times enter only when
the observables are read.  Pattern observables are binary words over a
window of the lowest layers, written top layer first: "0101" means layer
4 empty, layer 3 occupied, layer 2 empty, layer 1 occupied.  A word holds
at t exactly when t lies in [latest fill of its occupied layers, earliest
fill of its empty ones).

The arrivals are never put in time order.  Let T_k(v) be the time at which
v's stack first reaches layer k, and S_k(v) = min over the neighbors u of v
of T_k(u).  Then T_1(v) is v's first arrival, and

    T_{k+1}(v) = T_k(v)                 if S_k(v) < T_k(v),
    T_{k+1}(v) = v's next arrival       otherwise;

v holds a particle at height k from T_k(v) on exactly when T_k(v) < S_k(v).
Proof: the arrival at T_k(v) finds v's own stack below k, so it lands
above k if a neighbor already reaches k, and at k otherwise.  Every later
arrival at v lands above v's top, so height k is filled then or never.
Once v's top is k, v's next arrival lifts it to k + 1 or above.

Each layer takes at most one new arrival per vertex, so each vertex's first
depth arrival times decide every fill time.  They are drawn as a (depth, m)
matrix of Exp(1) gaps and settled in depth passes over a padded neighbor
table; a vertex that lands at a layer adds its next gap to take its next
arrival.  The work does not grow with the sample times, so a run has no
horizon to set: it ends at its last sample time.  Nor is the depth capped:
the gaps take depth * m * 8 bytes, so the depth and the graph bound a
replica's memory.

T_k(v) reads the arrivals within distance k - 1 of v, and the fill time
of layer k those within distance k: the lowest L layers at a vertex are
decided by its light cone, the vertices within distance L.  On a ball,
whose vertices are numbered breadth-first, the light cones of the measured
vertices lie in a prefix of the vertex ids, and the arrivals are drawn
over that prefix alone (m is its size; on a cycle, or when every vertex is
measured, m = n).  A neighbor outside the prefix receives no arrival and
never reaches a layer: its T_k is infinite.  So a fixed ball need only
be built down to the deepest level a measured cone reads
(SimConfig.reach), as the CLI builds a regular ball; its light cone is
built once and goes to the replicas in the graph's place.
The fill times are the exact ones of the finite graph given.  They are
marginals of the infinite line or tree it stands for when every measured
light cone fits inside it: on a cycle when n >= 2 * depth + 1, so no cone
wraps around, and on a ball when the buffer is at least depth for interior
vertices, or the radius at least depth for the root.  The CLI checks the
cycle and derives such a buffer; this module settles the graph as given.

The replicas run in contiguous blocks, one per worker: of R replicas on
w workers, block i holds replicas R * i // w to R * (i + 1) // w - 1.
The calling process runs the first block while a process pool runs the
others, and the blocks are joined in replica order.  w is the smallest of
the jobs asked for, the replica count and the CPUs this process may run
on, so a run never starts more processes than it has replicas or CPUs.

numpy and the process pool are imported inside the functions that use
them, so importing this module (and the CLI) loads neither until the
first simulation runs.
"""

from __future__ import annotations

import numbers
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import zip_longest
from typing import TYPE_CHECKING, NamedTuple, Union

from ._version import __version__
from .curves import DensityCurve, SeriesPoint, _check_times
from .exppoly import _count
from .graphs import GraphInstance, RandomBallSource, _generator

if TYPE_CHECKING:
    import numpy as np

GraphLike = Union[GraphInstance, RandomBallSource]

_GRAPH_STREAM = 0
_ARRIVAL_STREAM = 1


def _sequence(values, what: str) -> tuple:
    """values as a tuple; a value that is not a sequence is a TypeError naming what."""
    try:
        return tuple(values)
    except TypeError:
        raise TypeError(f"{what} must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for a deposition estimate.

    sample_times must be >= 0, finite and strictly increasing; a run
    ends at the last of them, its horizon, since a replica's work does not
    depend on how long it runs.  replicas and layers are ints >= 1, seed >= 0.
    layers lists the single-layer densities to report; patterns are
    top-down binary words, as strings, over the lowest len(pattern) layers.
    measure selects which vertices are averaged: the graph's interior or
    its root alone (tree-averaged observables on random balls use the root).
    """

    sample_times: tuple[float, ...]
    replicas: int = 100
    seed: int = 0
    layers: tuple[int, ...] = (1, 2)
    patterns: tuple[str, ...] = ()
    measure: str = "interior"

    def __post_init__(self):
        times = _sequence(self.sample_times, "sample times")
        patterns = _sequence(self.patterns, "patterns")
        if not all(isinstance(t, numbers.Real) and not isinstance(t, bool) for t in times):
            raise TypeError(f"sample times must be real numbers, got {times!r}")
        if isinstance(self.patterns, str) or not all(isinstance(p, str) for p in patterns):
            raise TypeError(f"patterns must be a sequence of strings, got {self.patterns!r}")
        times = tuple(float(t) for t in times)
        _check_times(times, f"sample time grid {times}")
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "patterns", patterns)
        layers = _sequence(self.layers, "layers")
        object.__setattr__(self, "layers", tuple(_count(k, "layers", 1) for k in layers))
        object.__setattr__(self, "replicas", _count(self.replicas, "replicas", 1))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if not all(p and set(p) <= {"0", "1"} for p in patterns):
            raise ValueError(f"patterns must be nonempty binary words, got {patterns!r}")
        if not self.layers and not self.patterns:
            raise ValueError("nothing to observe: layers and patterns are both empty")
        if len(set(self.layers)) < len(self.layers):
            raise ValueError(f"layers must not repeat, got {self.layers}")
        if len(set(self.patterns)) < len(self.patterns):
            raise ValueError(f"patterns must not repeat, got {self.patterns}")
        if self.measure not in ("interior", "root"):
            raise ValueError(f"measure must be 'interior' or 'root', got {self.measure!r}")

    @property
    def depth(self) -> int:
        """The number of tracked layers: the deepest one an observable reads."""
        return max((*self.layers, *(len(p) for p in self.patterns)))

    @property
    def horizon(self) -> float:
        """The last sample time, where a run ends."""
        return self.sample_times[-1]

    def reach(self, radius: int, buffer: int) -> int:
        """The deepest level of a ball of this radius and buffer that the
        light cone of a measured vertex reads: the measured depth (radius -
        buffer for the interior, 0 for the root) plus depth, at most radius.
        _light_cone applies the same rule to a ball already built."""
        measured_depth = radius - buffer if self.measure == "interior" else 0
        return min(radius, measured_depth + self.depth)


@dataclass(frozen=True)
class ReplicaSnapshot:
    """One replica's result: fill_times[k, i] is the time at which layer
    k + 1 is filled at vertex measured[i], inf if it never is; shape
    (depth, n_measured)."""

    measured: tuple[int, ...]
    fill_times: np.ndarray


def observable_names(config: SimConfig) -> tuple[str, ...]:
    """Observable column labels: layer densities then pattern frequencies."""
    return tuple(f"layer:{k}" for k in config.layers) + tuple(
        f"pattern:{p}" for p in config.patterns
    )


def _light_cone(graph: GraphInstance, measured: tuple[int, ...], depth: int) -> int:
    """How many leading vertex ids hold every arrival that can reach the
    lowest `depth` layers of a measured vertex: all of them on a graph
    without depths.

    A vertex within distance `depth` of v lies at most `depth` levels below
    v, and breadth-first numbering puts every vertex down to that level first.
    Depth never decreases with the id, so the deepest measured vertex is
    the one with the largest id.
    """
    if graph.depth is None:
        return graph.vertex_count
    reach = (graph.depth[max(measured)] if measured else 0) + depth
    return bisect_right(graph.depth, reach)


def _arrival_gaps(m: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """The gaps before the first depth arrivals at each of m vertices, shape
    (depth, m), iid Exp(1): a vertex's (k + 1)-th arrival time is the sum of
    its column's first k + 1 gaps."""
    return rng.standard_exponential((depth, m))


def _cone_arrays(graph: GraphInstance, m: int, measured: tuple[int, ...]):
    """The padded neighbor table of the first m vertex ids, shape
    (width, m), and the measured ids as an index array, both read-only.

    Short rows are padded, and neighbors outside the prefix replaced, with
    the sentinel id m, which never reaches a layer.
    """
    import numpy as np

    columns = list(zip_longest(*graph.neighbors[:m], fillvalue=m)) or [(m,) * m]
    table = np.minimum(np.array(columns, dtype=np.intp), m)
    index = np.fromiter(measured, dtype=np.intp, count=len(measured))
    table.flags.writeable = index.flags.writeable = False
    return table, index


class _Cone(NamedTuple):
    """All a replica reads of a graph, as _replica_setup builds it: the
    measured ids and _cone_arrays over their light cone, of vertex_count m."""

    measured: tuple[int, ...]
    table: np.ndarray
    index: np.ndarray

    @property
    def vertex_count(self) -> int:
        return self.table.shape[1]


def _settle_layers(table: np.ndarray, gaps: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """The measured vertices' fill times, shape (depth, n_measured).

    gaps[j, v] is the gap before vertex v's (j + 1)-th arrival and table is
    the padded neighbor table of the same m vertices.  Pass k holds each
    vertex's T_{k+1}: a vertex whose neighbors all reach that layer later
    settles a particle there, fills it at T_{k+1} and adds its next gap for
    T_{k+2}; any other vertex jumps past the layer, never fills it, and
    keeps its time.  The sums are the additions of a cumulative sum down
    each column, made in the same order.
    """
    import numpy as np

    depth, m = gaps.shape
    flat = gaps.ravel()
    passage = np.empty(m + 1)
    passage[m] = np.inf
    t_k = passage[:m]
    t_k[:] = gaps[0]
    used = np.arange(m)
    fill = np.empty((depth, len(measured)))
    for k in range(depth):
        lands = t_k < passage[table].min(axis=0)
        fill[k] = np.where(lands, t_k, np.inf)[measured]
        if k + 1 < depth:
            used += lands * m
            # the next gap where the vertex landed, and 0 where it did not
            t_k += lands * flat[used]
    return fill


def _replica_setup(graph: GraphInstance, config: SimConfig) -> _Cone:
    """The light cone of the vertices that config.measure names on graph."""
    if config.measure == "interior":
        measured = graph.interior
    elif graph.root is None:
        raise ValueError(f"graph {graph.label!r} has no root to measure")
    else:
        measured = (graph.root,)
    m = _light_cone(graph, measured, config.depth)
    return _Cone(measured, *_cone_arrays(graph, m, measured))


def run_replica(
    graph: GraphInstance | _Cone,
    config: SimConfig,
    rng: np.random.Generator | np.random.SeedSequence | int | None,
) -> ReplicaSnapshot:
    """Simulate one arrival realization: the measured vertices' fill times
    of the lowest config.depth layers.

    The measured vertices are graph.interior, or (graph.root,) when
    config.measure is "root"; to measure another set, give the graph that
    interior with dataclasses.replace.  Each vertex of their light cone,
    the first m vertex ids, draws the gaps before its first depth arrivals,
    and _settle_layers settles them one layer at a time (see the module
    docstring).  The draw depends on the cone alone, not on the rest of
    the graph, and the result does not depend on the sample times, which
    snapshot_observables reads.  graph may also be the cone that
    _replica_setup built for config, as estimate_densities sends it.
    """
    rng = _generator(rng)
    cone = graph if isinstance(graph, _Cone) else _replica_setup(graph, config)
    gaps = _arrival_gaps(cone.vertex_count, config.depth, rng)
    return ReplicaSnapshot(cone.measured, _settle_layers(cone.table, gaps, cone.index))


@lru_cache(maxsize=1)
def _windows(layers: tuple[int, ...], patterns: tuple[str, ...]):
    """(occupied, empty) per observable, in observable_names' order: the
    fill-time rows of the layers it needs occupied and of those it needs
    empty.  Cached, so a run builds them once, not once per replica."""
    windows = [((k - 1,), ()) for k in layers]
    for p in patterns:
        bits = list(enumerate(reversed(p)))
        windows.append(
            (tuple(k for k, b in bits if b == "1"), tuple(k for k, b in bits if b == "0"))
        )
    return tuple(windows)


def snapshot_observables(snap: ReplicaSnapshot, config: SimConfig) -> np.ndarray:
    """Per-replica observable means at the sample times, shape
    (n_observables, n_times), in observable_names' order.

    An observable holds at t exactly when its occupied layers are all
    filled by t and its empty ones are not: on the window [start, end),
    where start is the latest fill time of its occupied layers (-inf if it
    has none) and end the earliest of its empty ones (inf if none).  So
    the count holding at t is the count with start <= t less the count
    with max(start, end) <= t, each read from sorted times.  The counts
    are divided by the number of measured vertices once, which gives the
    same floats as the mean of 0/1 values.
    """
    import numpy as np

    fill = snap.fill_times
    n = fill.shape[1]
    times = np.array(config.sample_times)

    def reached(values):
        """How many of values lie at or before each sample time."""
        return np.searchsorted(np.sort(values), times, side="right")

    counts = []
    for occupied, empty in _windows(config.layers, config.patterns):
        if occupied:
            start = reduce(np.maximum, [fill[k] for k in occupied])
        else:
            start = np.full(n, -np.inf)
        held = reached(start)
        if empty:
            end = reduce(np.minimum, [fill[k] for k in empty])
            held = held - reached(np.maximum(start, end))
        counts.append(held)
    return np.array(counts) / n


def _replica_seed(seed: int, replica: int, stream: int) -> np.random.SeedSequence:
    import numpy as np

    return np.random.SeedSequence(seed, spawn_key=(replica, stream))


def _replica_task(args) -> np.ndarray:
    """Replicas lo..hi-1 of a run: their observable means, shape
    (hi - lo, n_observables, n_times)."""
    import numpy as np

    graph, config, lo, hi = args
    stats = []
    for r in range(lo, hi):
        instance = graph
        if isinstance(graph, RandomBallSource):
            instance = graph.build(_replica_seed(config.seed, r, _GRAPH_STREAM))
        snap = run_replica(instance, config, _replica_seed(config.seed, r, _ARRIVAL_STREAM))
        stats.append(snapshot_observables(snap, config))
    return np.stack(stats)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate_densities(
    graph: GraphLike,
    config: SimConfig,
    n_jobs: int = 1,
) -> DensityCurve:
    """Monte Carlo estimate of the configured observables.

    Runs config.replicas independent replicas (independent arrival
    realizations; for a RandomBallSource also a fresh tree per replica),
    averages each observable over the measured vertices within a replica,
    and reports the mean over replicas with the standard error of the
    replica means.  A fixed graph's light cone is built once, and each
    worker is sent that cone in the graph's place; a RandomBallSource is
    built inside each replica, so only the recipe is sent.

    The replicas run in contiguous blocks, one per worker, and the calling
    process runs the first block while a process pool of the other workers
    runs the rest.  The worker count is n_jobs capped at the replica count
    and at the CPUs this process may run on; with one worker no pool
    starts.  Replica r derives its streams from SeedSequence(seed,
    spawn_key=(r, 0)) for the graph draw and spawn_key=(r, 1) for
    arrivals, and the blocks are joined in replica order, so results are
    reproducible and independent of the worker count.
    """
    import numpy as np

    n_jobs = _count(n_jobs, "n_jobs", 1)
    names = observable_names(config)
    reps = config.replicas
    sent = _replica_setup(graph, config) if isinstance(graph, GraphInstance) else graph
    workers = min(n_jobs, reps, _usable_cpus())
    blocks = [
        (sent, config, reps * w // workers, reps * (w + 1) // workers)
        for w in range(workers)
    ]
    if workers == 1:
        stats = _replica_task(blocks[0])
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            rest = pool.map(_replica_task, blocks[1:])
            stats = np.concatenate([_replica_task(blocks[0]), *rest])
    means = stats.mean(axis=0)
    if reps >= 2:
        stderr = stats.std(axis=0, ddof=1) / np.sqrt(reps)
    else:
        stderr = np.full_like(means, np.nan)

    meta = {
        "graph": graph.label,
        "measure": config.measure,
        "replicas": reps,
        "seed": config.seed,
        "horizon": config.horizon,
        "version": __version__,
    }
    series = tuple(
        (
            name,
            tuple(
                SeriesPoint(mean=float(means[i, j]), stderr=float(stderr[i, j]), n=reps)
                for j in range(len(config.sample_times))
            ),
        )
        for i, name in enumerate(names)
    )
    return DensityCurve(times=config.sample_times, series=series, meta=meta)

