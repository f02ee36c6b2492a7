"""Event-driven simulation of screened multilayer deposition.

Each vertex of a finite graph receives particles at unit rate.  A particle
arriving at v settles at height 1 + max over the closed neighborhood of v
of the current top height, i.e. it is blocked by the tallest stack it can
see, including v's own.  The simulator realizes the arrival process
exactly: the number of arrivals on [0, horizon] is Poisson(n * horizon),
arrival times are iid uniform, and sites are iid uniform over vertices.

Per vertex we track the top height, exact below the deepest layer an
observable reads, and a bitmask of the occupied layers up to that layer
(bit h - 1 set iff some particle sits at height h).  Pattern observables
are binary words over a window of the lowest layers, written top layer
first: "0101" means layer 4 empty, layer 3 occupied, layer 2 empty,
layer 1 occupied.

The lowest L layers at a vertex are decided by the arrivals within
distance L of it (its light cone).  On a ball, whose vertices are numbered
breadth-first, the light cones of the measured vertices lie in a prefix of
the vertex ids; the arrival stream is drawn over every vertex and then
only the arrivals in that prefix are settled, so the outputs are exactly
those of settling them all.

Within the light cone the kernel also skips every arrival at a saturated
vertex, one whose stack already reaches the deepest tracked layer.  Each
settlement raises a top by at least one, so such an arrival settles above
that layer; and a neighbor that sees it already sees a stack at that
layer, so it settles above the layer either way.  The tops truncated at
the tracked depth therefore follow the same path with or without these
arrivals, and so do the masks.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._version import __version__
from .curves import DensityCurve, SeriesPoint
from .graphs import GraphInstance, RandomBallSource

GraphLike = Union[GraphInstance, RandomBallSource]

_GRAPH_STREAM = 0
_ARRIVAL_STREAM = 1

MAX_TRACKED_LAYERS = 32


def _normalize_pattern(p) -> str:
    if isinstance(p, str):
        word = p
    else:
        word = "".join(str(int(b)) for b in p)
    if not word or any(ch not in "01" for ch in word):
        raise ValueError(f"pattern must be a nonempty binary word, got {p!r}")
    return word


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for a deposition estimate.

    sample_times must be strictly increasing and lie in (0, horizon].
    layers lists the single-layer densities to report; patterns are
    top-down binary words over the lowest len(pattern) layers.  measure
    selects which vertices are averaged: the interior set or the root
    alone (tree-averaged observables on random balls use the root).
    """

    horizon: float
    sample_times: tuple[float, ...]
    replicas: int = 100
    seed: int = 0
    layers: tuple[int, ...] = (1, 2)
    patterns: tuple[str, ...] = ()
    measure: str = "interior"

    def __post_init__(self):
        object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
        if not all(_is_integer(k) for k in self.layers):
            raise ValueError(f"layers must be integers, got {self.layers!r}")
        object.__setattr__(self, "layers", tuple(int(k) for k in self.layers))
        object.__setattr__(
            self, "patterns", tuple(_normalize_pattern(p) for p in self.patterns)
        )
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not self.sample_times:
            raise ValueError("at least one sample time is required")
        if not all(math.isfinite(t) and t > 0 for t in self.sample_times):
            raise ValueError(f"sample times must be positive and finite: {self.sample_times}")
        if any(b >= a for a, b in zip(self.sample_times[1:], self.sample_times)):
            raise ValueError(f"sample times must be strictly increasing: {self.sample_times}")
        if self.sample_times[-1] > self.horizon:
            raise ValueError(
                f"last sample time {self.sample_times[-1]} exceeds horizon {self.horizon}"
            )
        if not (_is_integer(self.replicas) and self.replicas >= 1):
            raise ValueError(f"replicas must be an integer >= 1, got {self.replicas!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.layers and not self.patterns:
            raise ValueError("nothing to observe: layers and patterns are both empty")
        if any(k < 1 for k in self.layers):
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.depth > MAX_TRACKED_LAYERS:
            raise ValueError(f"observables read layer {self.depth} > {MAX_TRACKED_LAYERS}")
        if self.measure not in ("interior", "root"):
            raise ValueError(f"measure must be 'interior' or 'root', got {self.measure!r}")

    @property
    def depth(self) -> int:
        """The number of tracked layers: the deepest one an observable reads."""
        return max((*self.layers, *(len(p) for p in self.patterns)))


@dataclass(frozen=True)
class ReplicaSnapshot:
    """Per-vertex mask snapshots at the sample times."""

    sample_times: tuple[float, ...]
    measured: tuple[int, ...]
    masks: np.ndarray


def observable_names(config: SimConfig) -> tuple[str, ...]:
    """Observable column labels: layer densities then pattern frequencies."""
    return tuple(f"layer:{k}" for k in config.layers) + tuple(
        f"pattern:{p}" for p in config.patterns
    )


def _measured_vertices(graph: GraphInstance, config: SimConfig) -> tuple[int, ...]:
    if config.measure == "root":
        if graph.root is None:
            raise ValueError(f"graph {graph.label!r} has no root to measure")
        return (graph.root,)
    return graph.interior


def _light_cone(graph: GraphInstance, measured: tuple[int, ...], depth: int) -> int:
    """How many leading vertex ids hold every arrival that can reach the
    lowest `depth` layers of a measured vertex: all of them on a graph
    without depths.

    A vertex within distance `depth` of v lies at most `depth` levels below
    v, and breadth-first numbering puts every vertex down to that level first.
    """
    if graph.depth is None:
        return graph.vertex_count
    reach = max((graph.depth[v] for v in measured), default=0) + depth
    return bisect_right(graph.depth, reach)


def _arrival_stream(
    n: int, config: SimConfig, rng: np.random.Generator, cone: int | None = None
) -> tuple[list, list]:
    """Arrival sites on n vertices in time order, and per sample time the
    number of arrivals at or before it.

    The stream is drawn over all n vertices; with cone < n only the arrivals
    at sites below cone are returned, and the counts are of those.
    """
    n_events = rng.poisson(n * config.horizon)
    times = np.sort(rng.random(n_events)) * config.horizon
    sites = rng.integers(0, n, size=n_events)
    bounds = np.searchsorted(times, np.asarray(config.sample_times), side="right")
    if cone is not None and cone < n:
        inside = sites < cone
        bounds = np.concatenate(([0], np.cumsum(inside)))[bounds]
        sites = sites[inside]
    return sites.tolist(), bounds.tolist()


def _settle(neighbors, sites: list, bounds: list, measured, depth: int) -> list[list[int]]:
    """Settle the arrivals in order; the measured masks after each bound.

    A particle arriving at v settles one above the tallest stack in v's
    closed neighborhood.  Masks keep layers 1..depth only.

    An arrival at a vertex whose top is already at depth or above is
    skipped: it would settle above depth and set no mask bit, and every
    neighbor that reads this top already lands above depth.  So tops are
    exact below depth, a top >= depth only means "saturated", and the
    masks are those of settling every arrival.
    """
    tops = [0] * len(neighbors)
    masks = [0] * len(neighbors)
    rows = []
    prev = 0
    for bound in bounds:
        for v in sites[prev:bound]:
            h = tops[v]
            if h >= depth:
                continue
            for u in neighbors[v]:
                tu = tops[u]
                if tu > h:
                    h = tu
            h += 1
            tops[v] = h
            if h <= depth:
                masks[v] |= 1 << (h - 1)
        prev = bound
        rows.append([masks[v] for v in measured])
    return rows


def run_replica(
    graph: GraphInstance,
    config: SimConfig,
    rng: np.random.Generator | np.random.SeedSequence | int | None,
    *,
    measured: Sequence[int] | None = None,
) -> ReplicaSnapshot:
    """Simulate one arrival realization and snapshot it at the sample times.

    The lowest depth layers at a vertex are decided by the arrivals within
    distance depth of it.  On a ball only the arrivals in the measured
    vertices' light cone are settled; the stream is drawn over every vertex
    all the same, so the masks equal those of settling every arrival.  A
    cycle must have at least 2 * depth + 1 vertices: on a smaller one that
    neighborhood wraps around onto itself.
    """
    depth = config.depth
    if graph.kind == "cycle" and graph.vertex_count < 2 * depth + 1:
        raise ValueError(
            f"{graph.label} is too small for layer {depth}: needs n >= {2 * depth + 1}"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if measured is None:
        measured = _measured_vertices(graph, config)
    measured = tuple(measured)
    cone = _light_cone(graph, measured, depth)
    sites, bounds = _arrival_stream(graph.vertex_count, config, rng, cone)
    masks = _settle(graph.neighbors, sites, bounds, measured, depth)
    return ReplicaSnapshot(
        sample_times=config.sample_times,
        measured=measured,
        masks=np.array(masks, dtype=np.int64),
    )


def snapshot_observables(snap: ReplicaSnapshot, config: SimConfig) -> np.ndarray:
    """Per-replica observable means, shape (n_observables, n_times)."""
    n_times = len(snap.sample_times)
    names_count = len(config.layers) + len(config.patterns)
    out = np.empty((names_count, n_times), dtype=np.float64)
    row = 0
    for k in config.layers:
        out[row] = ((snap.masks >> (k - 1)) & 1).mean(axis=1)
        row += 1
    for p in config.patterns:
        width = len(p)
        value = int(p, 2)
        window = (1 << width) - 1
        out[row] = ((snap.masks & window) == value).mean(axis=1)
        row += 1
    return out


def _replica_seed(seed: int, replica: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(replica, stream))


def _resolve_graph(graph: GraphLike, seed: int, replica: int) -> GraphInstance:
    if isinstance(graph, RandomBallSource):
        return graph.build(_replica_seed(seed, replica, _GRAPH_STREAM))
    return graph


def _replica_task(args) -> np.ndarray:
    graph, config, replica = args
    instance = _resolve_graph(graph, config.seed, replica)
    snap = run_replica(
        instance, config, _replica_seed(config.seed, replica, _ARRIVAL_STREAM)
    )
    return snapshot_observables(snap, config)


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
    replica means.  Replica r derives its streams from
    SeedSequence(seed, spawn_key=(r, 0)) for the graph draw and
    spawn_key=(r, 1) for arrivals, so results are reproducible and
    independent of scheduling; the reduction order over replicas is fixed.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    names = observable_names(config)
    reps = config.replicas
    tasks = [(graph, config, r) for r in range(reps)]
    stats = np.empty((reps, len(names), len(config.sample_times)), dtype=np.float64)
    if n_jobs == 1 or reps == 1:
        for r, task in enumerate(tasks):
            stats[r] = _replica_task(task)
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            chunk = max(1, reps // (4 * n_jobs))
            for r, result in enumerate(pool.map(_replica_task, tasks, chunksize=chunk)):
                stats[r] = result
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

