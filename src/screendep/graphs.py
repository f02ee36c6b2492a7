"""Finite graph instances for the deposition simulator.

Three families: cycles (the periodic stand-in for the doubly infinite
line), radius-R balls of d-regular trees, and radius-R balls of random
trees whose vertex degrees are drawn from a DegreeDistribution.  Balls
carry a root, per-vertex depths and an interior set (depth <= R - buffer)
so measurements can stay away from the leaf boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .degree import DegreeDistribution


@dataclass(frozen=True)
class GraphInstance:
    """Immutable adjacency view of one finite graph.

    neighbors[v] lists the neighbors of vertex v.  root and depth are None
    for graphs without a distinguished center (cycles).  depth[v] is the
    distance from the root, with vertices numbered breadth-first: the root
    is at depth 0, depths never decrease with the id, and no neighbor of a
    vertex is more than one level deeper.  The simulator relies on this to
    find a light cone as a prefix of ids, so all three are checked.
    interior holds the vertex ids on which observables are averaged.
    """

    kind: str
    neighbors: tuple[tuple[int, ...], ...]
    interior: tuple[int, ...]
    root: int | None = None
    depth: tuple[int, ...] | None = None
    label: str = ""

    def __post_init__(self):
        n = len(self.neighbors)
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        if not self.interior:
            raise ValueError("interior vertex set is empty")
        for v in self.interior:
            if not 0 <= v < n:
                raise ValueError(f"interior vertex {v} out of range")
        if self.root is not None and not 0 <= self.root < n:
            raise ValueError(f"root {self.root} out of range")
        depth = self.depth
        if depth is None:
            return
        if len(depth) != n:
            raise ValueError(f"depth has {len(depth)} entries for {n} vertices")
        if self.root is None:
            raise ValueError("depth needs a root")
        if depth[self.root] != 0:
            raise ValueError(f"root {self.root} has depth {depth[self.root]}, not 0")
        if list(depth) != sorted(depth):
            raise ValueError("depth must be nondecreasing: vertices are numbered breadth-first")
        for dv, nb in zip(depth, self.neighbors):
            for u in nb:
                if depth[u] > dv + 1:
                    raise ValueError(
                        f"vertex {u} at depth {depth[u]} neighbors a vertex at depth {dv}"
                    )

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)


def build_cycle(n: int) -> GraphInstance:
    """Cycle on n >= 5 vertices; every vertex is interior."""
    if n < 5:
        raise ValueError(f"cycle needs n >= 5, got {n}")
    neighbors = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    return GraphInstance(
        kind="cycle",
        neighbors=neighbors,
        interior=tuple(range(n)),
        label=f"cycle(n={n})",
    )


def _ball_label(kind: str, params: str, radius: int, buffer: int) -> str:
    """The label of a ball, after checking that it leaves an interior."""
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if buffer < 0:
        raise ValueError(f"buffer must be >= 0, got {buffer}")
    if buffer >= radius:
        raise ValueError(
            f"buffer {buffer} must be < radius {radius} to leave an interior"
        )
    return f"{kind}({params},R={radius},B={buffer})"


def _grow_ball(
    kind: str, params: str, radius: int, buffer: int, child_count: Callable[[int], int]
) -> GraphInstance:
    """Grow a tree breadth-first from root 0, asking child_count(v) once per
    vertex above depth `radius` in the order vertices are numbered."""
    label = _ball_label(kind, params, radius, buffer)
    adj: list[list[int]] = [[]]
    depth = [0]
    frontier = [0]
    for dep in range(radius):
        next_frontier = []
        for v in frontier:
            for _ in range(child_count(v)):
                w = len(adj)
                adj.append([v])
                adj[v].append(w)
                depth.append(dep + 1)
                next_frontier.append(w)
        frontier = next_frontier
    cut = radius - buffer
    return GraphInstance(
        kind=kind,
        neighbors=tuple(tuple(nb) for nb in adj),
        interior=tuple(v for v, dep in enumerate(depth) if dep <= cut),
        root=0,
        depth=tuple(depth),
        label=label,
    )


def build_regular_ball(d: int, radius: int, buffer: int = 0) -> GraphInstance:
    """Ball of radius `radius` in the d-regular tree, rooted at vertex 0.

    The root has d children and every internal vertex d - 1; vertices at
    depth `radius` are leaves.  Interior = depth <= radius - buffer.
    """
    if d < 2:
        raise ValueError(f"regular tree needs d >= 2, got {d}")
    return _grow_ball(
        "regular_ball", f"d={d}", radius, buffer, lambda v: d if v == 0 else d - 1
    )


def build_random_ball(
    dist: DegreeDistribution,
    radius: int,
    buffer: int = 0,
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
) -> GraphInstance:
    """Ball of radius `radius` of a random tree, rooted at vertex 0.

    The root's child count is drawn from dist; every other vertex above
    depth `radius` draws its degree D from dist independently and gets
    D - 1 children.  Vertices are numbered in breadth-first order and
    degrees are drawn in that order, so the instance is a deterministic
    function of the seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    degs = [d for d, _ in dist.atoms]
    cum = list(accumulate(float(w) for _, w in dist.atoms))
    cum[-1] = 1.0

    def child_count(v: int) -> int:
        degree = degs[bisect_left(cum, rng.random())]
        return degree if v == 0 else degree - 1

    return _grow_ball("random_ball", dist.label(), radius, buffer, child_count)


@dataclass(frozen=True)
class RandomBallSource:
    """Recipe for drawing a fresh random-tree ball per replica.

    The simulator resolves this into one GraphInstance per replica from
    the replica's graph seed stream, which is what tree-averaged (annealed)
    observables require.
    """

    dist: DegreeDistribution
    radius: int
    buffer: int = 0

    def __post_init__(self):
        self.label  # raises on a ball without an interior

    def build(self, rng: np.random.Generator | np.random.SeedSequence | int | None) -> GraphInstance:
        return build_random_ball(self.dist, self.radius, self.buffer, rng)

    @property
    def label(self) -> str:
        return _ball_label("random_ball", self.dist.label(), self.radius, self.buffer)
