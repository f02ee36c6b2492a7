"""Finite graph instances for the deposition simulator.

Three families: cycles (the periodic stand-in for the doubly infinite
line), radius-R balls of d-regular trees, and radius-R balls of random
trees whose vertex degrees are drawn from a DegreeDistribution.  Balls
carry a root, per-vertex depths and an interior set (depth <= R - buffer)
so measurements can stay away from the leaf boundary.  Every size, vertex
id and integer seed is an int by exppoly._count, the one integer rule.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import TYPE_CHECKING, Callable

from .degree import DegreeDistribution
from .exppoly import _count

if TYPE_CHECKING:
    import numpy as np


def _generator(rng) -> np.random.Generator:
    """rng as a numpy Generator; an integer seed is checked as one first."""
    import numpy as np

    if rng is None or isinstance(rng, (np.random.Generator, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    return np.random.default_rng(_count(rng, "rng"))


def _vertex_ids(ids, n: int, what: str) -> tuple[int, ...]:
    """ids as a tuple of ints in 0..n-1, each by the one integer rule."""
    ids = tuple(map(_count, ids, repeat(what)))
    if max(ids, default=-1) >= n:
        raise ValueError(f"{what} must be < {n}, got {max(ids)}")
    return ids


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
    interior, root and each neighbor id of a graph without depth are ints
    in 0..n-1; a ball's neighbor ids, built per replica, meet the depth rule.
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
        object.__setattr__(self, "interior", _vertex_ids(self.interior, n, "interior vertex"))
        if self.root is not None:
            object.__setattr__(self, "root", _vertex_ids((self.root,), n, "root")[0])
        depth = self.depth
        if depth is None:
            ids = iter(_vertex_ids(chain.from_iterable(self.neighbors), n, "neighbor"))
            rows = tuple(tuple(islice(ids, len(nb))) for nb in self.neighbors)
            object.__setattr__(self, "neighbors", rows)
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
    """Cycle on n >= 3 vertices, the smallest simple cycle; every vertex
    is interior.  How large a cycle a run needs depends on the layers it
    reads, so run_replica checks that (n >= 2L + 1)."""
    n = _count(n, "n", 3)
    neighbors = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    return GraphInstance(
        kind="cycle",
        neighbors=neighbors,
        interior=tuple(range(n)),
        label=f"cycle(n={n})",
    )


def _ball_label(kind: str, params: str, radius: int, buffer: int) -> str:
    """The label of a ball, after checking that radius and buffer are ints
    and leave an interior."""
    radius, buffer = _count(radius, "radius", 1), _count(buffer, "buffer")
    if buffer >= radius:
        raise ValueError(
            f"buffer {buffer} must be < radius {radius} to leave an interior"
        )
    return f"{kind}({params},R={radius},B={buffer})"


def _grow_ball(
    kind: str,
    params: str,
    radius: int,
    buffer: int,
    child_count: Callable[[int], int],
    reach: int,
) -> GraphInstance:
    """Grow a tree breadth-first from root 0 down to depth `reach`, asking
    child_count(v) once per vertex above that depth in the order vertices
    are numbered.  The label names the ball of radius `radius`, of which
    this is the prefix of depth <= reach."""
    label = _ball_label(kind, params, radius, buffer)
    if _count(reach, "reach", 1) > radius:
        raise ValueError(f"reach must be <= radius {radius}, got {reach}")
    adj: list[list[int]] = [[]]
    depth = [0]
    frontier = [0]
    for dep in range(reach):
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


def build_regular_ball(
    d: int, radius: int, buffer: int = 0, *, reach: int | None = None
) -> GraphInstance:
    """Ball of radius `radius` in the d-regular tree, rooted at vertex 0.

    The root has d children and every internal vertex d - 1; vertices at
    depth `reach` (default `radius`) are leaves.  A smaller reach builds
    only the vertices of depth <= reach.  At SimConfig.reach that is the
    part of the ball the measured light cones read: the simulator draws
    no arrival beyond it, so the masks are those of the whole ball.  The
    label still names the ball of radius `radius`.  Interior = depth <=
    radius - buffer among the vertices built.
    """
    d = _count(d, "d", 2)
    return _grow_ball(
        "regular_ball",
        f"d={d}",
        radius,
        buffer,
        lambda v: d if v == 0 else d - 1,
        radius if reach is None else reach,
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
    rng = _generator(rng)
    degs = [d for d, _ in dist.atoms]
    cum = list(accumulate(float(w) for _, w in dist.atoms))
    cum[-1] = 1.0

    def child_count(v: int) -> int:
        degree = degs[bisect_left(cum, rng.random())]
        return degree if v == 0 else degree - 1

    return _grow_ball("random_ball", dist.label(), radius, buffer, child_count, radius)


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
        object.__setattr__(self, "radius", _count(self.radius, "radius", 1))
        object.__setattr__(self, "buffer", _count(self.buffer, "buffer"))
        self.label  # raises on a ball without an interior

    def build(self, rng: np.random.Generator | np.random.SeedSequence | int | None) -> GraphInstance:
        return build_random_ball(self.dist, self.radius, self.buffer, rng)

    @property
    def label(self) -> str:
        return _ball_label("random_ball", self.dist.label(), self.radius, self.buffer)
