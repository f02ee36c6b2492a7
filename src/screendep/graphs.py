"""Finite graph instances for the deposition simulator.

Three families: cycles (the periodic stand-in for the doubly infinite
line), radius-R balls of d-regular trees, and radius-R balls of random
trees whose vertex degrees are drawn from a DegreeDistribution.  Balls
carry a root, from which their depths derive, and an interior set (depth
<= R - buffer) so measurements can stay away from the leaf boundary.
Every size, vertex id and integer seed is an int by exppoly._count.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
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


def _depths(neighbors: tuple[tuple[int, ...], ...], root: int | None) -> tuple[int, ...] | None:
    """Each vertex's distance from root, None without one, in one pass over
    the ids that also checks the edge rule: each vertex is reached from an
    earlier one and depth never decreases with the id, so the ids are in
    breadth-first order.  Without a root every vertex counts as reached.
    The pass takes each neighbor id for an int in 0..n-1 and raises a
    ValueError at the first that is not, which GraphInstance then names by
    applying the one integer rule to every id."""
    n = len(neighbors)
    depth = [-1] * n if root is not None else [0] * n
    depth[root or 0] = 0
    for v, nb in enumerate(neighbors):
        below = depth[v] + 1
        if not below:
            raise ValueError(f"vertex {v} is not reached from root {root} by the ids before it")
        for u in nb:
            if type(u) is not int or not 0 <= u < n or u == v or v not in neighbors[u]:
                raise ValueError(
                    f"vertex {v} lists itself as a neighbor" if u == v
                    else f"vertex {v} lists {u} as a neighbor, but {u} does not list {v}")
            if depth[u] < 0:
                depth[u] = below
    if depth != sorted(depth):
        v = next(v for v in range(1, n) if depth[v] < depth[v - 1])
        raise ValueError(f"vertex {v} follows a deeper one: number the ids breadth-first")
    return tuple(depth) if root is not None else None


@dataclass(frozen=True)
class GraphInstance:
    """Immutable adjacency view of one finite graph.

    Given: neighbors[v] lists the neighbors of vertex v, each edge at both
    ends and none from a vertex to itself; interior holds the vertex ids
    on which observables are averaged; root is a ball's center, None for
    graphs without one (cycles).  Every id is an int in 0..n-1 by the one
    integer rule.
    Derived: depth[v] is the distance from the root, None without one.  A
    rooted graph is connected and numbered breadth-first from its root, so
    depth never decreases with the id and a light cone is a prefix of ids.
    """

    neighbors: tuple[tuple[int, ...], ...]
    interior: tuple[int, ...]
    root: int | None = None
    label: str = ""
    depth: tuple[int, ...] | None = field(init=False, default=None)

    def __post_init__(self):
        n = len(self.neighbors)
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        if not self.interior:
            raise ValueError("interior vertex set is empty")
        object.__setattr__(self, "interior", _vertex_ids(self.interior, n, "interior vertex"))
        if self.root is not None:
            object.__setattr__(self, "root", _vertex_ids((self.root,), n, "root")[0])
        try:  # the rows are kept as given when every id is an int
            depth = _depths(self.neighbors, self.root)
        except ValueError:  # apply the one integer rule to every id and pass again
            ids = iter(_vertex_ids(chain.from_iterable(self.neighbors), n, "neighbor"))
            rows = tuple(tuple(islice(ids, len(nb))) for nb in self.neighbors)
            object.__setattr__(self, "neighbors", rows)
            depth = _depths(rows, self.root)
        object.__setattr__(self, "depth", depth)

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)


def build_cycle(n: int) -> GraphInstance:
    """Cycle on n >= 3 vertices, the smallest simple cycle; every vertex
    is interior.  How large a cycle a run needs depends on the layers it
    reads, so simulate checks that (n >= 2L + 1)."""
    n = _count(n, "n", 3)
    neighbors = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    return GraphInstance(neighbors=neighbors, interior=tuple(range(n)), label=f"cycle(n={n})")


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
    sizes = [0, 1]  # sizes[r + 1]: how many vertices lie at depth <= r
    for _ in range(reach):
        for v in range(sizes[-2], sizes[-1]):
            for _ in range(child_count(v)):
                adj[v].append(len(adj))
                adj.append([v])
        sizes.append(len(adj))
    return GraphInstance(
        neighbors=tuple(tuple(nb) for nb in adj),
        interior=tuple(range(sizes[min(radius - buffer, reach) + 1])),
        root=0,
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
    no arrival beyond it, so the fill times are those of the whole ball.
    The label still names the ball of radius `radius`.  Interior = depth
    <= radius - buffer among the vertices built.
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
