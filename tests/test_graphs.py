"""Graph construction: cycles, regular-tree balls, random-tree balls."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from screendep.degree import DegreeDistribution, make_regular
from screendep.graphs import (
    GraphInstance,
    RandomBallSource,
    build_cycle,
    build_random_ball,
    build_regular_ball,
)


TWO_THREE = DegreeDistribution.from_pairs({2: "1/3", 3: "2/3"})


def _edge_count(g: GraphInstance) -> int:
    return sum(len(nb) for nb in g.neighbors) // 2


def _edges_join_adjacent_depths(g: GraphInstance) -> bool:
    return all(abs(g.depth[u] - g.depth[v]) == 1 for v, nb in enumerate(g.neighbors) for u in nb)


def test_cycle_structure():
    g = build_cycle(7)
    assert g.vertex_count == 7
    assert _edge_count(g) == 7
    assert all(len(g.neighbors[v]) == 2 for v in range(7))
    assert g.neighbors[0] == (6, 1)
    assert g.neighbors[3] == (2, 4)
    assert g.interior == tuple(range(7))
    assert g.root is None
    assert g.label == "cycle(n=7)"


def test_cycle_minimum_size():
    # the smallest simple cycle; how large a run needs is simulate's rule
    with pytest.raises(ValueError, match="n must be >= 3"):
        build_cycle(2)
    assert build_cycle(3).neighbors == ((2, 1), (0, 2), (1, 0))


def test_regular_ball_counts():
    # root has d children, internal vertices d - 1, so the ball of radius R
    # has 1 + d * (2^R - 1) vertices when d = 3
    g = build_regular_ball(3, radius=12, buffer=4)
    assert g.vertex_count == 1 + 3 * (2 ** 12 - 1) == 12286
    assert _edge_count(g) == g.vertex_count - 1
    assert len(g.interior) == 1 + 3 * (2 ** 8 - 1) == 766
    assert g.root == 0
    assert g.depth[0] == 0
    assert max(g.depth) == 12
    assert _edges_join_adjacent_depths(g)


def test_regular_ball_degrees():
    g = build_regular_ball(3, radius=4)
    for v in range(g.vertex_count):
        if g.depth[v] == 4:
            assert len(g.neighbors[v]) == 1
        else:
            assert len(g.neighbors[v]) == 3


def test_degree_two_ball_is_a_path():
    g = build_regular_ball(2, radius=5)
    assert g.vertex_count == 11
    degs = Counter(len(g.neighbors[v]) for v in range(11))
    assert degs == {2: 9, 1: 2}


def test_ball_interior_tracks_buffer():
    g = build_regular_ball(2, radius=5, buffer=2)
    assert set(g.interior) == {v for v in range(11) if g.depth[v] <= 3}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d": 1, "radius": 3, "buffer": 0},
        {"d": 3, "radius": 0, "buffer": 0},
        {"d": 3, "radius": 3, "buffer": -1},
        {"d": 3, "radius": 3, "buffer": 3},
        {"d": 3, "radius": 3, "buffer": 0, "reach": 0},
        {"d": 3, "radius": 3, "buffer": 0, "reach": 4},
    ],
)
def test_ball_parameter_validation(kwargs):
    with pytest.raises(ValueError):
        build_regular_ball(**kwargs)


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: build_regular_ball(3, True), True),
        (lambda: build_regular_ball(3, 4.0), 4.0),
        (lambda: build_regular_ball(3, 4, buffer=1.0), 1.0),
        (lambda: build_regular_ball(3, 4, reach=True), True),
        (lambda: RandomBallSource(make_regular(3), True), True),
        (lambda: build_random_ball(make_regular(3), 4.0, rng=0), 4.0),
        (lambda: build_regular_ball(3.0, 4), 3.0),
        (lambda: build_cycle(30.0), 30.0),
        (lambda: build_cycle(True), True),
    ],
    ids=[
        "radius_bool", "radius_float", "buffer_float", "reach_bool", "source_radius_bool",
        "random_radius_float", "degree_float", "cycle_float", "cycle_bool",
    ],
)
def test_sizes_are_ints(build, value):
    # a bool is not a size and a float is not truncated to one: the label
    # would name R=True, and reach=True would grow the ball to depth 1
    with pytest.raises(TypeError, match=f"must be an int, got {value!r}"):
        build()


@pytest.mark.parametrize(
    "d, radius, buffer, reach",
    [(3, 7, 4, 5), (3, 7, 4, 2), (3, 12, 4, 10), (2, 5, 1, 5), (4, 4, 0, 1)],
)
def test_ball_grown_to_a_reach_is_a_prefix_of_the_whole_ball(d, radius, buffer, reach):
    # the levels down to `reach`, numbered as in the whole ball, under the
    # whole ball's label; the interior is the whole ball's wherever the
    # reach covers it, the root's cone (reach < radius - buffer) otherwise
    whole = build_regular_ball(d, radius, buffer)
    grown = build_regular_ball(d, radius, buffer, reach=reach)
    n = grown.vertex_count
    assert n == sum(dep <= reach for dep in whole.depth)
    assert grown.label == whole.label
    assert grown.root == whole.root == 0
    assert grown.depth == whole.depth[:n]
    assert max(grown.depth) == reach
    assert grown.interior == tuple(v for v in whole.interior if v < n)
    assert (grown.interior == whole.interior) == (reach >= radius - buffer)
    assert grown.neighbors == tuple(tuple(u for u in nb if u < n) for nb in whole.neighbors[:n])
    assert build_regular_ball(d, radius, buffer, reach=radius) == whole


def test_graph_instance_validation():
    with pytest.raises(ValueError):
        GraphInstance(neighbors=((1,), (0,)), interior=())
    with pytest.raises(ValueError):
        GraphInstance(neighbors=((1,), (0,)), interior=(5,))
    with pytest.raises(ValueError):
        GraphInstance(neighbors=((1,), (0,)), interior=(0,), root=9)


PATH3 = ((1,), (0, 2), (1,))


@pytest.mark.parametrize(
    "neighbors, root, message",
    [
        (((1,), (0,), ()), 0, "vertex 2 is not reached from root 0"),
        (((1, 3), (0, 2), (1,), (0,)), 0, "vertex 3 follows a deeper one"),
        (((1,), (0,)), 1, "vertex 0 is not reached from root 1"),
        (((1,), (0, -1)), 0, "neighbor must be >= 0, got -1"),
        (((1,), (0, 2)), 0, "neighbor must be < 2, got 2"),
        (((0, 1), (0,)), None, "vertex 0 lists itself as a neighbor"),
        (((0, 1), (0,)), 0, "vertex 0 lists itself as a neighbor"),
        (((1,), ()), None, "vertex 0 lists 1 as a neighbor, but 1 does not list 0"),
        (((1,), ()), 0, "vertex 0 lists 1 as a neighbor, but 1 does not list 0"),
    ],
    ids=[
        "unreachable", "breadth_first", "root_at_depth_0", "rooted_neighbor_negative",
        "rooted_neighbor_past_n", "self_loop", "rooted_self_loop", "one_sided_edge",
        "rooted_one_sided_edge",
    ],
)
def test_depth_is_validated(neighbors, root, message):
    # the depth is derived from the root and the edges, and the simulator
    # reads a light cone as a prefix of the ids, which holds only for a
    # connected graph numbered breadth-first from its root; every graph
    # lists each edge at both ends and no vertex as its own neighbor
    with pytest.raises(ValueError, match=message):
        GraphInstance(neighbors=neighbors, interior=(0,), root=root)
    assert GraphInstance(neighbors=PATH3, interior=(0,), root=0).depth == (0, 1, 2)
    assert GraphInstance(neighbors=PATH3, interior=(0,)).depth is None
    with pytest.raises(TypeError, match="depth"):
        GraphInstance(neighbors=PATH3, interior=(0,), root=0, depth=(0, 1, 2))


def _grown_levels(g: GraphInstance) -> tuple[int, ...]:
    """The level at which the ball grower created each vertex: it lists a
    vertex's parent first, one level up."""
    levels = [0]
    for nb in g.neighbors[1:]:
        levels.append(levels[nb[0]] + 1)
    return tuple(levels)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_regular_ball(3, 7, 4),
        lambda: build_regular_ball(3, 7, 4, reach=5),
        lambda: build_regular_ball(2, 5, 1, reach=2),
        lambda: build_random_ball(TWO_THREE, 8, 2, rng=1),
        lambda: build_random_ball(make_regular(4), 3, rng=0),
    ],
    ids=["regular", "regular_reach", "path_reach", "random", "random_point_mass"],
)
def test_ball_depth_is_the_level_it_was_grown_at(build):
    g = build()
    assert g.depth == _grown_levels(g)
    assert build_cycle(5).depth is None


@pytest.mark.parametrize(
    "change, error",
    [
        ({"interior": (3.5,)}, TypeError),
        ({"interior": (True,)}, TypeError),
        ({"root": 2}, ValueError),
        ({"neighbors": ((1,), (7,))}, ValueError),
        ({"neighbors": ((1,), (-1,))}, ValueError),
    ],
    ids=["interior_float", "interior_bool", "root_past_n", "neighbor_past_n", "neighbor_negative"],
)
def test_vertex_ids_are_ints_in_range(change, error):
    # a float or bool id is not read as a vertex, and a neighbor id outside
    # the graph does not become the simulator's never-reaching sentinel
    pair = GraphInstance(neighbors=((1,), (0,)), interior=(0, 1))
    with pytest.raises(error):
        replace(pair, **change)


def _outcome(neighbors, root):
    """The error a graph on these rows raises, or the types and the values
    of the neighbor ids it stores."""
    try:
        g = GraphInstance(neighbors=neighbors, interior=(0,), root=root)
    except (TypeError, ValueError) as error:
        return type(error), str(error)
    return tuple(tuple(map(type, nb)) for nb in g.neighbors), g.neighbors


@pytest.mark.parametrize(
    "x",
    [True, 1.0, 1.5, "0", -1, 2, np.int64(0), np.int64(1)],
    ids=["bool", "float_1", "float_1.5", "str", "negative", "past_n", "numpy_0", "numpy_1"],
)
@pytest.mark.parametrize("row", [0, 1], ids=["first_row", "second_row"])
def test_rooted_and_rootless_graphs_read_neighbor_ids_alike(x, row):
    # a rooted graph checks its neighbor ids in the pass that derives its
    # depths; an id that is not an int gets the same error as in a rootless
    # graph, and a numpy int is stored as an int
    neighbors = ((x,), (0,)) if row == 0 else ((1,), (x,))
    rootless, rooted = _outcome(neighbors, None), _outcome(neighbors, 0)
    assert rooted == rootless
    assert rooted[0] in (TypeError, ValueError, ((int,), (int,)))


def test_random_ball_is_a_tree_with_drawn_degrees():
    g = build_random_ball(TWO_THREE, radius=8, buffer=2, rng=1)
    assert _edge_count(g) == g.vertex_count - 1
    assert _edges_join_adjacent_depths(g)
    assert g.root == 0
    assert max(g.depth) <= 8
    for v in range(g.vertex_count):
        if g.depth[v] == 8:
            assert len(g.neighbors[v]) == 1
        elif v != 0:
            # internal vertex: one parent plus D - 1 children
            assert len(g.neighbors[v]) in {d for d, _ in TWO_THREE.atoms}


def test_random_ball_determinism():
    a = build_random_ball(TWO_THREE, radius=6, buffer=1, rng=42)
    b = build_random_ball(TWO_THREE, radius=6, buffer=1, rng=42)
    c = build_random_ball(TWO_THREE, radius=6, buffer=1, rng=43)
    assert a.neighbors == b.neighbors
    assert a.depth == b.depth
    assert c.neighbors != a.neighbors


def test_random_ball_degree_law():
    # degrees of non-leaf vertices are iid draws from the distribution;
    # chi-square with 1 dof over ~40 fixed-seed trees
    counts = Counter()
    for seed in range(40):
        g = build_random_ball(TWO_THREE, radius=9, rng=seed)
        for v in range(g.vertex_count):
            if g.depth[v] < 9:
                counts[len(g.neighbors[v])] += 1
    total = sum(counts.values())
    assert total > 2000
    chi2 = sum(
        (counts[d] - total * float(w)) ** 2 / (total * float(w))
        for d, w in TWO_THREE.atoms
    )
    assert chi2 < 11.0, (chi2, counts)


def test_point_mass_random_ball_matches_regular():
    g = build_random_ball(make_regular(3), radius=5, buffer=1, rng=0)
    h = build_regular_ball(3, radius=5, buffer=1)
    assert g.neighbors == h.neighbors
    assert g.interior == h.interior


def test_random_ball_source():
    src = RandomBallSource(TWO_THREE, radius=6, buffer=2)
    assert src.label == "random_ball(2:1/3,3:2/3,R=6,B=2)"
    a = src.build(rng=7)
    b = build_random_ball(TWO_THREE, radius=6, buffer=2, rng=7)
    assert a.neighbors == b.neighbors
    with pytest.raises(ValueError):
        RandomBallSource(TWO_THREE, radius=2, buffer=2)
