"""Graph construction: cycles, regular-tree balls, random-tree balls."""

from __future__ import annotations

from collections import Counter

import pytest

from screendep.degree import DegreeDistribution, make_regular
from screendep.graphs import (
    GraphInstance,
    RandomBallSource,
    build_cycle,
    build_random_ball,
    build_regular_ball,
)


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
    with pytest.raises(ValueError):
        build_cycle(4)


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
    ],
)
def test_ball_parameter_validation(kwargs):
    with pytest.raises(ValueError):
        build_regular_ball(**kwargs)


def test_graph_instance_validation():
    with pytest.raises(ValueError):
        GraphInstance(kind="x", neighbors=((1,), (0,)), interior=())
    with pytest.raises(ValueError):
        GraphInstance(kind="x", neighbors=((1,), (0,)), interior=(5,))
    with pytest.raises(ValueError):
        GraphInstance(kind="x", neighbors=((1,), (0,)), interior=(0,), root=9)


PATH3 = ((1,), (0, 2), (1,))


@pytest.mark.parametrize(
    "neighbors, root, depth, message",
    [
        (((1,), (0,)), 0, (5,), "1 entries for 2 vertices"),
        (PATH3, None, (0, 1, 2), "needs a root"),
        (PATH3, 1, (0, 1, 2), "root 1 has depth 1"),
        (PATH3, 0, (0, 2, 1), "nondecreasing"),
        (((1, 2), (0,), (0,)), 0, (0, 1, 2), "vertex 2 at depth 2 neighbors a vertex at depth 0"),
    ],
    ids=[
        "one_entry_per_vertex", "root_required", "root_at_depth_0", "breadth_first",
        "neighbors_one_level_apart",
    ],
)
def test_depth_is_validated(neighbors, root, depth, message):
    # the simulator reads a light cone as a prefix of the vertex ids, which
    # holds only for distances from a root numbered breadth-first
    with pytest.raises(ValueError, match=message):
        GraphInstance(kind="x", neighbors=neighbors, interior=(0,), root=root, depth=depth)
    assert GraphInstance(kind="x", neighbors=PATH3, interior=(0,), root=0, depth=(0, 1, 2))


TWO_THREE = DegreeDistribution.from_pairs({2: "1/3", 3: "2/3"})


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
