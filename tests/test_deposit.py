"""Deposition simulator: configuration, settlement against a reference replay, estimates."""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screendep import deposit
from screendep.degree import DegreeDistribution
from screendep.deposit import (
    SimConfig,
    _arrival_gaps,
    _cone_arrays,
    _light_cone,
    _settle_layers,
    estimate_densities,
    observable_names,
    run_replica,
    snapshot_observables,
)
from screendep.graphs import (
    GraphInstance,
    RandomBallSource,
    build_cycle,
    build_random_ball,
    build_regular_ball,
)

from oracles import mask_observables, masks_at, replay

TWO_THREE = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
WIDE = DegreeDistribution.from_pairs({2: "1/2", 3: "1/4", 5: "1/4"})


def _arrivals(m, depth, seed):
    """The first depth arrival times at each of m vertices that a replica
    seeded with seed draws: the cumulative sums of its gaps."""
    return _arrival_gaps(m, depth, np.random.default_rng(seed)).cumsum(axis=0)


def _by(fill_times, horizon):
    """The fill times at or before the horizon, inf past it: those that a
    replay to the horizon sees."""
    return np.where(fill_times <= horizon, fill_times, np.inf)


def _continued(arrivals, horizon, rng):
    """The arrivals, continued row by row with fresh Exp(1) gaps until
    every vertex's last arrival lies past the horizon."""
    while arrivals[-1].min() <= horizon:
        arrivals = np.vstack([arrivals, arrivals[-1] + rng.standard_exponential(arrivals.shape[1])])
    return arrivals


# -- configuration -----------------------------------------------------------


def test_config_normalizes_patterns():
    cfg = SimConfig(sample_times=(1, 2), patterns=["0101", "11"])
    assert cfg.patterns == ("0101", "11")
    assert cfg.sample_times == (1.0, 2.0)
    # numpy integers count as integers, and layers become Python ints
    cfg = SimConfig(sample_times=(1.0,), layers=(np.int64(2),), replicas=np.int64(3))
    assert cfg.layers == (2,) and type(cfg.layers[0]) is int


def test_observable_names_order():
    cfg = SimConfig(sample_times=(1.0,), layers=(1, 2), patterns=("11",))
    assert observable_names(cfg) == ("layer:1", "layer:2", "pattern:11")


def test_depth_is_the_deepest_observed_layer():
    assert SimConfig(sample_times=(1.0,)).depth == 2
    assert SimConfig(sample_times=(1.0,), layers=(3, 1)).depth == 3
    cfg = SimConfig(sample_times=(1.0,), layers=(1,), patterns=("0101",))
    assert cfg.depth == 4


def test_horizon_is_the_last_sample_time():
    # a replica's work does not depend on how long it runs, so the horizon
    # is derived, not set
    assert SimConfig(sample_times=(1.0, 5.0)).horizon == 5.0
    with pytest.raises(TypeError):
        SimConfig(horizon=2.0, sample_times=(1.0,))


@pytest.mark.parametrize(
    "radius, buffer, observed, reach",
    [
        (12, 4, {}, 10),
        (12, 4, {"layers": (1,), "patterns": ("0101",)}, 12),
        (12, 4, {"measure": "root"}, 2),
        (3, 0, {"layers": (5,), "measure": "root"}, 3),
    ],
    ids=["interior", "interior_capped", "root", "root_capped"],
)
def test_reach_is_the_deepest_level_a_measured_cone_reads(radius, buffer, observed, reach):
    # measured depth (radius - buffer, or 0 at the root) plus depth, at
    # most the radius
    assert SimConfig(sample_times=(1.0,), **observed).reach(radius, buffer) == reach


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sample_times": (-1.0,)},
        {"sample_times": ()},
        {"sample_times": (-0.5, 1.0)},
        {"sample_times": (1.0, 1.0)},
        {"sample_times": (2.0, 1.0)},
        {"sample_times": (1.0, math.inf)},
        {"sample_times": (1.0,), "replicas": 0},
        {"sample_times": (1.0,), "seed": -1},
        {"sample_times": (1.0,), "layers": (-1,)},
        {"sample_times": (1.0,), "layers": (), "patterns": ()},
        {"sample_times": (1.0,), "layers": (0, 1)},
        {"sample_times": (1.0,), "patterns": ("",)},
        {"sample_times": (1.0,), "patterns": ("01x1",)},
        {"sample_times": (1.0,), "measure": "leaves"},
        {"sample_times": (math.nan, 1.0)},
        {"sample_times": (math.inf,)},
        {"sample_times": (1.0, math.nan)},
        {"sample_times": (math.nan,)},
        # a numpy integer meets the same bounds as an int
        {"sample_times": (1.0,), "seed": np.int64(-1)},
        {"sample_times": (1.0,), "layers": (np.int64(0),)},
        {"sample_times": (1.0,), "replicas": np.int64(0)},
        # the one time-grid rule; time 0 is allowed, but only once
        {"sample_times": (0.0, 0.0)},
        {"sample_times": (1.0, -1.0)},
        {"sample_times": (-1.0, math.inf)},
        {"sample_times": (1.0,), "layers": (2, 2)},
        {"sample_times": (1.0,), "layers": (1, 2, 1)},
        {"sample_times": (1.0,), "patterns": ("11", "11")},
        {"sample_times": (1.0,), "patterns": ("0101", "0101")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"layers": (2, 2)}, "layers must not repeat"),
        ({"patterns": ("0101", "0101")}, "patterns must not repeat"),
    ],
)
def test_config_names_the_repeated_observable(kwargs, named):
    with pytest.raises(ValueError, match=named):
        SimConfig(sample_times=(1.0,), **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        # a pattern is a word: a bit sequence is not read as one
        {"patterns": ((1, 1),)},
        {"patterns": ((True, 0),)},
        {"patterns": (11,)},
        # a sample time is a real number: a string or a bool is not coerced
        {"sample_times": ("1", "2")},
        {"sample_times": (True,)},
        {"sample_times": (1.0, "2")},
        # a seed, a layer and a replica count are ints: nothing is coerced
        {"seed": 1.5},
        {"seed": True},
        {"layers": (1.7, 2)},
        {"layers": (True,)},
        {"replicas": 2.5},
        {"replicas": "3"},
        # a bare string is one word, not a sequence of one-letter words
        {"patterns": "01"},
        {"patterns": "0101"},
        # a scalar where a sequence belongs is named before anything is read
        {"sample_times": 1.0},
        {"layers": 3},
        {"patterns": None},
        {"layers": None},
    ],
)
def test_config_refuses_a_wrong_type(kwargs):
    (knob,) = kwargs
    with pytest.raises(TypeError, match=knob.replace("_", " ")):
        SimConfig(**{"sample_times": (1.0,), **kwargs})


# -- settlement rule and per-event rate conformance --------------------------------


_DEPTH4 = {"patterns": ("0101",)}


@pytest.mark.parametrize(
    "graph, horizon, observed",
    [
        (build_cycle(60), 4.0, _DEPTH4),
        (build_regular_ball(3, radius=5, buffer=1), 4.0, _DEPTH4),
        (build_random_ball(TWO_THREE, radius=6, buffer=1, rng=3), 4.0, _DEPTH4),
        (build_regular_ball(3, radius=7, buffer=5), 4.0, _DEPTH4),
        (build_cycle(60), 12.0, {}),
        (build_cycle(60), 12.0, _DEPTH4),
        (build_regular_ball(3, radius=5, buffer=1), 12.0, {}),
        (build_regular_ball(3, radius=5, buffer=1), 12.0, _DEPTH4),
    ],
    ids=[
        "cycle", "regular_ball", "random_ball", "regular_ball_wide_buffer",
        "cycle_saturated_depth2", "cycle_saturated_depth4",
        "regular_ball_saturated_depth2", "regular_ball_saturated_depth4",
    ],
)
def test_settlements_conform_to_transition_rates(graph, horizon, observed):
    # the reference replay asserts the two-layer transition conditions at
    # every event and settles every arrival up to the horizon; the kernel
    # reads only each vertex's first depth arrivals and must agree with it
    # exactly at every sample time, including the truncation of heights
    # above the depth.  Measuring the interior alone, the kernel draws
    # arrivals only in the interior's light cone: the replay gets that
    # cone's arrivals, counted here from the depths, but settles on the
    # whole graph.  The long runs check that the arrivals past a vertex's
    # depth-th, which the kernel never draws, change nothing.  The fill
    # times up to the horizon must equal the replay's too, the same sums
    # to the bit.
    times = tuple(horizon * f for f in (0.25, 0.625, 1.0))
    cfg = SimConfig(sample_times=times, **observed)
    depth = cfg.depth
    n = graph.vertex_count
    interior = list(graph.interior)
    cone = n
    if graph.depth is not None:
        reach = max(graph.depth[v] for v in interior) + depth
        cone = sum(d <= reach for d in graph.depth)
    everyone = replace(graph, interior=tuple(range(n)))
    extra = np.random.default_rng(7)
    settled = undrawn = 0
    for r in range(8):
        seed = 1000 + r
        arrivals = _continued(_arrivals(n, depth, seed), horizon, extra)
        reference, filled = replay(graph, cfg, arrivals)
        snap = run_replica(everyone, cfg, rng=seed)
        assert np.array_equal(masks_at(snap.fill_times, times), reference)
        assert np.array_equal(_by(snap.fill_times, horizon), filled)
        inside = _continued(_arrivals(cone, depth, seed), horizon, extra)
        inner, inner_filled = replay(graph, cfg, inside)
        snap = run_replica(graph, cfg, rng=seed)
        assert np.array_equal(masks_at(snap.fill_times, times), inner[:, interior])
        assert np.array_equal(_by(snap.fill_times, horizon), inner_filled[:, interior])
        before = arrivals <= horizon
        settled += np.count_nonzero(before)
        undrawn += np.count_nonzero(before[depth:])
    if horizon > 4.0:
        # most of the settled arrivals lie past the kernel's draw
        assert undrawn >= settled / 2, (undrawn, settled)


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 40])
@pytest.mark.parametrize(
    "build",
    [
        lambda seed: build_cycle(150),
        lambda seed: build_cycle(4),
        lambda seed: build_regular_ball(3, radius=6, buffer=2),
        lambda seed: build_random_ball(WIDE, radius=5, buffer=2, rng=seed),
    ],
    ids=["cycle", "cycle4", "regular_ball", "random_ball"],
)
def test_first_passage_kernel_equals_the_event_replay(build, depth):
    # each vertex draws depth + 6 arrivals: the replay settles all of them
    # one event at a time, the kernel reads only the first depth gaps, one
    # layer per pass.  Every vertex's masks must be equal at every sample
    # time, the last of them long after the lowest layers have jammed, and
    # so must every fill time up to it, to the bit.  On cycle(4) every
    # light cone past layer 1 wraps around the cycle.
    cfg = SimConfig(sample_times=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0),
                    layers=(depth,))
    for seed in range(25):
        graph = build(seed)
        n = graph.vertex_count
        gaps = _arrival_gaps(n, depth + 6, np.random.default_rng(seed))
        reference, filled = replay(graph, cfg, gaps.cumsum(axis=0))
        table, everyone = _cone_arrays(graph, n, tuple(range(n)))
        fill = _settle_layers(table, gaps[:depth], everyone)
        assert np.array_equal(masks_at(fill, cfg.sample_times), reference), seed
        assert np.array_equal(_by(fill, cfg.horizon), filled), seed


def test_kernel_without_the_jump_rule_fails_the_replay():
    # negative control: a kernel that always takes a vertex's next arrival
    # for the next layer, even when a neighbor reached the layer first and
    # the arrival jumped past it, gives masks the replay does not
    graph = build_cycle(200)
    depth = 3
    cfg = SimConfig(sample_times=(0.5, 1.0, 2.0, 30.0), layers=(depth,))
    differs = 0
    for seed in range(20):
        arrivals = _arrivals(200, depth + 6, seed)
        reference, _ = replay(graph, cfg, arrivals)
        first = arrivals[:depth]
        screen = np.minimum(np.roll(first, 1, axis=1), np.roll(first, -1, axis=1))
        settled = np.where(first < screen, first, np.inf)
        differs += not np.array_equal(masks_at(settled, cfg.sample_times), reference)
    assert differs > 0


def _root_masks_on_ball(radius, arrivals, cfg):
    """Root masks from the arrivals that land in the radius-`radius` ball of T_3."""
    ball = build_regular_ball(3, radius)
    return replay(ball, cfg, arrivals[:, :ball.vertex_count])[0][:, :1]


def test_light_cone_decides_the_lowest_layers():
    # the lowest L layers at a vertex depend only on the arrivals within
    # distance L of it.  Breadth-first numbering makes the radius-L ball the
    # first vertices of the radius-6 ball, so dropping every arrival outside
    # it must leave the root's lowest L layers exactly as they were.
    big = build_regular_ball(3, 6)
    cfg = SimConfig(sample_times=(0.5, 1.0, 2.0, 3.0), layers=(4,))
    too_small = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        arrivals = _continued(rng.standard_exponential((1, big.vertex_count)), cfg.horizon, rng)
        full = replay(big, cfg, arrivals)[0][:, :1]
        for depth in range(1, 5):
            low = (1 << depth) - 1
            assert np.array_equal(_root_masks_on_ball(depth, arrivals, cfg) & low, full & low)
        # negative control: the radius-1 ball does not decide layer 2
        too_small += not np.array_equal(_root_masks_on_ball(1, arrivals, cfg) & 3, full & 3)
    assert too_small > 0


def test_light_cone_equals_the_brute_force():
    # _light_cone reads the depth of the largest measured id alone; the
    # brute force takes the deepest measured vertex, and the cone is every
    # vertex down to depth levels below it.  Measured sets are arbitrary
    # subsets of the ball, the empty one included; a cycle has no depths.
    rng = np.random.default_rng(11)
    for seed in range(40):
        ball = build_random_ball(WIDE, radius=6, rng=seed)
        n = ball.vertex_count
        for _ in range(5):
            size = int(rng.integers(0, min(n, 8) + 1))
            measured = tuple(rng.choice(n, size=size, replace=False).tolist())
            depth = int(rng.integers(1, 5))
            reach = max((ball.depth[v] for v in measured), default=0) + depth
            assert _light_cone(ball, measured, depth) == sum(d <= reach for d in ball.depth)
    assert _light_cone(build_cycle(9), (0, 4), 3) == 9


@pytest.mark.parametrize(
    "build, measure, seeds",
    [
        (lambda seed: build_regular_ball(3, radius=9, buffer=6), "interior", 30),
        (lambda seed: build_random_ball(TWO_THREE, radius=10, buffer=6, rng=seed), "interior", 30),
        # a single vertex rarely needs layer 4's whole cone: 4 of the first
        # 300 seeds do, so the control needs more of them
        (lambda seed: build_random_ball(TWO_THREE, radius=10, buffer=6, rng=seed), "root", 200),
    ],
    ids=["regular_interior", "random_interior", "random_root"],
)
@pytest.mark.parametrize(
    "observed", [{}, {"layers": (1,), "patterns": ("0101",)}], ids=["depth2", "depth4"]
)
def test_light_cone_filter_is_exact(build, measure, seeds, observed):
    # run_replica draws arrivals only within distance depth of a measured
    # vertex, and its fill times are those of settling that draw.  Arrivals
    # outside the cone cannot reach the measured layers: giving every other
    # vertex of the ball arrivals too must leave the masks as they are at
    # every sample time.  The balls reach two levels past every cone, so
    # each cone is a strict prefix.  Negative control: the cone one level
    # shallower misses arrivals that matter.
    cfg = SimConfig(sample_times=(0.5, 1.0, 2.0, 4.0), measure=measure, **observed)
    depth = cfg.depth
    extra = np.random.default_rng(99)
    too_small = inserted = 0

    def settle(graph, measured, gaps):
        table, index = _cone_arrays(graph, gaps.shape[1], measured)
        return masks_at(_settle_layers(table, gaps, index), cfg.sample_times)

    for seed in range(seeds):
        graph = build(seed)
        n = graph.vertex_count
        measured = graph.interior if measure == "interior" else (graph.root,)
        reach = max(graph.depth[v] for v in measured) + depth
        cone = sum(d <= reach for d in graph.depth)
        assert cone < n
        first = _arrival_gaps(cone, depth, np.random.default_rng(seed))
        snap = run_replica(graph, cfg, rng=seed)
        assert snap.measured == tuple(measured)
        masks = masks_at(snap.fill_times, cfg.sample_times)
        assert np.array_equal(masks, settle(graph, measured, first))
        outside = _arrival_gaps(n - cone, depth, extra)
        inserted += np.count_nonzero(outside.cumsum(axis=0) <= cfg.horizon)
        everywhere = np.hstack([first, outside])
        assert np.array_equal(masks, settle(graph, measured, everywhere))
        shallower = sum(d < reach for d in graph.depth)
        short = settle(graph, measured, first[:, :shallower])
        too_small += not np.array_equal(short, masks)
    assert too_small > 0
    assert inserted > 0


@pytest.mark.parametrize("measure", ["interior", "root"])
@pytest.mark.parametrize(
    "observed, cones",
    [({}, {"interior": 94, "root": 10}),
     ({"layers": (1,), "patterns": ("0101",)}, {"interior": 382, "root": 46})],
    ids=["depth2", "depth4"],
)
def test_ball_cut_to_its_light_cone_gives_the_same_masks(measure, observed, cones, monkeypatch):
    # a fixed ball's light cone goes to every block in its place, and each
    # replica draws and settles only that cone, a prefix of the ids: the
    # fill times are those of the ball cut to that prefix, seed for seed,
    # and those of the cone itself.  The cone of T_3 to level r has
    # 1 + 3(2^r - 1) vertices: interior vertices reach level 3 + depth, the
    # root level depth.
    ball = build_regular_ball(3, radius=7, buffer=4)
    cfg = SimConfig(sample_times=(0.5, 1.0, 2.0, 4.0), replicas=8, seed=5,
                    measure=measure, **observed)
    measured = ball.interior if measure == "interior" else (ball.root,)
    m = _light_cone(ball, measured, cfg.depth)
    assert m == cones[measure]
    cut = GraphInstance(
        neighbors=tuple(tuple(u for u in nb if u < m) for nb in ball.neighbors[:m]),
        interior=tuple(v for v in ball.interior if v < m),
        root=ball.root,
    )
    # every block receives the one cone of m vertices built for the ball,
    # and the blocks cover the replicas once and in order
    _inline_pool(monkeypatch)
    monkeypatch.setattr(deposit, "_usable_cpus", lambda: 2)
    sent = []
    task = deposit._replica_task
    monkeypatch.setattr(deposit, "_replica_task", lambda args: sent.append(args) or task(args))
    estimate_densities(ball, cfg, n_jobs=2)
    cone = sent[0][0]
    assert len(sent) == 2 and all(args[0] is cone for args in sent)
    assert cone.vertex_count == m
    assert [r for _, _, lo, hi in sent for r in range(lo, hi)] == list(range(cfg.replicas))
    for seed in range(20):
        full = run_replica(ball, cfg, rng=seed)
        for short in (run_replica(cut, cfg, rng=seed), run_replica(cone, cfg, rng=seed)):
            assert short.measured == full.measured
            assert np.array_equal(short.fill_times, full.fill_times)


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize(
    "d, radius, buffer, observed",
    [
        (3, 7, 4, []),
        (3, 7, 4, ["--layers", "1", "--patterns", "0101"]),
        (3, 7, 0, ["--measure", "root"]),
        (2, 3, 0, ["--layers", "1,2,3", "--measure", "root"]),
    ],
    ids=["interior", "interior_whole_ball", "root", "root_whole_ball"],
)
def test_cli_grows_a_regular_ball_to_its_light_cone(d, radius, buffer, observed, n_jobs,
                                                    monkeypatch):
    # simulate builds only the levels that a measured light cone reads, so
    # the kernel's cut keeps every vertex built, and the CSV is the whole
    # ball's byte for byte
    from screendep import cli

    runs = []

    def recording(graph, config, n_jobs):
        curve = estimate_densities(graph, config, n_jobs=n_jobs)
        runs.append((graph, config, curve))
        return curve

    monkeypatch.setattr(cli, "estimate_densities", recording)
    argv = ["simulate", "--graph", "regular", "--d", str(d), "--R", str(radius),
            "--buffer", str(buffer), *observed, "--times", "0.5,2", "--replicas", "6",
            "--seed", "5", "--jobs", str(n_jobs), "--out", os.devnull]
    assert cli.main(argv) == 0
    [(grown, cfg, curve)] = runs
    measured, table, _ = deposit._replica_setup(grown, cfg)
    assert table.shape[1] == grown.vertex_count
    whole = build_regular_ball(d, radius, buffer)
    assert grown.vertex_count == _light_cone(whole, measured, cfg.depth)
    assert curve.to_csv_text() == estimate_densities(whole, cfg, n_jobs=n_jobs).to_csv_text()


# -- arrival process -----------------------------------------------------------


def test_first_arrivals_are_a_poisson_process():
    # each row of gaps is iid Exp(1): chi-square over 10 equiprobable bins,
    # 9 dof.  A column's cumulative sums are then the first depth points of
    # a unit-rate Poisson process: at depth 6 the number at or before T = 2
    # is min(Poisson(2), 6), chi-square with 6 dof.
    gaps = _arrival_gaps(1000, 6, np.random.default_rng(5))
    assert gaps.shape == (6, 1000)
    assert np.all(gaps > 0)
    edges = -np.log1p(-np.arange(1, 10) / 10)
    for row in gaps:
        cells = np.bincount(np.searchsorted(edges, row), minlength=10)
        chi2 = ((cells - 100) ** 2 / 100).sum()
        assert chi2 < 27.9, (chi2, cells)
    arrivals = gaps.cumsum(axis=0)
    cells = np.bincount(np.count_nonzero(arrivals <= 2.0, axis=0), minlength=7)
    pmf = [math.exp(-2.0) * 2.0 ** k / math.factorial(k) for k in range(6)]
    expected = np.array([1000 * p for p in pmf] + [1000 * (1 - sum(pmf))])
    assert expected.min() > 5
    chi2 = ((cells - expected) ** 2 / expected).sum()
    assert chi2 < 22.5, (chi2, cells)


def test_snapshots_are_cumulative():
    # occupied layers only grow: a vertex's masks at later sample times
    # hold its earlier ones, and the layer densities never fall
    g = build_cycle(200)
    cfg = SimConfig(sample_times=(0.5, 1.0, 2.0, 3.0))
    snap = run_replica(g, cfg, rng=11)
    masks = masks_at(snap.fill_times, cfg.sample_times)
    for i in range(3):
        assert np.all(masks[i] & ~masks[i + 1] == 0)
    growth = np.diff(snapshot_observables(snap, cfg), axis=1)
    assert np.all(growth >= 0) and np.any(growth > 0)


def test_layer_one_sites_form_an_independent_set():
    # a particle settles at height 1 only when its closed neighborhood is
    # empty, so no two adjacent sites can both carry a layer-1 particle
    n = 300
    g = build_cycle(n)
    cfg = SimConfig(sample_times=(1.0, 5.0))
    for r in range(5):
        snap = run_replica(g, cfg, rng=50 + r)
        for row in masks_at(snap.fill_times, cfg.sample_times):
            bit1 = row & 1
            assert not np.any(bit1 & np.roll(bit1, 1))
        # a layer-1 particle stays, so no two neighbors are ever both filled
        first = np.isfinite(snap.fill_times[0])
        assert not np.any(first & np.roll(first, 1))


def test_masks_stay_below_depth():
    # layers 1 and 2 give depth 2: settling the same arrivals untruncated
    # reaches higher layers, and the snapshot keeps the fill times of
    # exactly the lowest two
    g = build_cycle(30)
    cfg = SimConfig(sample_times=(12.0,), layers=(1, 2))
    snap = run_replica(g, cfg, rng=2)
    arrivals = _continued(_arrivals(30, cfg.depth, 2), cfg.horizon, np.random.default_rng(3))
    untruncated = SimConfig(sample_times=(12.0,), layers=(32,))
    deep, deep_filled = replay(g, untruncated, arrivals)
    assert snap.fill_times.shape == (cfg.depth, 30)
    assert np.count_nonzero(deep >= 1 << cfg.depth) > 10
    assert np.array_equal(masks_at(snap.fill_times, cfg.sample_times), deep & 3)
    assert np.array_equal(_by(snap.fill_times, cfg.horizon), deep_filled[:cfg.depth])


def test_time_zero_is_the_empty_substrate():
    # no arrival comes at t = 0, so every layer is empty and every word of
    # zeros holds, in every replica
    cfg = SimConfig(sample_times=(0.0, 1.0), layers=(1,), patterns=("0",))
    curve = estimate_densities(build_cycle(30), cfg)
    layer, pattern = curve.get("layer:1")[0], curve.get("pattern:0")[0]
    assert (layer.mean, layer.stderr) == (0.0, 0.0)
    assert (pattern.mean, pattern.stderr) == (1.0, 0.0)


def test_small_cycle_is_settled_as_given():
    # the library settles the finite graph it is given: on a cycle shorter
    # than the depth-L light cone, 2L + 1 vertices, the cone wraps around and
    # the fill times are the small cycle's own, the replay's to the bit.
    # Only simulate asks a cycle for n >= 2L + 1
    cfg = SimConfig(sample_times=(1.0,), layers=(3,))
    assert run_replica(build_cycle(6), cfg, rng=0).fill_times.shape == (3, 6)
    graph, late = build_cycle(4), replace(cfg, sample_times=(30.0,))
    for seed in range(10):
        _, filled = replay(graph, late, _arrivals(4, late.depth + 6, seed))
        snap = run_replica(graph, late, rng=seed)
        assert np.array_equal(_by(snap.fill_times, late.horizon), filled), seed


def test_measured_override():
    # another measured set is another interior, checked by GraphInstance
    g = build_cycle(50)
    cfg = SimConfig(sample_times=(1.0,))
    snap = run_replica(replace(g, interior=(3, 7)), cfg, rng=0)
    assert snap.measured == (3, 7)
    assert snap.fill_times.shape == (cfg.depth, 2)
    for bad in (-1, 50):
        with pytest.raises(ValueError, match="interior vertex must be"):
            replace(g, interior=(3, bad))


@pytest.mark.parametrize(
    "graph",
    [build_cycle(60), build_regular_ball(3, radius=6, buffer=2),
     build_random_ball(WIDE, radius=5, buffer=2, rng=4)],
    ids=["cycle", "regular_ball", "random_ball"],
)
def test_fill_times_do_not_depend_on_the_sample_grid(graph):
    # sample times enter only when the observables are read: at one seed,
    # two grids give the same fill times to the bit
    coarse = SimConfig(sample_times=(1.0,), layers=(1, 3), patterns=("0101",))
    fine = replace(coarse, sample_times=(0.1, 0.2, 0.7, 3.0, 40.0))
    for seed in range(5):
        a, b = run_replica(graph, coarse, rng=seed), run_replica(graph, fine, rng=seed)
        assert a.fill_times.tobytes() == b.fill_times.tobytes()


@pytest.mark.parametrize(
    "graph, measure",
    [(build_cycle(80), "interior"), (build_regular_ball(3, radius=7, buffer=5), "interior"),
     (build_random_ball(WIDE, radius=6, buffer=1, rng=2), "root")],
    ids=["cycle", "regular_ball", "random_ball_root"],
)
def test_finite_fill_times_increase_with_the_layer(graph, measure):
    # a vertex fills its layers from the bottom up, each at an arrival of
    # its own, so its finite fill times strictly increase with the layer.
    # A layer it jumps past reads inf below a finite one above.
    cfg = SimConfig(sample_times=(1.0,), layers=(5,), measure=measure)
    climbed = jumped = 0
    for seed in range(30):
        fill = run_replica(graph, cfg, rng=seed).fill_times
        below = np.maximum.accumulate(np.where(np.isfinite(fill), fill, -np.inf), axis=0)
        above = np.isfinite(fill[1:])
        assert np.all(fill[1:][above] > below[:-1][above]), seed
        climbed += np.count_nonzero(above & np.isfinite(below[:-1]))
        jumped += np.count_nonzero(above & ~np.isfinite(fill[:-1]))
    assert climbed > 0 and jumped > 0


_GRAPHS = {
    "cycle": lambda seed: build_cycle(40),
    "regular_ball": lambda seed: build_regular_ball(3, radius=5, buffer=2),
    "random_ball": lambda seed: build_random_ball(WIDE, radius=5, buffer=2, rng=seed),
}
_WORDS = st.one_of(st.sampled_from(["0", "1", "00000", "11111", "0101"]),
                   st.text(alphabet="01", min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_observables_from_fill_times_equal_the_mask_formula(data):
    # snapshot_observables reads windows of fill times; the reference reads
    # the bitmasks at each sample time.  Some sample times are fill times
    # themselves, where a layer is occupied from that instant on.
    kind = data.draw(st.sampled_from(sorted(_GRAPHS)), label="graph")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    graph = _GRAPHS[kind](seed)
    measure = data.draw(st.sampled_from(["interior", "root"] if graph.root is not None
                                        else ["interior"]), label="measure")
    layers = data.draw(st.lists(st.integers(1, 5), unique=True, max_size=3), label="layers")
    patterns = data.draw(st.lists(_WORDS, unique=True, min_size=0 if layers else 1,
                                  max_size=4), label="patterns")
    probe = SimConfig(sample_times=(1.0,), layers=layers, patterns=patterns, measure=measure)
    snap = run_replica(graph, probe, rng=seed)
    fills = snap.fill_times[np.isfinite(snap.fill_times)].tolist()
    ties = data.draw(st.lists(st.sampled_from(fills), max_size=4) if fills else st.just([]),
                     label="ties")
    others = data.draw(st.lists(st.floats(0.01, 20.0), min_size=0 if ties else 1, max_size=4),
                       label="others")
    cfg = replace(probe, sample_times=sorted(set(ties + others)))
    expected = mask_observables(masks_at(snap.fill_times, cfg.sample_times), cfg)
    assert snapshot_observables(snap, cfg).tobytes() == expected.tobytes()


# -- estimates -----------------------------------------------------------------


def test_layer_one_density_on_cycle():
    # exact interior curve: (1 - exp(-3t)) / 3
    g = build_cycle(500)
    cfg = SimConfig(sample_times=(0.5, 1.0, 3.0), replicas=120, seed=3, layers=(1,)
    )
    curve = estimate_densities(g, cfg)
    (name, points), = curve.series
    assert name == "layer:1"
    for t, p in zip(curve.times, points):
        exact = (1 - math.exp(-3 * t)) / 3
        assert abs(p.mean - exact) < 4 * p.stderr + 1e-12, (t, p.mean, exact)


def test_pattern_frequency_long_time_limit():
    # on the cycle the both-layers-occupied frequency tends to 1/9
    g = build_cycle(400)
    cfg = SimConfig(sample_times=(8.0,), replicas=100, seed=9, layers=(), patterns=("11",)
    )
    curve = estimate_densities(g, cfg)
    (name, points), = curve.series
    assert name == "pattern:11"
    p = points[0]
    assert abs(p.mean - 1 / 9) < 4 * p.stderr + 0.002


def test_estimates_are_deterministic():
    g = build_cycle(120)
    cfg = SimConfig(sample_times=(1.0, 2.0), replicas=10, seed=4,
                    layers=(1, 2), patterns=("0101",))
    a = estimate_densities(g, cfg)
    b = estimate_densities(g, cfg)
    assert a == b
    assert a.to_csv_text() == b.to_csv_text()


def test_seed_changes_the_estimate():
    g = build_cycle(120)
    cfg = SimConfig(sample_times=(2.0,), replicas=10, seed=4)
    other = SimConfig(sample_times=(2.0,), replicas=10, seed=5)
    assert estimate_densities(g, cfg) != estimate_densities(g, other)


def test_stderr_shrinks_with_replicas():
    g = build_cycle(300)
    small = SimConfig(sample_times=(2.0,), replicas=50, seed=6, layers=(1,))
    big = SimConfig(sample_times=(2.0,), replicas=200, seed=6, layers=(1,))
    se_small = estimate_densities(g, small).series[0][1][0].stderr
    se_big = estimate_densities(g, big).series[0][1][0].stderr
    ratio = se_small / se_big
    assert 1.3 < ratio < 3.0, ratio


@pytest.mark.parametrize(
    "n_jobs, error", [(1.5, TypeError), (True, TypeError), ("2", TypeError), (0, ValueError)]
)
def test_n_jobs_is_a_positive_int(n_jobs, error):
    # a float is not truncated to a worker count and True is not one worker
    cfg = SimConfig(sample_times=(1.0,), replicas=2)
    with pytest.raises(error, match="n_jobs"):
        estimate_densities(build_cycle(20), cfg, n_jobs=n_jobs)


def test_single_replica_has_nan_stderr():
    g = build_cycle(50)
    cfg = SimConfig(sample_times=(1.0,), replicas=1, seed=0)
    curve = estimate_densities(g, cfg)
    assert math.isnan(curve.series[0][1][0].stderr)
    assert curve.series[0][1][0].n == 1


def test_root_measurement():
    g = build_regular_ball(3, radius=4, buffer=1)
    cfg = SimConfig(sample_times=(1.0,), replicas=4, seed=0, measure="root")
    curve = estimate_densities(g, cfg)
    assert curve.meta["measure"] == "root"
    snap = run_replica(g, SimConfig(sample_times=(1.0,), measure="root"), rng=0)
    assert snap.measured == (0,)


def test_root_measurement_needs_a_root():
    g = build_cycle(20)
    cfg = SimConfig(sample_times=(1.0,), replicas=2, seed=0, measure="root")
    with pytest.raises(ValueError):
        estimate_densities(g, cfg)


def test_random_ball_source_estimates():
    src = RandomBallSource(TWO_THREE, radius=5, buffer=1)
    cfg = SimConfig(sample_times=(1.0,), replicas=6, seed=12, measure="root")
    a = estimate_densities(src, cfg)
    b = estimate_densities(src, cfg)
    assert a == b
    assert a.meta["graph"] == src.label
    assert a.series[0][1][0].n == 6


@pytest.mark.parametrize(
    "graph, observed, replicas, n_jobs",
    [
        (build_regular_ball(3, 6, 2), {}, 8, 2),
        (RandomBallSource(TWO_THREE, radius=5, buffer=1), {}, 8, 2),
        (RandomBallSource(TWO_THREE, radius=5, buffer=1),
         {"measure": "root", "patterns": ("0101",)}, 7, 2),
        (build_regular_ball(3, 7, 4), {"layers": (1, 2), "patterns": ("01",)}, 3, 5),
    ],
    ids=["regular_ball_cut", "random_ball_source", "uneven_split_random_root", "jobs_over_replicas"],
)
def test_process_pool_gives_the_serial_estimate(graph, observed, replicas, n_jobs):
    # the blocks split unevenly (4 + 3) or are capped at the replica count,
    # and still join in replica order: the same CSV byte for byte
    cfg = SimConfig(sample_times=(1.0, 2.0), replicas=replicas, seed=3,
                    **{"layers": (1,), **observed})
    if not isinstance(graph, RandomBallSource):
        assert _light_cone(graph, graph.interior, cfg.depth) < graph.vertex_count
    serial = estimate_densities(graph, cfg, n_jobs=1).to_csv_text()
    assert estimate_densities(graph, cfg, n_jobs=n_jobs).to_csv_text() == serial


def _inline_pool(monkeypatch) -> list[int]:
    """Replace the process pool with one that runs each task in this
    process when its result is read, as the caller does after its own
    block.  Returns the worker counts the pools are started with."""
    import concurrent.futures

    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return started


@pytest.mark.parametrize(
    "replicas, n_jobs, cpus, pool",
    [(2, 40, 64, 1), (10, 8, 3, 2), (10, 3, 64, 2), (5, 4, 1, None), (1, 4, 8, None)],
    ids=["replicas", "cpus", "jobs", "one_cpu", "one_replica"],
)
def test_worker_count_is_capped(replicas, n_jobs, cpus, pool, monkeypatch):
    # min(n_jobs, replicas, usable CPUs) workers, of which the caller is one:
    # the pool starts the others, and none at all when one worker is left
    started = _inline_pool(monkeypatch)
    monkeypatch.setattr(deposit, "_usable_cpus", lambda: cpus)
    cfg = SimConfig(sample_times=(1.0,), replicas=replicas, seed=4)
    graph = build_cycle(30)
    sent = []
    task = deposit._replica_task
    monkeypatch.setattr(deposit, "_replica_task", lambda args: sent.append(args[2:]) or task(args))
    text = estimate_densities(graph, cfg, n_jobs=n_jobs).to_csv_text()
    assert started == ([] if pool is None else [pool])
    workers = min(n_jobs, replicas, cpus)
    assert sent == [(replicas * w // workers, replicas * (w + 1) // workers) for w in range(workers)]
    assert text == estimate_densities(graph, cfg).to_csv_text()


@pytest.mark.parametrize(
    "build, n_jobs",
    [(lambda: build_regular_ball(3, 7, 4), 1), (lambda: build_regular_ball(3, 7, 4), 2),
     (lambda: build_cycle(30), 1), (lambda: build_cycle(30), 2),
     (lambda: RandomBallSource(TWO_THREE, radius=5, buffer=1), 2)],
    ids=["ball_serial", "ball_pool", "cycle", "cycle_pool", "random_ball_source"],
)
def test_workers_get_the_neighbor_table_ready_made(build, n_jobs, monkeypatch):
    # a fixed graph's light cone, its neighbor table among it, is built once
    # per call, before any block starts, and every block receives that cone
    # in the graph's place, pickled or not; a random ball builds its own in
    # each replica.  Nothing is written to the graph: after a run it holds
    # only its fields and pickles to the same bytes.
    _inline_pool(monkeypatch)
    monkeypatch.setattr(deposit, "_usable_cpus", lambda: n_jobs)
    graph = build()
    cfg = SimConfig(sample_times=(1.0, 2.0), replicas=4, seed=4)
    before = pickle.dumps(graph)
    built, sent = [], []
    setup, task = deposit._replica_setup, deposit._replica_task

    def building(graph, config):
        built.append(setup(graph, config))
        return built[-1]

    monkeypatch.setattr(deposit, "_replica_setup", building)
    monkeypatch.setattr(deposit, "_replica_task", lambda args: sent.append(args[0]) or task(args))
    estimate_densities(graph, cfg, n_jobs=n_jobs)
    assert len(sent) == n_jobs
    if isinstance(graph, RandomBallSource):
        assert len(built) == cfg.replicas
        assert all(given is graph for given in sent)
        return
    [cone] = built
    assert all(given is cone for given in sent)
    assert cone.vertex_count == _light_cone(graph, graph.interior, cfg.depth)
    copy = pickle.loads(pickle.dumps(cone))
    assert copy.measured == cone.measured == graph.interior
    assert np.array_equal(copy.table, cone.table)
    assert np.array_equal(copy.index, cone.index)
    run_replica(graph, cfg, rng=0)
    assert graph.__dict__.keys() == graph.__dataclass_fields__.keys()
    assert pickle.dumps(graph) == before


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    assert deposit._usable_cpus() >= 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert deposit._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert deposit._usable_cpus() == 1


def test_snapshot_observables_shapes():
    g = build_cycle(80)
    cfg = SimConfig(sample_times=(1.0, 2.0), layers=(1, 2), patterns=("11",))
    snap = run_replica(g, cfg, rng=1)
    obs = snapshot_observables(snap, cfg)
    assert obs.shape == (3, 2)
    assert np.all(obs >= 0) and np.all(obs <= 1)
