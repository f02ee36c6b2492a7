"""Deposition simulator: configuration, settlement against a reference replay, estimates."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from screendep import deposit
from screendep.degree import DegreeDistribution
from screendep.deposit import (
    MAX_TRACKED_LAYERS,
    SimConfig,
    _arrival_stream,
    _cut_to_light_cone,
    _settle,
    estimate_densities,
    observable_names,
    run_replica,
    snapshot_observables,
)
from screendep.graphs import RandomBallSource, build_cycle, build_regular_ball, build_random_ball

from oracles import replay

TWO_THREE = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})


# -- configuration -----------------------------------------------------------


def test_config_normalizes_patterns():
    cfg = SimConfig(horizon=2.0, sample_times=(1, 2), patterns=["0101", (1, 1)])
    assert cfg.patterns == ("0101", "11")
    assert cfg.sample_times == (1.0, 2.0)
    # numpy integers count as integers, and layers become Python ints
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), layers=(np.int64(2),), replicas=np.int64(3))
    assert cfg.layers == (2,) and type(cfg.layers[0]) is int


def test_observable_names_order():
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), layers=(1, 2), patterns=("11",))
    assert observable_names(cfg) == ("layer:1", "layer:2", "pattern:11")


def test_depth_is_the_deepest_observed_layer():
    assert SimConfig(horizon=1.0, sample_times=(1.0,)).depth == 2
    assert SimConfig(horizon=1.0, sample_times=(1.0,), layers=(3, 1)).depth == 3
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), layers=(1,), patterns=("0101",))
    assert cfg.depth == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": 0.0, "sample_times": (1.0,)},
        {"horizon": 2.0, "sample_times": ()},
        {"horizon": 2.0, "sample_times": (0.0, 1.0)},
        {"horizon": 2.0, "sample_times": (1.0, 1.0)},
        {"horizon": 2.0, "sample_times": (2.0, 1.0)},
        {"horizon": 2.0, "sample_times": (1.0, 3.0)},
        {"horizon": 2.0, "sample_times": (1.0,), "replicas": 0},
        {"horizon": 2.0, "sample_times": (1.0,), "seed": -1},
        {"horizon": 2.0, "sample_times": (1.0,), "layers": (MAX_TRACKED_LAYERS + 1,)},
        {"horizon": 2.0, "sample_times": (1.0,), "layers": (), "patterns": ()},
        {"horizon": 2.0, "sample_times": (1.0,), "layers": (0, 1)},
        {"horizon": 2.0, "sample_times": (1.0,), "patterns": ("0" * (MAX_TRACKED_LAYERS + 1),)},
        {"horizon": 2.0, "sample_times": (1.0,), "patterns": ("01x1",)},
        {"horizon": 2.0, "sample_times": (1.0,), "measure": "leaves"},
        {"horizon": math.nan, "sample_times": (1.0,)},
        {"horizon": math.inf, "sample_times": (1.0,)},
        {"horizon": 2.0, "sample_times": (1.0, math.nan)},
        {"horizon": 2.0, "sample_times": (math.nan,)},
        {"horizon": 2.0, "sample_times": (1.0,), "seed": 1.5},
        {"horizon": 2.0, "sample_times": (1.0,), "seed": True},
        {"horizon": 2.0, "sample_times": (1.0,), "layers": (1.7, 2)},
        {"horizon": 2.0, "sample_times": (1.0,), "layers": (True,)},
        {"horizon": 2.0, "sample_times": (1.0,), "replicas": 2.5},
        {"horizon": 2.0, "sample_times": (1.0,), "replicas": "3"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


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
    # every event; the kernel must then agree with it exactly at every
    # sample time, including the truncation of heights above the depth.
    # Measuring the interior alone, the kernel draws arrivals only in the
    # interior's light cone: the replay draws over the same cone, counted
    # here from the depths, but sorts the times and settles on the whole
    # graph.  The long runs check the kernel's skip of arrivals at
    # saturated vertices, which the replay never skips.
    times = tuple(horizon * f for f in (0.25, 0.625, 1.0))
    cfg = SimConfig(horizon=horizon, sample_times=times, **observed)
    everyone = range(graph.vertex_count)
    interior = list(graph.interior)
    cone = None
    if graph.depth is not None:
        reach = max(graph.depth[v] for v in interior) + cfg.depth
        cone = sum(d <= reach for d in graph.depth)
    arrivals = saturated = 0
    for r in range(8):
        reference, stacks = replay(graph, cfg, seed=1000 + r)
        snap = run_replica(graph, cfg, rng=1000 + r, measured=everyone)
        assert np.array_equal(snap.masks, reference)
        inner, _ = replay(graph, cfg, seed=1000 + r, cone=cone)
        snap = run_replica(graph, cfg, rng=1000 + r, measured=interior)
        assert np.array_equal(snap.masks, inner[:, interior])
        # an arrival found the stack at its previous top, the height below
        arrivals += sum(len(s) for s in stacks)
        saturated += sum(h >= cfg.depth for s in stacks for h in s[:-1])
    if horizon > 4.0:
        # most arrivals take the skip path
        assert saturated >= arrivals / 2, (saturated, arrivals)


def _prefix_masks(neighbors, cone, sites, bounds, measured, depth):
    """Measured masks when only the arrivals at vertex ids below cone settle."""
    inside = np.asarray(sites) < cone
    kept = np.concatenate(([0], np.cumsum(inside)))[bounds].tolist()
    sub = np.asarray(sites)[inside].tolist()
    return np.array(_settle(neighbors, sub, kept, measured, depth))


def _root_masks_on_ball(radius, sites, bounds, depth):
    """Root masks from the arrivals that land in the radius-`radius` ball of T_3."""
    ball = build_regular_ball(3, radius)
    return _prefix_masks(ball.neighbors, ball.vertex_count, sites, bounds, (0,), depth)


def test_light_cone_decides_the_lowest_layers():
    # the lowest L layers at a vertex depend only on the arrivals within
    # distance L of it.  Breadth-first numbering makes the radius-L ball the
    # first vertices of the radius-9 ball, so dropping every arrival outside
    # it must leave the root's lowest L layers exactly as they were.
    big = build_regular_ball(3, 9)
    cfg = SimConfig(horizon=3.0, sample_times=(0.5, 1.0, 2.0, 3.0))
    too_small = 0
    for seed in range(100):
        sites, bounds = _arrival_stream(big.vertex_count, cfg, np.random.default_rng(seed))
        full = np.array(_settle(big.neighbors, sites, bounds, (0,), 4))
        for depth in range(1, 5):
            low = full & ((1 << depth) - 1)
            assert np.array_equal(_root_masks_on_ball(depth, sites, bounds, depth), low)
        # negative control: the radius-1 ball does not decide layer 2
        too_small += not np.array_equal(_root_masks_on_ball(1, sites, bounds, 2), full & 3)
    assert too_small > 0


def _with_arrivals_outside(sites, bounds, times, cone, n, rng):
    """The stream with arrivals at ids in [cone, n) inserted at random
    positions of every segment between sample times, as many as a stream
    drawn over all n vertices would put there."""
    out, new_bounds, prev, t_prev = [], [], 0, 0.0
    for bound, t in zip(bounds, times):
        k = rng.poisson((n - cone) * (t - t_prev))
        at = rng.integers(0, bound - prev + 1, size=k)
        segment = np.asarray(sites[prev:bound], dtype=np.int64)
        out += np.insert(segment, at, rng.integers(cone, n, size=k)).tolist()
        new_bounds.append(len(out))
        prev, t_prev = bound, t
    return out + list(sites[prev:]), new_bounds


@pytest.mark.parametrize(
    "build, measure, seeds",
    [
        (lambda seed: build_regular_ball(3, radius=7, buffer=4), "interior", 30),
        (lambda seed: build_random_ball(TWO_THREE, radius=8, buffer=4, rng=seed), "interior", 30),
        # a single vertex rarely needs layer 4's whole cone: 10 of the first
        # 300 seeds do, so the control needs more of them
        (lambda seed: build_random_ball(TWO_THREE, radius=8, buffer=4, rng=seed), "root", 200),
    ],
    ids=["regular_interior", "random_interior", "random_root"],
)
@pytest.mark.parametrize(
    "observed", [{}, {"layers": (1,), "patterns": ("0101",)}], ids=["depth2", "depth4"]
)
def test_light_cone_filter_is_exact(build, measure, seeds, observed):
    # run_replica draws arrivals only within distance depth of a measured
    # vertex, and its masks are those of settling that stream.  Arrivals
    # outside the cone cannot reach the measured layers: inserting them
    # anywhere in the run's own stream, at the rate of the whole ball, must
    # leave the masks as they are at every sample time.  Negative control:
    # the cone one level shallower misses arrivals that matter.
    cfg = SimConfig(horizon=4.0, sample_times=(0.5, 1.0, 2.0, 4.0), measure=measure, **observed)
    depth = cfg.depth
    extra = np.random.default_rng(99)
    too_small = inserted = partial_cones = 0
    for seed in range(seeds):
        graph = build(seed)
        measured = graph.interior if measure == "interior" else (graph.root,)
        reach = max(graph.depth[v] for v in measured) + cfg.depth
        cone = sum(d <= reach for d in graph.depth)
        sites, bounds = _arrival_stream(cone, cfg, np.random.default_rng(seed))
        snap = run_replica(graph, cfg, rng=seed)
        assert snap.measured == tuple(measured)
        assert np.array_equal(snap.masks, _settle(graph.neighbors, sites, bounds, measured, depth))
        more, more_bounds = _with_arrivals_outside(
            sites, bounds, cfg.sample_times, cone, graph.vertex_count, extra
        )
        inserted += len(more) - len(sites)
        partial_cones += cone < graph.vertex_count
        assert np.array_equal(
            snap.masks, _settle(graph.neighbors, more, more_bounds, measured, depth)
        )
        shallower = sum(d < reach for d in graph.depth)
        short = _prefix_masks(graph.neighbors, shallower, sites, bounds, measured, depth)
        too_small += not np.array_equal(short, snap.masks)
    assert too_small > 0
    # the exactness half is vacuous only where every cone is the whole ball
    assert (inserted > 0) == (partial_cones > 0)


@pytest.mark.parametrize("measure", ["interior", "root"])
@pytest.mark.parametrize(
    "observed, cones",
    [({}, {"interior": 94, "root": 10}),
     ({"layers": (1,), "patterns": ("0101",)}, {"interior": 382, "root": 46})],
    ids=["depth2", "depth4"],
)
def test_ball_cut_to_its_light_cone_gives_the_same_masks(measure, observed, cones, monkeypatch):
    # estimate_densities cuts a fixed ball to the light cone of its measured
    # vertices before it runs the replicas.  No arrival lands outside the
    # cone, so each replica of the cut ball equals that of the full one,
    # seed for seed.  The cone of T_3 to level r has 1 + 3(2^r - 1)
    # vertices: interior vertices reach level 3 + depth, the root level depth.
    ball = build_regular_ball(3, radius=7, buffer=4)
    cfg = SimConfig(horizon=4.0, sample_times=(0.5, 1.0, 2.0, 4.0), replicas=8, seed=5,
                    measure=measure, **observed)
    cut = _cut_to_light_cone(ball, cfg)
    assert cut.vertex_count == cones[measure]
    for seed in range(20):
        full, short = run_replica(ball, cfg, rng=seed), run_replica(cut, cfg, rng=seed)
        assert short.measured == full.measured
        assert np.array_equal(short.masks, full.masks)
    # the replicas receive the cut ball, and the estimate is that of the full one
    sent = []
    task = deposit._replica_task
    monkeypatch.setattr(deposit, "_replica_task", lambda args: sent.append(args[0]) or task(args))
    text = estimate_densities(ball, cfg).to_csv_text()
    assert sent == [cut] * cfg.replicas
    monkeypatch.setattr(deposit, "_cut_to_light_cone", lambda graph, config: graph)
    assert estimate_densities(ball, cfg).to_csv_text() == text
    assert sent[cfg.replicas:] == [ball] * cfg.replicas
    if cut.vertex_count < ball.vertex_count:
        assert len(pickle.dumps(cut)) < len(pickle.dumps(ball))


# -- arrival process -----------------------------------------------------------


def test_arrival_counts_are_poisson():
    # with iid uniform sites and a Poisson(n*T) event total, per-vertex
    # counts are independent Poisson(T); chi-square at T = 2, 6 dof
    cfg = SimConfig(horizon=2.0, sample_times=(2.0,), layers=(1,))
    sites, bounds = _arrival_stream(1000, cfg, np.random.default_rng(5))
    assert bounds == [len(sites)] and sites
    counts = np.bincount(sites, minlength=1000)
    cells = [0] * 7
    for c in counts.tolist():
        cells[min(c, 6)] += 1
    pmf = [math.exp(-2.0) * 2.0 ** k / math.factorial(k) for k in range(6)]
    expected = [1000 * p for p in pmf] + [1000 * (1 - sum(pmf))]
    assert min(expected) > 5
    chi2 = sum((o - e) ** 2 / e for o, e in zip(cells, expected))
    assert chi2 < 22.5, (chi2, cells)


def test_snapshots_are_cumulative():
    g = build_cycle(200)
    cfg = SimConfig(horizon=3.0, sample_times=(0.5, 1.0, 2.0, 3.0))
    snap = run_replica(g, cfg, rng=11)
    for i in range(3):
        # occupied layers only grow
        assert np.all(snap.masks[i] & ~snap.masks[i + 1] == 0)


def test_layer_one_sites_form_an_independent_set():
    # a particle settles at height 1 only when its closed neighborhood is
    # empty, so no two adjacent sites can both carry a layer-1 particle
    n = 300
    g = build_cycle(n)
    cfg = SimConfig(horizon=5.0, sample_times=(1.0, 5.0))
    for r in range(5):
        snap = run_replica(g, cfg, rng=50 + r)
        for row in snap.masks:
            bit1 = row & 1
            assert not np.any(bit1 & np.roll(bit1, 1))


def test_masks_stay_below_depth():
    # layers 1 and 2 give depth 2: settling the same stream untruncated
    # reaches higher layers, and truncation drops exactly those bits
    g = build_cycle(30)
    cfg = SimConfig(horizon=12.0, sample_times=(12.0,), layers=(1, 2))
    snap = run_replica(g, cfg, rng=2)
    sites, bounds = _arrival_stream(30, cfg, np.random.default_rng(2))
    deep = np.array(_settle(g.neighbors, sites, bounds, range(30), MAX_TRACKED_LAYERS))
    assert np.all(snap.masks < 1 << cfg.depth)
    assert np.count_nonzero(deep >= 1 << cfg.depth) > 10
    assert np.array_equal(snap.masks, deep & 3)


def test_small_cycle_is_rejected():
    # a cycle shorter than the depth-L light cone, 2L + 1 vertices, wraps around
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), layers=(3,))
    with pytest.raises(ValueError, match="n >= 7"):
        run_replica(build_cycle(6), cfg, rng=0)
    assert run_replica(build_cycle(7), cfg, rng=0).masks.shape == (1, 7)


def test_measured_override():
    g = build_cycle(50)
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,))
    snap = run_replica(g, cfg, rng=0, measured=[3, 7])
    assert snap.measured == (3, 7)
    assert snap.masks.shape == (1, 2)


# -- estimates -----------------------------------------------------------------


def test_layer_one_density_on_cycle():
    # exact interior curve: (1 - exp(-3t)) / 3
    g = build_cycle(500)
    cfg = SimConfig(
        horizon=3.0, sample_times=(0.5, 1.0, 3.0), replicas=120, seed=3, layers=(1,)
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
    cfg = SimConfig(
        horizon=8.0, sample_times=(8.0,), replicas=100, seed=9, layers=(), patterns=("11",)
    )
    curve = estimate_densities(g, cfg)
    (name, points), = curve.series
    assert name == "pattern:11"
    p = points[0]
    assert abs(p.mean - 1 / 9) < 4 * p.stderr + 0.002


def test_estimates_are_deterministic():
    g = build_cycle(120)
    cfg = SimConfig(horizon=2.0, sample_times=(1.0, 2.0), replicas=10, seed=4,
                    layers=(1, 2), patterns=("0101",))
    a = estimate_densities(g, cfg)
    b = estimate_densities(g, cfg)
    assert a == b
    assert a.to_csv_text() == b.to_csv_text()


def test_seed_changes_the_estimate():
    g = build_cycle(120)
    cfg = SimConfig(horizon=2.0, sample_times=(2.0,), replicas=10, seed=4)
    other = SimConfig(horizon=2.0, sample_times=(2.0,), replicas=10, seed=5)
    assert estimate_densities(g, cfg) != estimate_densities(g, other)


def test_stderr_shrinks_with_replicas():
    g = build_cycle(300)
    small = SimConfig(horizon=2.0, sample_times=(2.0,), replicas=50, seed=6, layers=(1,))
    big = SimConfig(horizon=2.0, sample_times=(2.0,), replicas=200, seed=6, layers=(1,))
    se_small = estimate_densities(g, small).series[0][1][0].stderr
    se_big = estimate_densities(g, big).series[0][1][0].stderr
    ratio = se_small / se_big
    assert 1.3 < ratio < 3.0, ratio


def test_single_replica_has_nan_stderr():
    g = build_cycle(50)
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), replicas=1, seed=0)
    curve = estimate_densities(g, cfg)
    assert math.isnan(curve.series[0][1][0].stderr)
    assert curve.series[0][1][0].n == 1


def test_root_measurement():
    g = build_regular_ball(3, radius=4, buffer=1)
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), replicas=4, seed=0, measure="root")
    curve = estimate_densities(g, cfg)
    assert curve.meta["measure"] == "root"
    snap = run_replica(g, SimConfig(horizon=1.0, sample_times=(1.0,), measure="root"), rng=0)
    assert snap.measured == (0,)


def test_root_measurement_needs_a_root():
    g = build_cycle(20)
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), replicas=2, seed=0, measure="root")
    with pytest.raises(ValueError):
        estimate_densities(g, cfg)


def test_random_ball_source_estimates():
    src = RandomBallSource(TWO_THREE, radius=5, buffer=1)
    cfg = SimConfig(horizon=1.0, sample_times=(1.0,), replicas=6, seed=12, measure="root")
    a = estimate_densities(src, cfg)
    b = estimate_densities(src, cfg)
    assert a == b
    assert a.meta["graph"] == src.label
    assert a.series[0][1][0].n == 6


def test_snapshot_observables_shapes():
    g = build_cycle(80)
    cfg = SimConfig(horizon=2.0, sample_times=(1.0, 2.0), layers=(1, 2), patterns=("11",))
    snap = run_replica(g, cfg, rng=1)
    obs = snapshot_observables(snap, cfg)
    assert obs.shape == (3, 2)
    assert np.all(obs >= 0) and np.all(obs <= 1)
