#!/usr/bin/env python3
"""Benchmark of screendep: typical CLI runs replayed in process.

    python3 perfbench/run.py --workload mc-cycle --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py              # every workload, one table, exit 1 on a failed check

Run it from the root of a checkout: the package is imported from ./src,
as the tier-1 tests do.  Each workload calls screendep.cli.main in a loop
for --seconds seconds (at least MIN_REPS times), checks every output
against the exact closed forms (see checks.py) and prints, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics.  The line before it is a report with the environment, the
deterministic counters and the failed checks.

--trace 0 gives the end-to-end metrics:
  wall_s           median wall time of one workload execution (its CLI calls)
  setup_s          median time for a fresh interpreter to import screendep.cli
  cpu_s            median user + system CPU of one execution, pool workers included
  peak_rss_mb      peak RSS of this process plus that of its largest child
  time_to_1e-3_s   wall_s x (stderr / 1e-3)^2 for layer:2 at the last sample
                   time, the per-replica variance pooled over the run's
                   distinct seeds; for exact-sweep, whose forms are exact,
                   it equals wall_s
--trace 1 gives the per-layer metrics: the same loop run untraced, then
traced (tracer.py), with counts and times per workload execution.

Rep i of a run uses CLI seed s_max(i-1,0) drawn from SeedSequence(--seed),
so reps 0 and 1 repeat one seed and must print byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 3
SETUP_REPS = 3
MB = 1024.0  # ru_maxrss is in KiB on Linux

# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class McWorkload:
    argv: str
    jobs: int
    replicas: int
    horizon: float


MC = {
    # The kernel alone: one graph built once, d = 2 with a long horizon so
    # stacks grow past l_track; the only workload with a pattern observable.
    "mc-cycle": McWorkload(
        "simulate --graph cycle --n 1000 --T 10 --times 0.5,1,2,5,10 --patterns 0101",
        jobs=1, replicas=200, horizon=10.0,
    ),
    # The kernel on a 12,286-vertex ball plus the replica driver on two
    # processes, which re-sends the graph with every task chunk.
    "mc-ball-j2": McWorkload(
        "simulate --graph regular --d 3 --R 12 --buffer 4 --times 0.5,1,2,5",
        jobs=2, replicas=100, horizon=5.0,
    ),
    # Many small irregular graphs, one rebuilt per replica, one measured
    # vertex: graph building and per-call overhead dominate.
    "mc-random-root": McWorkload(
        "simulate --graph random --atoms 2:1/2,3:1/2 --R 12 --buffer 4 --times 1,5 --measure root",
        jobs=1, replicas=500, horizon=5.0,
    ),
}

GRID = "0.02:0.02:20"
GRID_TIMES = tuple(round(0.02 * i, 12) for i in range(1, 1001))
WIDE_LAW = "2:1/3,10:1/3,25:1/3"
# The exact side only: ExpPoly products, sums and ODE solves in the analytic
# builders and the motive system, eval on a dense grid, the certificates and
# the quick acceptance subset.  No Monte Carlo, and no seed.
EXACT_SWEEP = (
    f"analytic --atoms 2:1/2,3:1/2 --grid {GRID}",
    f"analytic --atoms {WIDE_LAW} --grid {GRID}",
    f"analytic --d 2 --grid {GRID}",
    f"analytic --d 3 --grid {GRID}",
    f"analytic --d 5 --grid {GRID}",
    f"motives --pattern 0101 --grid {GRID}",
    "motives --pattern 0101 --format json",
    "compare --theorem 3 --dmax 120",
    "compare --theorem 4 --s-atoms 2:1 --t-atoms 3:1",
    "compare --theorem 5 --d 3 --s-atoms 2:1/2,4:1/2",
    "validate --quick",
)

WORKLOADS = (*MC, "exact-sweep")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "time_to_1e-3_s": "s",
}


def sweep_argvs(seed: int) -> list[list[str]]:
    return [cmd.split() for cmd in EXACT_SWEEP]


def mc_argvs(workload: McWorkload, jobs: int):
    def argvs(seed: int) -> list[list[str]]:
        return [
            workload.argv.split()
            + ["--replicas", str(workload.replicas), "--jobs", str(jobs), "--seed", str(seed)]
        ]

    return argvs


def mc_refs(name: str) -> dict:
    from screendep import (
        DegreeDistribution, averaged_densities, regular_densities, target_probability,
    )

    if name == "mc-cycle":
        rd = regular_densities(2)
        return {"layer:1": rd.rho1, "layer:2": rd.rho2, "pattern:0101": target_probability("0101")}
    if name == "mc-ball-j2":
        rd = regular_densities(3)
        return {"layer:1": rd.rho1, "layer:2": rd.rho2}
    av = averaged_densities(DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"}))
    return {"layer:1": av.Qrho1, "layer:2": av.Qrho2}


def rep_seeds(seed: int, repeat_first: bool):
    """CLI seeds for successive reps: distinct 32-bit draws from the run seed."""
    states = np.random.SeedSequence(seed).generate_state(4096).tolist()
    if repeat_first:
        states.insert(0, states[0])
    return states


# -- tracing targets -------------------------------------------------------------


def _count_replica(args, kwargs, snap):
    graph, config = args[0], args[1]
    return {
        "vertices": graph.vertex_count,
        "events": graph.vertex_count * config.horizon,
        "measured": len(snap.measured),
    }


def _count_mul(args, kwargs, result):
    a, b = args
    products = len(a) * len(b) if type(b) is type(a) else len(a)
    return {"products": products, "terms_out": len(result)}


TRACE_TARGETS = (
    Target("screendep.cli", "main", "cli.main"),
    Target("screendep.degree", "parse_atoms", "degree.parse_atoms"),
    Target("screendep.deposit", "estimate_densities", "deposit.estimate_densities"),
    Target("screendep.deposit", "run_replica", "deposit.run_replica", _count_replica),
    Target("screendep.deposit", "snapshot_observables", "deposit.snapshot_observables"),
    Target("screendep.graphs", "build_cycle", "graphs.build_cycle"),
    Target("screendep.graphs", "build_regular_ball", "graphs.build_regular_ball"),
    Target(
        "screendep.graphs", "build_random_ball", "graphs.build_random_ball",
        lambda a, k, g: {"vertices": g.vertex_count},
    ),
    Target("screendep.exppoly:ExpPoly", "__mul__", "exppoly.mul", _count_mul),
    Target("screendep.exppoly:ExpPoly", "__rmul__", "exppoly.mul", _count_mul),
    Target(
        "screendep.exppoly:ExpPoly", "__add__", "exppoly.add",
        lambda a, k, r: {"terms_in": len(a[0]) + len(a[1])},
    ),
    Target(
        "screendep.exppoly:ExpPoly", "eval", "exppoly.eval",
        lambda a, k, r: {"terms": len(a[0])},
    ),
    Target(
        "screendep.exppoly", "solve_linear_ode", "exppoly.solve_linear_ode",
        lambda a, k, r: {"terms_out": len(r)},
    ),
    Target(
        "screendep.analytic", "averaged_densities", "analytic.averaged_densities",
        lambda a, k, r: {"qd2_terms": len(r.QD2)},
    ),
    Target("screendep.analytic", "regular_densities", "analytic.regular_densities"),
    Target("screendep.motives", "pattern_system", "motives.pattern_system"),
    *(
        Target(
            "screendep.compare", fn, f"compare.{fn}",
            lambda a, k, r: {"checks": len(r.checks)},
        )
        for fn in ("check_layer_dominance", "check_gf_dominance", "check_jensen")
    ),
    Target(
        "screendep.acceptance:AcceptanceSuite", "run_criterion", "acceptance.run_criterion",
        lambda a, k, r: {"criterion": r.index},
    ),
    Target("screendep.curves", "curve_from_exact", "curves.curve_from_exact"),
    Target(
        "screendep.curves:DensityCurve", "to_csv_text", "curves.to_csv_text",
        lambda a, k, r: {"bytes": len(r)},
    ),
)
# Wrapped in untraced runs too, for the deterministic counters only: one
# extra call per graph build or per averaged-density build.
COUNT_TARGETS = tuple(
    t for t in TRACE_TARGETS
    if t.name in ("graphs.build_random_ball", "analytic.averaged_densities")
)
LAYERS = (
    "cli", "degree", "deposit", "graphs", "exppoly", "analytic",
    "motives", "compare", "curves", "acceptance",
)
QUICK_CRITERIA = (1, 2, 7, 8)
NO_DRIVER = (
    ("deposit.driver.speedup_j2", 0.0, "ratio"),
    ("deposit.driver.parallel_efficiency", 0.0, "ratio"),
    ("deposit.driver.graph_pickle_bytes", 0.0, "bytes"),
)

# -- running -----------------------------------------------------------------------


@dataclass
class Rep:
    seed: int
    start: float
    wall: float
    cpu: float
    outputs: list  # (exit code, stdout) per CLI call
    digest: str


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def call_cli(argv: list[str]) -> tuple[int, str]:
    from screendep import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def stable_text(argv: list[str], text: str) -> str:
    """The part of a CLI output that must repeat byte for byte: validate's
    criterion lines carry run times, so only its summary line counts."""
    if argv[0] == "validate":
        return text.rstrip("\n").rpartition("\n")[2]
    return text


def run_loop(argvs_for, seeds, seconds: float, min_reps: int) -> list[Rep]:
    """Run the workload once per seed until `seconds` would be exceeded."""
    reps: list[Rep] = []
    begin = perf_counter()
    for seed in seeds:
        cpu0 = cpu_seconds()
        start = perf_counter()
        outputs = [call_cli(argv) for argv in argvs_for(seed)]
        wall = perf_counter() - start
        cpu = cpu_seconds() - cpu0
        digest = hashlib.sha256(
            "".join(
                f"{code}\n{stable_text(argv, text)}"
                for argv, (code, text) in zip(argvs_for(seed), outputs)
            ).encode()
        ).hexdigest()
        reps.append(Rep(seed, start, wall, cpu, outputs, digest))
        typical = statistics.median(r.wall for r in reps)
        if len(reps) >= min_reps and perf_counter() - begin + typical > seconds:
            break
    return reps


def in_rep(spans, rep: Rep, name: str):
    return [s for s in spans if s.name == name and rep.start <= s.start <= rep.start + rep.wall]


def check_identity(log: checks.CheckLog, reps: list[Rep]) -> None:
    """Every rep that repeats a seed must reproduce its output byte for byte."""
    first: dict[int, Rep] = {}
    for rep in reps:
        if rep.seed in first:
            log.record(
                f"byte-identical output at seed {rep.seed}",
                rep.digest == first[rep.seed].digest,
                f"{rep.digest[:12]} != {first[rep.seed].digest[:12]}",
            )
        else:
            first[rep.seed] = rep


def check_exit_codes(log: checks.CheckLog, reps: list[Rep], argvs) -> None:
    for i, argv in enumerate(argvs):
        codes = {rep.outputs[i][0] for rep in reps}
        log.record(f"exit code of {' '.join(argv[:3])}", codes == {0}, f"exit codes {sorted(codes)}")


def check_sweep(log: checks.CheckLog, rep: Rep) -> None:
    grid = GRID_TIMES
    for cmd, (code, text) in zip(EXACT_SWEEP, rep.outputs):
        words = cmd.split()
        try:
            if words[0] == "analytic":
                atoms = (
                    checks.parse_law(words[2]) if words[1] == "--atoms" else [(int(words[2]), 1.0)]
                )
                checks.check_analytic(log, cmd, text, grid, atoms)
            elif words[0] == "motives" and "--grid" in words:
                target = checks.FROZEN_0101["target"]
                checks.check_grid_curve(
                    log, cmd, text, grid,
                    {"pattern:0101": (lambda t: checks.eval_form(target, t), None, checks.FLOAT_TOL)},
                )
            elif words[0] == "motives":
                checks.check_motives_json(log, text)
            elif words[0] == "compare":
                log.record(f"{cmd}: verified", "status: verified" in text, " / ".join(text.splitlines()[:3]))
        except (ValueError, KeyError, TypeError) as exc:
            log.record(f"{cmd}: readable output", False, repr(exc))
    checks.check_exact_limits(log)


def measure_setup() -> list[float]:
    """Fresh-interpreter import times of screendep.cli.

    The benchmark process has imported the package already, so bytecode
    and file caches are warm, as they are for every CLI call but the first."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import screendep.cli"],
            cwd=ROOT, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / MB


def environment() -> dict:
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# -- metrics ------------------------------------------------------------------------


def median_wall(reps: list[Rep]) -> float:
    return statistics.median(r.wall for r in reps)


def per_layer_metrics(spans, traced: list[Rep], untraced: list[Rep], driver) -> dict:
    """Per-layer counts and times per workload execution, from traced reps."""
    per = 1.0 / len(traced)
    wall = sum(r.wall for r in traced)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in group(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in group(name) if s.counts)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def calls_busy(name):
        put(f"{name}.calls", len(group(name)) * per, "count")
        put(f"{name}.busy_s", busy(name) * per, "s")

    rr = "deposit.run_replica"
    calls_busy(rr)
    put(f"{rr}.share", ratio(busy(rr), wall), "ratio")
    durations = sorted(s.duration * 1e3 for s in group(rr))
    cuts = statistics.quantiles(durations, n=100) if len(durations) >= 2 else [0.0] * 99
    put(f"{rr}.p50_ms", cuts[49], "ms")
    put(f"{rr}.p99_ms", cuts[98], "ms")
    put(f"{rr}.vertices", total(rr, "vertices") * per, "count")
    put(f"{rr}.events_expected", total(rr, "events") * per, "count")
    put(f"{rr}.events_per_s", ratio(total(rr, "events"), busy(rr)), "1/s")
    put(f"{rr}.measured_per_call", ratio(total(rr, "measured"), len(group(rr))), "count")
    put("deposit.snapshot_observables.busy_s", busy("deposit.snapshot_observables") * per, "s")
    for name, value, unit in driver:
        put(name, value, unit)

    rb = "graphs.build_random_ball"
    calls_busy(rb)
    put(f"{rb}.vertices", total(rb, "vertices") * per, "count")
    put(f"{rb}.share", ratio(busy(rb), wall), "ratio")
    put("graphs.build_regular_ball.busy_s", busy("graphs.build_regular_ball") * per, "s")
    put("graphs.build_cycle.busy_s", busy("graphs.build_cycle") * per, "s")

    calls_busy("exppoly.mul")
    products = total("exppoly.mul", "products")
    put("exppoly.mul.term_products", products * per, "count")
    put("exppoly.mul.merge_ratio", ratio(total("exppoly.mul", "terms_out"), products), "ratio")
    calls_busy("exppoly.add")
    put("exppoly.add.terms_in", total("exppoly.add", "terms_in") * per, "count")
    calls_busy("exppoly.solve_linear_ode")
    put(
        "exppoly.solve_linear_ode.terms_out",
        total("exppoly.solve_linear_ode", "terms_out") * per, "count",
    )
    calls_busy("exppoly.eval")
    put("exppoly.eval.terms_evaluated", total("exppoly.eval", "terms") * per, "count")
    put(
        "exppoly.eval.terms_per_s",
        ratio(total("exppoly.eval", "terms"), busy("exppoly.eval")), "1/s",
    )

    calls_busy("analytic.averaged_densities")
    put(
        "analytic.averaged_densities.qd2_terms",
        total("analytic.averaged_densities", "qd2_terms") * per, "count",
    )
    calls_busy("analytic.regular_densities")
    put("motives.pattern_system.busy_s", busy("motives.pattern_system") * per, "s")
    for fn in ("check_layer_dominance", "check_gf_dominance", "check_jensen"):
        put(f"compare.{fn}.busy_s", busy(f"compare.{fn}") * per, "s")
        put(f"compare.{fn}.checks", total(f"compare.{fn}", "checks") * per, "count")
    for index in QUICK_CRITERIA:
        seconds = sum(
            s.duration for s in group("acceptance.run_criterion")
            if s.counts and s.counts["criterion"] == index
        )
        put(f"acceptance.run_criterion.c{index}.busy_s", seconds * per, "s")
    put("curves.to_csv_text.busy_s", busy("curves.to_csv_text") * per, "s")
    put("curves.to_csv_text.bytes", total("curves.to_csv_text", "bytes") * per, "bytes")

    self_of = {name: sum(s.self_s for s in group) * per for name, group in by_name.items()}
    put("deposit.estimate_densities.self_s", self_of.get("deposit.estimate_densities", 0.0), "s")
    put("curves.curve_from_exact.self_s", self_of.get("curves.curve_from_exact", 0.0), "s")
    for layer in LAYERS:
        value = sum(v for name, v in self_of.items() if name.split(".")[0] == layer)
        put(f"layer.{layer}.self_s", value, "s")
    put("trace.overhead_s", median_wall(traced) - median_wall(untraced), "s")
    return out


# -- one workload -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, report)."""
    from screendep import cli  # noqa: F401  (imported before any timing)

    log = checks.CheckLog()
    load_before = os.getloadavg()
    mc = MC.get(name)
    pool = mc is not None and mc.jobs > 1
    argvs_for = mc_argvs(mc, mc.jobs) if mc else sweep_argvs
    share = seconds if not trace else seconds / (3 if pool else 2)
    with Tracer(COUNT_TARGETS) as counting:
        reps = run_loop(argvs_for, rep_seeds(seed, True), share, MIN_REPS if not trace else 2)
    rss = peak_rss_mb()
    every = list(reps)

    if trace:
        baseline, driver = reps, NO_DRIVER
        if pool:
            # Spans of pool workers cannot be collected, so the kernel is
            # traced at --jobs 1 and the driver is timed untraced at both.
            from screendep.graphs import build_regular_ball

            argvs_for = mc_argvs(mc, 1)
            baseline = run_loop(argvs_for, rep_seeds(seed, False), share, 1)
            speedup = median_wall(baseline) / median_wall(reps)
            graph_bytes = len(pickle.dumps(build_regular_ball(3, 12, 4)))
            driver = (
                ("deposit.driver.speedup_j2", speedup, "ratio"),
                ("deposit.driver.parallel_efficiency", speedup / mc.jobs, "ratio"),
                ("deposit.driver.graph_pickle_bytes", graph_bytes, "bytes"),
            )
            every += baseline
        with Tracer(TRACE_TARGETS) as tracer:
            traced = run_loop(argvs_for, rep_seeds(seed, False), share, 1)
        every += traced
        metrics = per_layer_metrics(tracer.spans, traced, baseline, driver)

    check_exit_codes(log, every, argvs_for(seed))
    check_identity(log, every)
    counters = count_work(log, name, reps, counting.spans)
    sigma2 = 0.0
    if mc:
        distinct = list({r.seed: r.outputs[0][1] for r in reversed(every)}.values())
        try:
            variance = checks.check_mc(log, name, distinct, mc_refs(name), mc.replicas)
            last = max(t for obs, t in variance if obs == "layer:2")
            sigma2 = variance[("layer:2", last)]
        except (ValueError, KeyError) as exc:
            log.record(f"{name}: readable output", False, repr(exc))
    else:
        check_sweep(log, reps[0])
    counters.update(checks=log.attempted, output_sha256=reps[0].digest)
    if trace and tracer.missing:
        counters["untraced_targets"] = tracer.missing

    if not trace:
        wall = median_wall(reps)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(measure_setup()),
            "cpu_s": statistics.median(r.cpu for r in reps),
            "peak_rss_mb": rss,
            "time_to_1e-3_s": wall * sigma2 / (mc.replicas * 1e-6) if mc else wall,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {**environment(), "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "counters": counters,
        "rep_wall_s": [r.wall for r in every],
        "failures": log.failures(),
    }
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def count_work(log: checks.CheckLog, name: str, reps: list[Rep], spans) -> dict:
    """Deterministic work counts of one CLI execution at the run's first seed.

    Reps 0 and 1 share that seed, so their counts must agree."""
    def per_rep(span_name, key):
        return [
            sum(s.counts[key] for s in in_rep(spans, rep, span_name) if s.counts)
            for rep in reps[:2]
        ]

    if name == "exact-sweep":
        qd2 = per_rep("analytic.averaged_densities", "qd2_terms")
        log.record("QD2 term count repeats at one seed", qd2[0] == qd2[1], str(qd2))
        return {"qd2_terms_per_call": qd2[0]}
    mc = MC[name]
    if name == "mc-random-root":
        vertices = per_rep("graphs.build_random_ball", "vertices")
        log.record("vertex count repeats at one seed", vertices[0] == vertices[1], str(vertices))
        total = vertices[0]
    else:
        from screendep.graphs import build_cycle, build_regular_ball

        graph = build_cycle(1000) if name == "mc-cycle" else build_regular_ball(3, 12, 4)
        total = graph.vertex_count * mc.replicas
    return {
        "replicas_per_call": mc.replicas,
        "vertices_per_call": total,
        "events_expected_per_call": total * mc.horizon,
    }


# -- entry points ---------------------------------------------------------------------


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own interpreter; prints one metric per line."""
    bad = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            bad.append(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:16s} {metric:44s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:16s} checks failed {result['failed']} of {result['attempted']}")
        if not result["correct"]:
            bad.append(f"{name}: {json.loads(lines[-2])['failures']}")
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "screendep" / "__init__.py").is_file():
        print(f"error: no screendep package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)

    sys.path.insert(0, str(SRC))
    result, report = run_workload(args.workload, args.seed, float(seconds), bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
