"""Self-tests of the benchmark:  python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
from tracer import Tracer, resolve

sys.path.insert(0, str(run.SRC))

from screendep import cli, regular_densities, target_probability  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(argv):
    code, text = run.call_cli(argv)
    assert code == 0
    return text


def test_printed_end_to_end_metrics_match_benchmark_json():
    result = _bench("mc-cycle", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _units(SPEC["end_to_end"]) == run.END_TO_END_UNITS


def test_printed_per_layer_metrics_match_benchmark_json():
    result = _bench("mc-cycle", 1)
    assert result["correct"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _units(SPEC["per_layer"])
    assert result["metrics"]["deposit.run_replica.calls"]["value"] == 200


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_wrong_motive_form_fails_the_check():
    text = _cli(["motives", "--pattern", "0101", "--format", "json"])
    good = checks.CheckLog()
    checks.check_motives_json(good, text)
    assert good.attempted > 0 and good.failed == 0

    wrong = dict(checks.FROZEN_0101)
    a, k, c = wrong["gain_open"][0]
    wrong["gain_open"] = ((a, k, c + Fraction(1, 10**9)),) + wrong["gain_open"][1:]
    bad = checks.CheckLog()
    checks.check_motives_json(bad, text, frozen=wrong)
    assert bad.failed == 1
    assert "gain_open" in bad.failures()[0]


def test_wrong_exact_reference_fails_the_monte_carlo_check():
    text = _cli(
        "simulate --graph cycle --n 200 --T 2 --times 1,2 --replicas 40 --seed 5".split()
    )
    line = regular_densities(2)
    good = checks.CheckLog()
    checks.check_mc(good, "cycle", [text], {"layer:1": line.rho1, "layer:2": line.rho2}, 40)
    assert good.failed == 0

    bad = checks.CheckLog()
    wrong = {"layer:1": regular_densities(3).rho1, "layer:2": line.rho2}
    checks.check_mc(bad, "cycle", [text], wrong, 40)
    assert bad.failed == 2  # layer:1 at both times


def test_wrong_degree_law_fails_the_analytic_check():
    grid = (0.5, 1.0, 2.0, 5.0, 20.0)
    text = _cli(["analytic", "--atoms", "2:1/2,3:1/2", "--grid", "0.5,1,2,5,20"])
    good = checks.CheckLog()
    checks.check_analytic(good, "law", text, grid, [(2, 0.5), (3, 0.5)])
    assert good.failed == 0
    bad = checks.CheckLog()
    checks.check_analytic(bad, "law", text, grid, [(2, 0.5), (4, 0.5)])
    assert bad.failed == 2


def _namespaces():
    modules = {
        name: dict(vars(m)) for name, m in sys.modules.items()
        if name == "screendep" or name.startswith("screendep.")
    }
    classes = {
        t.owner: dict(vars(resolve(t.owner)))
        for t in run.TRACE_TARGETS if ":" in t.owner
    }
    return modules, classes


def test_tracer_restores_every_patched_attribute():
    before = _namespaces()
    original = cli.estimate_densities
    with Tracer(run.TRACE_TARGETS) as tracer:
        assert cli.estimate_densities is not original
        target_probability("0101")
        _cli("simulate --graph cycle --n 50 --T 1 --times 1 --replicas 2".split())
    assert not tracer.missing
    assert cli.estimate_densities is original
    after = _namespaces()
    assert after == before
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "deposit.run_replica", "exppoly.mul", "exppoly.solve_linear_ode"} <= names
    assert all(0 <= s.self_s <= s.duration + 1e-9 for s in tracer.spans)


def test_tracer_restores_after_an_exception():
    before = _namespaces()
    with pytest.raises(ZeroDivisionError):
        with Tracer(run.TRACE_TARGETS):
            target_probability("0101").scale(1) / 0
    assert _namespaces() == before
