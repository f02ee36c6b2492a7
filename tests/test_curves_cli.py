"""Curve serialization and the command-line interface."""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from screendep.analytic import regular_densities
from screendep.cli import build_parser, main
from screendep.curves import (
    CSV_COLUMNS,
    DensityCurve,
    SeriesPoint,
    curve_from_exact,
    parse_grid,
)
from screendep.exppoly import ExpPoly


def demo_curve():
    return DensityCurve(
        times=(0.5, 1.0),
        series=(
            ("layer:1", (SeriesPoint(0.25, 0.01, 40), SeriesPoint(0.3, 0.02, 40))),
            ("pattern:11", (SeriesPoint(0.0, 0.0, 40), SeriesPoint(0.125, 0.005, 40))),
        ),
        meta={"graph": "cycle(n=9)", "seed": 3},
    )


# -- curve record ---------------------------------------------------------------


def test_curve_validation():
    with pytest.raises(ValueError):
        DensityCurve(times=(), series=(("a", ()),))
    with pytest.raises(ValueError):
        DensityCurve(times=(2.0, 1.0), series=(("a", (SeriesPoint(0, 0, 1),) * 2),))
    with pytest.raises(ValueError):
        DensityCurve(times=(1.0,), series=())
    with pytest.raises(ValueError):
        DensityCurve(times=(1.0,), series=(("a", (SeriesPoint(0, 0, 1),) * 2),))


def test_curve_accessors():
    curve = demo_curve()
    assert curve.observables() == ("layer:1", "pattern:11")
    assert curve.get("layer:1")[1].mean == 0.3
    with pytest.raises(KeyError):
        curve.get("layer:9")


def test_csv_layout():
    text = demo_curve().to_csv_text()
    lines = text.splitlines()
    assert lines[0] == '# {"graph": "cycle(n=9)", "seed": 3}'
    assert lines[1] == CSV_COLUMNS
    assert lines[2] == "0.5,layer:1,0.25,0.01,40"
    assert len(lines) == 2 + 4
    assert text.endswith("\n")


def test_csv_round_trip():
    curve = demo_curve()
    back = DensityCurve.from_csv_text(curve.to_csv_text())
    assert back == curve


def test_csv_reader_rejects_bad_header():
    with pytest.raises(ValueError):
        DensityCurve.from_csv_text("time,mean\n1,2\n")


def test_json_round_trip_shape():
    data = demo_curve().to_json_dict()
    assert data["times"] == [0.5, 1.0]
    assert data["series"][1]["observable"] == "pattern:11"
    assert data["series"][1]["points"][1] == {
        "time": 1.0,
        "mean": 0.125,
        "stderr": 0.005,
        "n": 40,
    }


def test_write_is_deterministic():
    assert demo_curve().to_csv_text() == demo_curve().to_csv_text()
    assert demo_curve().to_json_text() == demo_curve().to_json_text()
    assert json.loads(demo_curve().to_json_text())["meta"]["seed"] == 3


def test_curve_from_exact():
    rho1 = regular_densities(2).rho1
    curve = curve_from_exact((0.5, 1.0), [("layer:1", rho1)], {"graph": "T_2"})
    p = curve.get("layer:1")[0]
    assert p.mean == rho1.eval(0.5)
    assert p.stderr == 0.0
    assert p.n == "exact"
    assert curve.meta["kind"] == "exact"
    back = DensityCurve.from_csv_text(curve.to_csv_text())
    assert back.get("layer:1")[0].n == "exact"


def test_parse_grid():
    assert parse_grid("1,2,5") == (1.0, 2.0, 5.0)
    assert parse_grid("0.5:0.5:2") == (0.5, 1.0, 1.5, 2.0)
    assert parse_grid("1:1:1") == (1.0,)
    with pytest.raises(ValueError):
        parse_grid("1:2")
    with pytest.raises(ValueError):
        parse_grid("1:0:5")
    with pytest.raises(ValueError):
        parse_grid("5:1:1")
    for bad in ("nan", "0.5,inf", "0:nan:1", "0:0.5:inf"):
        with pytest.raises(ValueError):
            parse_grid(bad)


# -- command line -----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_cycle_stdout(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--graph", "cycle", "--n", "40", "--T", "2",
        "--times", "1,2", "--replicas", "5", "--seed", "1",
    )
    assert code == 0, err
    curve = DensityCurve.from_csv_text(out)
    assert curve.observables() == ("layer:1", "layer:2")
    assert curve.times == (1.0, 2.0)
    assert curve.meta["graph"] == "cycle(n=40)"
    assert curve.meta["spec"]["replicas"] == 5
    assert curve.meta["spec"]["buffer"] == 0
    assert "out" not in curve.meta["spec"]
    assert all(p.n == 5 for p in curve.get("layer:1"))


def test_simulate_is_reproducible(tmp_path, capsys):
    argv = [
        "simulate", "--graph", "cycle", "--n", "30", "--times", "1,2",
        "--replicas", "4", "--seed", "9", "--patterns", "0101",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    curve = DensityCurve.from_csv_text(a.read_text())
    assert "pattern:0101" in curve.observables()


def test_simulate_regular_ball_json(tmp_path, capsys):
    out_path = tmp_path / "ball.json"
    code, _, err = run_cli(
        capsys,
        "simulate", "--graph", "regular", "--d", "3", "--R", "4", "--buffer", "1",
        "--times", "1", "--replicas", "3", "--format", "json", "--out", str(out_path),
    )
    assert code == 0, err
    data = json.loads(out_path.read_text())
    assert data["meta"]["graph"] == "regular_ball(d=3,R=4,B=1)"
    assert data["meta"]["measure"] == "interior"
    assert [s["observable"] for s in data["series"]] == ["layer:1", "layer:2"]


def test_simulate_random_defaults_to_root(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--graph", "random", "--atoms", "2:1/2,3:1/2", "--R", "4",
        "--times", "1", "--replicas", "3",
    )
    assert code == 0, err
    curve = DensityCurve.from_csv_text(out)
    assert curve.meta["measure"] == "root"


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "40", "--times", "1"),
        ("simulate", "--graph", "cycle", "--times", "1"),
        ("simulate", "--graph", "cycle", "--n", "40"),
        ("simulate", "--graph", "regular", "--d", "3", "--times", "1"),
        ("simulate", "--graph", "random", "--R", "4", "--times", "1"),
        ("simulate", "--graph", "cycle", "--n", "3", "--times", "1"),
        ("simulate", "--graph", "cycle", "--n", "40", "--T", "nan"),
        ("simulate", "--graph", "cycle", "--n", "40", "--times", "1,nan"),
        ("simulate", "--graph", "cycle", "--n", "40", "--T", "2", "--times", "1,nan"),
        ("simulate", "--graph", "cycle", "--n", "5", "--times", "1", "--layers", "3"),
        ("simulate", "--graph", "cycle", "--n", "8", "--times", "1", "--patterns", "0101"),
        ("simulate", "--graph", "cycle", "--n", "40", "--times", "1", "--jobs", "0"),
    ],
)
def test_simulate_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--graph", "cycle", "--n", "30", "--d", "7"), "--d"),
        (("--graph", "cycle", "--n", "30", "--R", "3"), "--R"),
        (("--graph", "cycle", "--n", "30", "--atoms", "2:1"), "--atoms"),
        (("--graph", "cycle", "--n", "30", "--buffer", "0"), "--buffer"),
        (("--graph", "regular", "--d", "3", "--R", "4", "--n", "30"), "--n"),
        (("--graph", "regular", "--d", "3", "--R", "4", "--atoms", "2:1"), "--atoms"),
        (("--graph", "random", "--atoms", "2:1", "--R", "4", "--n", "30"), "--n"),
        (("--graph", "random", "--atoms", "2:1", "--R", "4", "--d", "3"), "--d"),
    ],
)
def test_simulate_rejects_options_the_graph_does_not_read(capsys, argv, named):
    code, out, err = run_cli(capsys, "simulate", *argv, "--times", "1", "--replicas", "2")
    assert code == 2
    assert out == ""
    assert named in err


def test_simulate_rejects_unread_config_keys(tmp_path, capsys):
    # a file key is rejected like its flag, even at the default value
    _assert_config_rejected(
        tmp_path, capsys, "simulate",
        {"graph": "cycle", "n": 30, "times": "1", "buffer": 0, "radius": 3}, "radius",
    )
    _assert_config_rejected(
        tmp_path, capsys, "simulate", {"graph": "cycle", "n": 30, "times": "1", "buffer": 0}, "buffer"
    )


def test_analytic_regular(capsys):
    code, out, err = run_cli(capsys, "analytic", "--d", "2", "--grid", "0.5,1,2")
    assert code == 0, err
    curve = DensityCurve.from_csv_text(out)
    rd = regular_densities(2)
    assert curve.get("layer:1")[2].mean == rd.rho1.eval(2.0)
    assert curve.get("layer:2")[0].mean == rd.rho2.eval(0.5)
    assert all(p.n == "exact" for p in curve.get("layer:1"))


def test_analytic_averaged(capsys):
    code, out, err = run_cli(
        capsys, "analytic", "--atoms", "2:1/2,3:1/2", "--grid", "1,2"
    )
    assert code == 0, err
    curve = DensityCurve.from_csv_text(out)
    assert curve.meta["graph"] == "averaged(2:1/2,3:1/2)"


@pytest.mark.parametrize(
    "argv",
    [
        ("analytic",),
        ("analytic", "--d", "2", "--atoms", "2:1"),
        ("analytic", "--d", "1"),
        ("analytic", "--d", "2", "--grid", "2:0:1"),
        ("analytic", "--d", "2", "--grid", "nan"),
        ("analytic", "--d", "2", "--grid", "0.5,inf"),
    ],
)
def test_analytic_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_motives_text(capsys):
    code, out, err = run_cli(capsys, "motives")
    assert code == 0, err
    assert "pattern 0101: 10 motives" in out
    assert "target limit: 34/735" in out
    assert "closed form:" not in out


def test_motives_show_closed_form(capsys):
    code, out, _ = run_cli(capsys, "motives", "--show-closed-form")
    assert code == 0
    assert "closed form:" in out
    assert "34/735" in out


def test_motives_json(capsys):
    code, out, _ = run_cli(capsys, "motives", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["limit"] == "34/735"
    assert ExpPoly.from_json_dict(data["motives"][-1]["closed_form"]).limit_at_infinity() == pytest.approx(34 / 735)


def test_motives_grid_curve(capsys):
    code, out, _ = run_cli(capsys, "motives", "--grid", "1,2")
    assert code == 0
    curve = DensityCurve.from_csv_text(out)
    assert curve.observables() == ("pattern:0101",)
    assert curve.get("pattern:0101")[0].mean == pytest.approx(
        34 / 735 - (1991 / 432) * math.exp(-3) + (235 / 144) * math.exp(-3)
        + 9 * math.exp(-4) - (121 / 40 + 3 / 2) * math.exp(-5)
        + (17 / 27 + 4 / 9) * math.exp(-6) - (33 / 784 + 5 / 112) * math.exp(-7),
        abs=1e-12,
    )


@pytest.mark.parametrize("argv", [("--grid", "1,2"), ("--format", "json")])
def test_motives_rejects_an_unread_show_closed_form(capsys, argv):
    # only the text listing prints closed forms
    code, out, err = run_cli(capsys, "motives", *argv, "--show-closed-form")
    assert code == 2
    assert out == ""
    assert "--show-closed-form" in err


def test_motives_unknown_pattern(capsys):
    code, _, err = run_cli(capsys, "motives", "--pattern", "0110")
    assert code == 2
    assert "error:" in err
    # the message is printed as it is, not in the quotes str(KeyError) adds
    code, out, err = run_cli(capsys, "motives", "--pattern", "11")
    assert code == 2
    assert out == ""
    assert err == "error: no motive system for pattern '11'; known: ('0101',)\n"


def test_motives_csv_needs_a_grid(capsys):
    # without --grid there is no curve to write as CSV
    code, out, err = run_cli(capsys, "motives", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "--grid" in err


def test_compare_theorem_3(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "compare", "--theorem", "3", "--dmax", "10", "--out", str(report_path)
    )
    assert code == 0
    assert "status: verified" in out
    data = json.loads(report_path.read_text())
    assert data["passed"] is True
    assert "version" in data
    code, out, _ = run_cli(capsys, "compare", "--theorem", "3", "--dmax", "10", "--out", "-")
    assert code == 0
    assert json.loads(out[out.index("\n{\n") + 1 :]) == data


def test_compare_theorem_4(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--theorem", "4", "--s-atoms", "2:1", "--t-atoms", "3:1"
    )
    assert code == 0
    assert "status: verified (3 checks)" in out


def test_compare_theorem_4_hypothesis_violated(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--theorem", "4", "--s-atoms", "3:1", "--t-atoms", "2:1"
    )
    assert code == 1
    assert "status: hypothesis-violated" in out
    assert "FAIL hypothesis" in out


@pytest.mark.parametrize("s_atoms", ["2:49/100,4:51/100", "2:9/20,4:11/20"])
def test_compare_theorem_4_hypothesis_fails_near_t_zero(capsys, s_atoms):
    # G_S < G_T on (w2/w4, 1), i.e. for small t > 0 only
    code, out, _ = run_cli(
        capsys, "compare", "--theorem", "4", "--s-atoms", s_atoms, "--t-atoms", "3:1"
    )
    assert code == 1
    assert "status: hypothesis-violated (1 checks)" in out


def test_compare_takes_no_grid(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--theorem", "4", "--s-atoms", "2:1", "--t-atoms", "3:1",
              "--grid", "0.5,1"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"s_atoms": "2:1", "t_atoms": "3:1", "grid": "0.5,1"}))
    code, out, err = run_cli(capsys, "compare", "--theorem", "4", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "grid" in err


def test_compare_theorem_5(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--theorem", "5", "--d", "3", "--s-atoms", "2:1/2,4:1/2"
    )
    assert code == 0
    assert "status: verified" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--theorem", "4", "--s-atoms", "2:1"),
        ("compare", "--theorem", "5", "--s-atoms", "2:1/2,4:1/2"),
        ("compare", "--theorem", "5", "--d", "4", "--s-atoms", "2:1/2,4:1/2"),
    ],
)
def test_compare_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--theorem", "3", "--s-atoms", "2:1"), "--s-atoms"),
        (("--theorem", "3", "--d", "3"), "--d"),
        (("--theorem", "4", "--s-atoms", "2:1", "--t-atoms", "3:1", "--dmax", "7"), "--dmax"),
        (("--theorem", "4", "--s-atoms", "2:1", "--t-atoms", "3:1", "--d", "3"), "--d"),
        (("--theorem", "5", "--d", "3", "--s-atoms", "2:1/2,4:1/2", "--t-atoms", "9:1"), "--t-atoms"),
        (("--theorem", "5", "--d", "3", "--s-atoms", "2:1/2,4:1/2", "--dmax", "7"), "--dmax"),
    ],
)
def test_compare_rejects_options_the_theorem_does_not_read(capsys, argv, named):
    code, out, err = run_cli(capsys, "compare", *argv)
    assert code == 2
    assert out == ""
    assert named in err


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "graph": "cycle", "n": 30, "times": "1,2", "horizon": 2, "replicas": 3, "seed": 11,
    }))
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--replicas", "5"
    )
    assert code == 0, err
    curve = DensityCurve.from_csv_text(out)
    # flag overrides the file, file overrides the defaults
    assert curve.meta["spec"]["replicas"] == 5
    assert curve.meta["spec"]["seed"] == 11
    assert curve.meta["graph"] == "cycle(n=30)"
    # a JSON integer is a number of time units
    assert curve.meta["horizon"] == 2.0


@pytest.mark.parametrize(
    "file_values, key",
    [
        ({"replicas": 2.7}, "replicas"),
        ({"replicas": "3"}, "replicas"),
        ({"replicas": True}, "replicas"),
        ({"n": 30.0}, "n"),
        ({"jobs": 1.5}, "jobs"),
        ({"seed": -1}, "seed"),
        ({"replica": 9}, "replica"),
        ({"l_track": 3}, "l_track"),
        ({"horizon": True}, "horizon"),
        ({"horizon": "2"}, "horizon"),
        ({"patterns": 11}, "patterns"),
        ({"layers": [1, 2]}, "layers"),
        ({"times": [1, 2]}, "times"),
        ({"graph": "tree"}, "graph"),
        ({"format": "xml"}, "format"),
        ({"layers": "1,x"}, "layers"),
    ],
)
def test_config_file_values_are_checked(tmp_path, capsys, file_values, key):
    # a file value must have the JSON type of the flag it stands for and be
    # one of its choices: a count is never truncated, a time or a word is
    # never coerced, an unknown graph or format is never replaced by another,
    # and a key that names no option is never echoed into the output as if
    # it had been used
    _assert_config_rejected(
        tmp_path, capsys, "simulate", {"graph": "cycle", "n": 30, "times": "1", **file_values}, key
    )


@pytest.mark.parametrize(
    "command, file_values, key",
    [
        ("analytic", {"d": 3, "format": "yaml"}, "format"),
        ("motives", {"pattern": 101}, "pattern"),
        ("motives", {"show_closed_form": 1}, "show_closed_form"),
    ],
)
def test_config_file_values_are_checked_in_every_command(
    tmp_path, capsys, command, file_values, key
):
    _assert_config_rejected(tmp_path, capsys, command, file_values, key)


def _assert_config_rejected(tmp_path, capsys, command, file_values, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(file_values))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert key in err


def test_config_file_values_of_every_kind(tmp_path, capsys):
    # a string, an integer, a choice and a switch, each with its JSON type
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pattern": "0101", "format": "text", "show_closed_form": True}))
    code, out, err = run_cli(capsys, "motives", "--config", str(cfg))
    assert code == 0, err
    assert "closed form:" in out
    cfg.write_text(json.dumps({"d": 3, "grid": "1:1:2", "format": "json"}))
    code, out, err = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 0, err
    assert json.loads(out)["meta"]["spec"]["format"] == "json"


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def _readme_commands() -> list[str]:
    """Every `screendep ...` line of the README's sh blocks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    return [
        line for block in blocks for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("screendep ")
    ]


def test_readme_commands_parse():
    # every README command must parse, so a removed flag cannot linger in the docs
    lines = _readme_commands()
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_certificates_verify(capsys):
    # a certificate the README documents must keep verifying
    lines = [line for line in _readme_commands() if line.startswith("screendep compare ")]
    assert len(lines) == 3
    for line in lines:
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        assert "status: verified" in out, line


def test_validate_quick(capsys):
    code, out, _ = run_cli(capsys, "validate", "--quick")
    assert code == 0
    assert "4/4 criteria passed (quick subset)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--seed", "-1"),
        ("--quick", "--seed", "-1"),
        ("--quick", "--jobs", "0"),
        ("--jobs", "0"),
    ],
)
def test_validate_checks_its_arguments_first(capsys, argv):
    # exit 2 before any criterion runs, so nothing is printed
    code, out, err = run_cli(capsys, "validate", *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "screendep" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_import_leaves_scipy_unloaded():
    # scipy is needed only by the quadrature oracle, which imports it on
    # first use; a module-level import would load it for every command.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, screendep.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
