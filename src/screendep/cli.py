"""Command-line interface: simulate, analytic, motives, compare, validate.

All run parameters can come from flags or from a JSON config file
(--config); flags override file values.  The merged run spec is echoed
into every output file's metadata so a result can be regenerated from the
file alone.  Exit codes: 0 ok, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .acceptance import DEFAULT_SEED, AcceptanceSuite
from .analytic import averaged_densities, regular_densities
from .compare import check_gf_dominance, check_jensen, check_layer_dominance
from .curves import DensityCurve, curve_from_exact, parse_grid
from .degree import make_regular, parse_atoms
from .deposit import SimConfig, estimate_densities
from .graphs import RandomBallSource, build_cycle, build_regular_ball
from .motives import pattern_system, system_json

SIMULATE_DEFAULTS = {
    "replicas": 100,
    "seed": 0,
    "layers": "1,2",
    "patterns": "",
    "buffer": 0,
    "jobs": 1,
    "format": "csv",
    "out": "-",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screendep",
        description="Screened multilayer deposition: simulation, exact curves, certificates.",
    )
    parser.add_argument("--version", action="version", version=f"screendep {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo density/pattern curves")
    sim.add_argument("--graph", choices=("cycle", "regular", "random"))
    sim.add_argument("--n", type=int, help="cycle size")
    sim.add_argument("--d", type=int, help="regular-tree degree")
    sim.add_argument("--atoms", help="degree law 'k:weight[,k:weight...]'")
    sim.add_argument("--R", type=int, dest="radius", help="ball radius")
    sim.add_argument("--buffer", type=int, help="boundary buffer (interior = depth <= R - buffer)")
    sim.add_argument("--T", type=float, dest="horizon", help="time horizon")
    sim.add_argument("--times", help="sample times: comma list or start:step:stop")
    sim.add_argument("--replicas", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--layers", help="layer densities to report, e.g. '1,2'")
    sim.add_argument("--patterns", help="comma list of top-down binary words, e.g. '0101'")
    sim.add_argument("--measure", choices=("interior", "root"))
    sim.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    sim.add_argument("--out", help="output path, '-' for stdout")
    sim.add_argument("--format", choices=("csv", "json"))
    sim.add_argument("--config", help="JSON config file; flags override its values")

    ana = sub.add_parser("analytic", help="exact layer-density curves")
    ana.add_argument("--d", type=int, help="regular-tree degree")
    ana.add_argument("--atoms", help="degree law for tree-averaged curves")
    ana.add_argument("--grid", help="time grid (default 0.25:0.25:10)")
    ana.add_argument("--out", help="output path, '-' for stdout")
    ana.add_argument("--format", choices=("csv", "json"))
    ana.add_argument("--config", help="JSON config file; flags override its values")

    mot = sub.add_parser("motives", help="pattern systems and their closed forms")
    mot.add_argument("--pattern", default=None, help="pattern word (default 0101)")
    mot.add_argument("--show-closed-form", action="store_true", dest="show_closed_form")
    mot.add_argument("--grid", help="also evaluate the target on this time grid")
    mot.add_argument("--out", help="output path, '-' for stdout")
    mot.add_argument("--format", choices=("text", "json", "csv"))
    mot.add_argument("--config", help="JSON config file; flags override its values")

    cmp_ = sub.add_parser("compare", help="comparison certificates")
    cmp_.add_argument("--theorem", type=int, choices=(3, 4, 5), required=True)
    cmp_.add_argument("--dmax", type=int, help="theorem 3: largest degree (default 50)")
    cmp_.add_argument("--s-atoms", dest="s_atoms", help="theorem 4/5: degree law of S")
    cmp_.add_argument("--t-atoms", dest="t_atoms", help="theorem 4: degree law of T")
    cmp_.add_argument("--d", type=int, help="theorem 5: regular degree to compare against")
    cmp_.add_argument("--out", help="write the JSON report here, '-' for stdout")
    cmp_.add_argument("--config", help="JSON config file; flags override its values")

    val = sub.add_parser("validate", help="run the acceptance battery")
    val.add_argument("--quick", action="store_true", help="exact-algebra subset only")
    val.add_argument("--seed", type=int, default=None)
    val.add_argument("--jobs", type=int, default=1)
    return parser


def _merge_config(args: argparse.Namespace, defaults: dict) -> tuple[dict, set[str]]:
    """File values underlie flag values; package defaults fill the rest.

    Returns the merged spec and the keys given by a flag or the file.
    """
    merged = dict(defaults)
    given: set[str] = set()
    flags = {k: v for k, v in vars(args).items() if k not in ("subcommand", "config")}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config {config_path!r} must hold a JSON object")
        unknown = sorted(set(file_values) - set(flags))
        if unknown:
            raise ValueError(f"config {config_path!r} has unknown keys: {', '.join(unknown)}")
        options = _options(args.subcommand)
        for key, value in file_values.items():
            _check_file_value(key, value, options[key])
        merged.update(file_values)
        given.update(file_values)
    for key, value in flags.items():
        if value is not None and value is not False:
            merged[key] = value
            given.add(key)
    return merged, given


def _reject_unread(subcommand: str, given: set[str], unread: tuple[str, ...], why: str) -> None:
    """A given option that the run would not read is a usage error."""
    keys = sorted(given.intersection(unread))
    if not keys:
        return
    options = _options(subcommand)
    names = []
    for key in keys:
        flag = options[key].option_strings[0]
        names.append(flag if flag == "--" + key.replace("_", "-") else f"{flag} (key {key})")
    raise ValueError(f"{why} does not read {', '.join(names)}")


def _options(subcommand: str) -> dict[str, argparse.Action]:
    """The options of a subcommand, keyed by their destination."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[subcommand]._actions}


def _check_file_value(key: str, value, action: argparse.Action) -> None:
    """Reject a config file value that lacks the JSON type of its flag.

    An integer flag takes an integer, a float flag a number, a switch true
    or false, and every other flag a string; a flag with choices takes one
    of them.  Nothing is coerced.
    """
    if action.type is int:
        ok, kind = type(value) is int, "an integer"
    elif action.type is float:
        ok, kind = type(value) in (int, float), "a number"
    elif action.nargs == 0:
        ok, kind = type(value) is bool, "true or false"
    else:
        ok, kind = type(value) is str, "a string"
    if not ok:
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ValueError(f"{key} must be one of {choices}, got {value!r}")


def _parse_layers(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"layers must be a comma list of integers, got {text!r}") from None


def _parse_patterns(text: str) -> tuple[str, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _write(text: str, out: str) -> None:
    """Write text to the file at out, or to stdout when out is '-'."""
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit(curve: DensityCurve, out: str, fmt: str) -> None:
    _write(curve.to_csv_text() if fmt == "csv" else curve.to_json_text(), out)


def cmd_simulate(args: argparse.Namespace) -> int:
    spec, given = _merge_config(args, SIMULATE_DEFAULTS)
    kind = spec.get("graph")
    if kind is None:
        raise ValueError("simulate needs --graph (cycle | regular | random)")
    unread = {
        "cycle": ("d", "atoms", "radius", "buffer"),
        "regular": ("n", "atoms"),
        "random": ("n", "d"),
    }
    _reject_unread("simulate", given, unread[kind], f"--graph {kind}")
    if kind == "cycle":
        if spec.get("n") is None:
            raise ValueError("--graph cycle needs --n")
        graph = build_cycle(spec["n"])
    elif kind == "regular":
        if spec.get("d") is None or spec.get("radius") is None:
            raise ValueError("--graph regular needs --d and --R")
        graph = build_regular_ball(spec["d"], spec["radius"], spec["buffer"])
    else:
        if spec.get("atoms") is None or spec.get("radius") is None:
            raise ValueError("--graph random needs --atoms and --R")
        dist = parse_atoms(spec["atoms"])
        graph = RandomBallSource(dist, spec["radius"], spec["buffer"])

    times_text = spec.get("times")
    horizon = float(spec["horizon"]) if spec.get("horizon") is not None else None
    if times_text is None and horizon is None:
        raise ValueError("simulate needs --times and/or --T")
    times = parse_grid(times_text) if times_text is not None else (horizon,)
    if horizon is None:
        horizon = times[-1]
    measure = spec.get("measure") or ("root" if kind == "random" else "interior")
    config = SimConfig(
        horizon=horizon,
        sample_times=times,
        replicas=spec["replicas"],
        seed=spec["seed"],
        layers=_parse_layers(spec["layers"]),
        patterns=_parse_patterns(spec["patterns"]),
        measure=measure,
    )
    curve = estimate_densities(graph, config, n_jobs=spec["jobs"])
    meta = dict(curve.meta)
    meta["spec"] = {k: v for k, v in sorted(spec.items()) if k not in ("out", "jobs")}
    curve = DensityCurve(times=curve.times, series=curve.series, meta=meta)
    _emit(curve, spec["out"], spec["format"])
    return 0


def cmd_analytic(args: argparse.Namespace) -> int:
    spec, _ = _merge_config(args, {"grid": "0.25:0.25:10", "format": "csv", "out": "-"})
    if (spec.get("d") is None) == (spec.get("atoms") is None):
        raise ValueError("analytic needs exactly one of --d or --atoms")
    grid = parse_grid(spec["grid"])
    if spec.get("d") is not None:
        rd = regular_densities(spec["d"])
        forms = [("layer:1", rd.rho1), ("layer:2", rd.rho2)]
        label = f"regular(d={spec['d']})"
    else:
        av = averaged_densities(parse_atoms(spec["atoms"]))
        forms = [("layer:1", av.Qrho1), ("layer:2", av.Qrho2)]
        label = f"averaged({spec['atoms']})"
    meta = {
        "graph": label,
        "version": __version__,
        "spec": {k: v for k, v in sorted(spec.items()) if k != "out"},
    }
    _emit(curve_from_exact(grid, forms, meta), spec["out"], spec["format"])
    return 0


def cmd_motives(args: argparse.Namespace) -> int:
    spec, given = _merge_config(args, {"pattern": "0101", "format": "text", "out": "-"})
    pattern = spec["pattern"]
    system = pattern_system(pattern)
    fmt = spec["format"]
    if fmt == "csv" and not spec.get("grid"):
        raise ValueError("motives --format csv needs --grid")
    if spec.get("grid") or fmt == "json":
        why = "motives --grid" if spec.get("grid") else "motives --format json"
        _reject_unread("motives", given, ("show_closed_form",), why)
    if spec.get("grid"):
        grid = parse_grid(spec["grid"])
        meta = {
            "graph": "line",
            "version": __version__,
            "spec": {k: v for k, v in sorted(spec.items()) if k != "out"},
        }
        curve = curve_from_exact(
            grid, [(f"pattern:{pattern}", system[-1].closed_form)], meta
        )
        _emit(curve, spec["out"], "json" if fmt == "json" else "csv")
        return 0
    if fmt == "json":
        text = json.dumps(system_json(pattern), sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"pattern {pattern}: {len(system)} motives"]
        for m in system:
            lines.append(f"\n{m.name}: {m.description}")
            lines.append(f"  defined by: {m.definition}")
            if spec.get("show_closed_form"):
                lines.append(f"  closed form: {m.closed_form.render()}")
        target = system[-1].closed_form
        lines.append(f"\ntarget limit: {target.limit_at_infinity()}")
        text = "\n".join(lines) + "\n"
    _write(text, spec["out"])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec, given = _merge_config(args, {"dmax": 50})
    theorem = spec["theorem"]
    unread = {3: ("s_atoms", "t_atoms", "d"), 4: ("dmax", "d"), 5: ("dmax", "t_atoms")}
    _reject_unread("compare", given, unread[theorem], f"--theorem {theorem}")
    if theorem == 3:
        report = check_layer_dominance(spec["dmax"])
    elif theorem == 4:
        if spec.get("s_atoms") is None or spec.get("t_atoms") is None:
            raise ValueError("--theorem 4 needs --s-atoms and --t-atoms")
        report = check_gf_dominance(
            parse_atoms(spec["s_atoms"]), parse_atoms(spec["t_atoms"])
        )
    else:
        if spec.get("d") is None or spec.get("s_atoms") is None:
            raise ValueError("--theorem 5 needs --d and --s-atoms")
        report = check_jensen(spec["d"], parse_atoms(spec["s_atoms"]))

    print(f"claim: {report.claim}")
    print(f"params: {json.dumps(report.params, sort_keys=True)}")
    print(f"status: {report.status} ({len(report.checks)} checks)")
    for check in report.counterexamples():
        print(f"  FAIL {check.label}: {json.dumps(check.witness, sort_keys=True)}")
    if spec.get("out"):
        payload = report.to_json_dict()
        payload["version"] = __version__
        _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", spec["out"])
    return 0 if report.passed else 1


def cmd_validate(args: argparse.Namespace) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    suite = AcceptanceSuite(seed=seed, n_jobs=args.jobs)
    results = suite.run(quick=args.quick)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f" (seed {seed})" if not args.quick else " (quick subset)")
    )
    return 0 if not failed else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "analytic": cmd_analytic,
    "motives": cmd_motives,
    "compare": cmd_compare,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
