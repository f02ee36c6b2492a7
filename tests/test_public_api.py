"""The public surface is frozen; test-only oracles live in tests/oracles.py."""

import ast
import dataclasses
import inspect
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import screendep
from screendep import (
    DegreeDistribution,
    ExpPoly,
    GraphInstance,
    RandomBallSource,
    SimConfig,
    betas,
    build_cycle,
    build_random_ball,
    build_regular_ball,
    check_jensen,
    check_layer_dominance,
    estimate_densities,
    make_regular,
    regular_densities,
    rho1_limit,
    rho2_limit,
    run_replica,
    s_conditional,
    solve_linear_ode,
)

PUBLIC_NAMES = """
    AveragedDensities ComparisonReport DegreeDistribution DensityCurve ExpPoly
    GraphInstance Motive RandomBallSource RegularDensities ReplicaSnapshot
    SeriesPoint SimConfig TermBudgetError __version__ averaged_densities betas
    build_cycle build_random_ball build_regular_ball check_gf_dominance
    check_jensen check_layer_dominance curve_from_exact estimate_densities
    make_regular parse_atoms pattern_system regular_densities
    rho1_limit rho2_limit run_replica s_conditional solve_linear_ode
    target_probability
""".split()

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_are_frozen_and_resolve():
    assert sorted(screendep.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(screendep, name) is not None


# The knobs of the public surface: each callable's parameter names and each
# dataclass's fields.  A knob added or removed shows up here as a diff.
PUBLIC_KNOBS = {
    "AveragedDensities": ("dist", "QD1", "QD3"),
    "ComparisonReport": ("claim", "params", "status", "checks"),
    "DegreeDistribution": ("atoms",),
    "DensityCurve": ("times", "series", "meta"),
    "ExpPoly": ("terms",),
    "GraphInstance": ("neighbors", "interior", "root", "label"),
    "Motive": ("name", "description", "definition", "closed_form"),
    "RandomBallSource": ("dist", "radius", "buffer"),
    "RegularDensities": ("d", "D1", "D2", "D3"),
    "ReplicaSnapshot": ("measured", "fill_times"),
    "SeriesPoint": ("mean", "stderr", "n"),
    "SimConfig": ("sample_times", "replicas", "seed", "layers", "patterns", "measure"),
    "averaged_densities": ("dist",),
    "betas": ("d",),
    "build_cycle": ("n",),
    "build_random_ball": ("dist", "radius", "buffer", "rng"),
    "build_regular_ball": ("d", "radius", "buffer", "reach"),
    "check_gf_dominance": ("s_dist", "t_dist"),
    "check_jensen": ("d", "s_dist"),
    "check_layer_dominance": ("d_max",),
    "curve_from_exact": ("times", "named_forms", "meta"),
    "estimate_densities": ("graph", "config", "n_jobs"),
    "make_regular": ("d",),
    "parse_atoms": ("text",),
    "pattern_system": ("pattern",),
    "regular_densities": ("d",),
    "rho1_limit": ("d",),
    "rho2_limit": ("d",),
    "run_replica": ("graph", "config", "rng"),
    "s_conditional": ("d",),
    "solve_linear_ode": ("forcing", "lam", "y0"),
    "target_probability": ("pattern",),
}


def _pair(**change) -> GraphInstance:
    return GraphInstance(**{"neighbors": ((1,), (0,)), "interior": (0,), **change})


ONE_REPLICA = SimConfig((1.0,), replicas=1, layers=(1,))


# Every public integer, one row per value it carries: (knob, parameter,
# least value, a call with the value set to x, the name its errors give
# when that is not the parameter's).  Each follows exppoly._count.
PUBLIC_INTEGERS = [
    ("DegreeDistribution", "atoms", 2, lambda x: DegreeDistribution(((x, Fraction(1)),)), "degree"),
    ("ExpPoly", "terms", 0, lambda x: ExpPoly([(x, 0, 1)]), "decay rate"),
    ("ExpPoly", "terms", 0, lambda x: ExpPoly([(0, x, 1)]), "power"),
    ("GraphInstance", "interior", 0, lambda x: _pair(interior=(x,)), "interior vertex"),
    ("GraphInstance", "neighbors", 0, lambda x: _pair(neighbors=((1,), (x,))), "neighbor"),
    ("GraphInstance", "root", 0, lambda x: _pair(root=x), None),
    ("RandomBallSource", "radius", 1, lambda x: RandomBallSource(make_regular(2), x), None),
    ("RandomBallSource", "buffer", 0, lambda x: RandomBallSource(make_regular(2), 2, x), None),
    ("SimConfig", "replicas", 1, lambda x: SimConfig((1.0,), replicas=x), None),
    ("SimConfig", "seed", 0, lambda x: SimConfig((1.0,), seed=x), None),
    ("SimConfig", "layers", 1, lambda x: SimConfig((1.0,), layers=(x,)), None),
    ("betas", "d", 2, betas, None),
    ("build_cycle", "n", 3, build_cycle, None),
    ("build_random_ball", "radius", 1, lambda x: build_random_ball(make_regular(2), x, rng=0), None),
    ("build_random_ball", "buffer", 0, lambda x: build_random_ball(make_regular(2), 2, x, 0), None),
    ("build_random_ball", "rng", 0, lambda x: build_random_ball(make_regular(2), 1, rng=x), None),
    ("build_regular_ball", "d", 2, lambda x: build_regular_ball(x, 1), None),
    ("build_regular_ball", "radius", 1, lambda x: build_regular_ball(2, x), None),
    ("build_regular_ball", "buffer", 0, lambda x: build_regular_ball(2, 2, x), None),
    ("build_regular_ball", "reach", 1, lambda x: build_regular_ball(2, 2, reach=x), None),
    ("check_jensen", "d", 2, lambda x: check_jensen(x, make_regular(2)), None),
    ("check_layer_dominance", "d_max", 2, check_layer_dominance, None),
    ("estimate_densities", "n_jobs", 1, lambda x: estimate_densities(build_cycle(3), ONE_REPLICA, x), None),
    ("make_regular", "d", 2, make_regular, "degree"),
    ("regular_densities", "d", 2, regular_densities, None),
    ("rho1_limit", "d", 2, rho1_limit, None),
    ("rho2_limit", "d", 2, rho2_limit, None),
    ("run_replica", "rng", 0, lambda x: run_replica(build_cycle(3), ONE_REPLICA, x), None),
    ("s_conditional", "d", 2, s_conditional, None),
    ("solve_linear_ode", "lam", 0, lambda x: solve_linear_ode(ExpPoly.zero(), x, 0), "decay coefficient"),
]

# The int-annotated knobs that are not checked value by value, and why.
NOT_CHECKED_BY_VALUE = {
    ("RegularDensities", "d"): "a result, filled by regular_densities",
    ("ReplicaSnapshot", "measured"): "a result, filled by run_replica",
    ("SeriesPoint", "n"): "a result: a replica count or 'exact'",
}


def _holds_numpy_scalar(value) -> bool:
    """Whether a numpy scalar is stored anywhere in value."""
    if isinstance(value, np.generic):
        return True
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, ExpPoly):
        value = value.terms
    elif isinstance(value, Fraction):
        value = (value.numerator, value.denominator)
    elif isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (tuple, list)) and any(map(_holds_numpy_scalar, value))


@pytest.mark.parametrize(
    "knob, param, least, call, named",
    PUBLIC_INTEGERS,
    ids=[f"{k}.{p}" + (f"({n})" if n else "") for k, p, _, _, n in PUBLIC_INTEGERS],
)
def test_public_integers_follow_one_rule(knob, param, least, call, named):
    named = named or param
    for wrong in (True, 1.5, "3"):
        with pytest.raises(TypeError, match=rf"\b{named} must be an int"):
            call(wrong)
    with pytest.raises(ValueError, match=rf"\b{named} must be >= {least}"):
        call(least - 1)
    assert not _holds_numpy_scalar(call(np.int64(least)))


def _int_annotated(obj) -> set[str]:
    if dataclasses.is_dataclass(obj):
        annotations = {f.name: f.type for f in dataclasses.fields(obj) if f.init}
    else:
        annotations = {k: p.annotation for k, p in inspect.signature(obj).parameters.items()}
    return {k for k, a in annotations.items() if re.search(r"\bint\b", str(a))}


def test_every_public_integer_is_in_the_table():
    annotated = {(name, p) for name in PUBLIC_KNOBS for p in _int_annotated(getattr(screendep, name))}
    covered = {row[:2] for row in PUBLIC_INTEGERS}
    assert annotated == covered | set(NOT_CHECKED_BY_VALUE)
    assert not covered & set(NOT_CHECKED_BY_VALUE)


def _knobs(obj) -> tuple[str, ...]:
    # a derived field (init=False) is not a knob
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj) if f.init)
    return tuple(inspect.signature(obj).parameters)


def test_public_knobs_are_frozen():
    # every public name but the version string and the error class has knobs
    knobs = {
        name: _knobs(obj)
        for name in screendep.__all__
        if callable(obj := getattr(screendep, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert knobs == PUBLIC_KNOBS


def _third_party_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"screendep"}


def test_runtime_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    imported = set().union(
        *(_third_party_imports(p) for p in (ROOT / "src" / "screendep").glob("*.py"))
    )
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    assert imported == declared == {"numpy"}


def _unread_imports(path: Path) -> set[str]:
    """Names a module imports and never reads; in the package's
    __init__, a name listed in __all__ counts as read."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    if path.name == "__init__.py":
        read.update(screendep.__all__)
    return imported - read


def test_no_module_imports_a_name_it_never_reads():
    unread = {
        path.name: sorted(names)
        for path in sorted((ROOT / "src" / "screendep").glob("*.py"))
        if (names := _unread_imports(path))
    }
    assert unread == {}
