"""The public surface is frozen; test-only oracles live in tests/oracles.py."""

import ast
import dataclasses
import inspect
import re
import sys
from pathlib import Path

import pytest

import screendep

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
    "GraphInstance": ("kind", "neighbors", "interior", "root", "depth", "label"),
    "Motive": ("name", "description", "definition", "closed_form"),
    "RandomBallSource": ("dist", "radius", "buffer"),
    "RegularDensities": ("d", "D1", "D2", "D3"),
    "ReplicaSnapshot": ("measured", "masks"),
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


def _knobs(obj) -> tuple[str, ...]:
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
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
