"""The public surface is frozen; test-only oracles live in tests/oracles.py."""

import ast
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
