"""Screened multilayer deposition on cycles and trees.

Particles rain down on the vertices of a graph at unit rate and settle
one above the highest stack in their closed neighborhood, so tall
neighbors screen a site from the lower layers.  The package computes the
time-dependent layer densities and single-site pattern probabilities of
this process two independent ways: exactly, inside a ring of exponential
polynomials with rational coefficients, and by exact Monte Carlo
on finite graphs.  Comparison statements between graph ensembles are
shipped as machine-checked certificates.
"""

from ._version import __version__
from .analytic import (
    AveragedDensities,
    RegularDensities,
    averaged_densities,
    betas,
    regular_densities,
    s_conditional,
)
from .compare import (
    ComparisonReport,
    check_gf_dominance,
    check_jensen,
    check_layer_dominance,
    rho1_limit,
    rho2_limit,
)
from .curves import DensityCurve, SeriesPoint, curve_from_exact
from .degree import DegreeDistribution, make_regular, parse_atoms
from .deposit import ReplicaSnapshot, SimConfig, estimate_densities, run_replica
from .exppoly import ExpPoly, TermBudgetError, solve_linear_ode
from .graphs import (
    GraphInstance,
    RandomBallSource,
    build_cycle,
    build_random_ball,
    build_regular_ball,
)
from .motives import Motive, pattern_system, target_probability

__all__ = [
    "__version__",
    "AveragedDensities",
    "ComparisonReport",
    "DegreeDistribution",
    "DensityCurve",
    "ExpPoly",
    "GraphInstance",
    "Motive",
    "RandomBallSource",
    "RegularDensities",
    "ReplicaSnapshot",
    "SeriesPoint",
    "SimConfig",
    "TermBudgetError",
    "averaged_densities",
    "betas",
    "build_cycle",
    "build_random_ball",
    "build_regular_ball",
    "check_gf_dominance",
    "check_jensen",
    "check_layer_dominance",
    "curve_from_exact",
    "estimate_densities",
    "make_regular",
    "parse_atoms",
    "pattern_system",
    "regular_densities",
    "rho1_limit",
    "rho2_limit",
    "run_replica",
    "s_conditional",
    "solve_linear_ode",
    "target_probability",
]
