"""The public surface is frozen; test-only oracles live in tests/oracles.py."""

import screendep

PUBLIC_NAMES = """
    AveragedDensities ComparisonReport DegreeDistribution DensityCurve ExpPoly
    GraphInstance Motive RandomBallSource RegularDensities ReplicaSnapshot
    SeriesPoint SimConfig TermBudgetError __version__ averaged_densities betas
    build_cycle build_random_ball build_regular_ball check_gf_dominance
    check_jensen check_layer_dominance curve_from_exact estimate_densities
    make_regular parse_atoms pattern_system qd2_quadrature regular_densities
    rho1_limit rho2_limit run_replica s_conditional solve_linear_ode
    target_probability
""".split()


def test_public_names_are_frozen_and_resolve():
    assert sorted(screendep.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(screendep, name) is not None
