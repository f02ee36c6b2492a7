"""Certified density comparisons: dominance chains and convexity."""

from __future__ import annotations

from fractions import Fraction

import pytest

from screendep.analytic import averaged_densities, betas, regular_densities
from screendep.compare import (
    check_gf_dominance,
    check_jensen,
    check_layer_dominance,
    rho1_limit,
    rho2_limit,
)
from screendep.degree import DegreeDistribution, make_regular

F = Fraction


def test_beta_values_d2():
    assert betas(2) == (F(4, 3), F(1), F(1, 5))


def test_beta_validation():
    with pytest.raises(ValueError):
        betas(1)


def test_limits():
    assert rho1_limit(2) == F(1, 3)
    assert rho2_limit(2) == F(14, 45)
    assert rho2_limit(3) == regular_densities(3).rho2.limit_at_infinity()


def test_alternating_head_closed_form():
    # beta_0 - beta_1 + beta_2 = (d/(d-1))^d * 2(d-1) / ((d+1)(3d-1))
    for d in range(2, 30):
        b = betas(d)
        head = b[0] - b[1] + b[2]
        assert head == F(d, d - 1) ** d * 2 * (d - 1) / ((d + 1) * (3 * d - 1))


def test_layer_dominance_certificate():
    report = check_layer_dominance(d_max=50)
    assert report.passed
    assert report.status == "verified"
    assert len(report.checks) == 49
    assert report.counterexamples() == ()
    first = report.checks[0]
    assert first.label == "d=2"
    assert first.witness["rho2_limit"] == "14/45"
    assert first.witness["head_identity"] is True
    data = report.to_json_dict()
    assert data["status"] == "verified"
    assert data["checks"][0]["witness"]["dominated"] is True


def test_layer_dominance_validation():
    with pytest.raises(ValueError):
        check_layer_dominance(d_max=1)


def test_gf_dominance_regular_pair():
    s, t = make_regular(2), make_regular(3)
    report = check_gf_dominance(s, t)
    assert report.passed
    labels = [c.label for c in report.checks]
    assert any(l.startswith("hypothesis") for l in labels)
    assert any(l.startswith("conclusion") for l in labels)
    for c in report.checks:
        if c.label.startswith("conclusion"):
            assert c.witness["gamma"] > 0
            assert c.witness["identity_residual"] <= 1e-10


def test_gf_dominance_hypothesis_violated():
    s, t = make_regular(2), make_regular(3)
    report = check_gf_dominance(t, s)  # reversed: G_T3 < G_T2 on (0,1)
    assert report.status == "hypothesis-violated"
    assert not report.passed
    assert all(c.label.startswith("hypothesis") for c in report.checks)
    assert len(report.counterexamples()) == len(report.checks)


def test_gf_dominance_equal_laws_violate_strictness():
    d = make_regular(3)
    assert check_gf_dominance(d, d).status == "hypothesis-violated"


def test_jensen_point_mass_is_exact_equality():
    report = check_jensen(3, make_regular(3))
    assert report.passed
    assert any(c.label == "point mass: exact equality" for c in report.checks)


def test_jensen_strict_gain_for_two_atom_law():
    dist = DegreeDistribution.from_pairs({2: "1/2", 4: "1/2"})
    assert dist.mean() == 3
    report = check_jensen(3, dist)
    assert report.passed
    gains = [c.witness["gain"] for c in report.checks if c.label.startswith("dominance")]
    assert gains and all(g > 0 for g in gains)


def test_jensen_mean_mismatch():
    with pytest.raises(ValueError):
        check_jensen(3, DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"}))


def test_widening_spread_increases_the_gain():
    # mean-3 family {2: (k-3)/(k-2), k: 1/(k-2)}: a wider spread at the
    # same mean earns a strictly larger first-layer gain at every t
    rho_reg = regular_densities(3).rho1
    for t in (0.5, 1.0, 3.0):
        gains = []
        for k in (4, 5, 6, 7):
            dist = DegreeDistribution.from_pairs({2: F(k - 3, k - 2), k: F(1, k - 2)})
            assert dist.mean() == 3
            gains.append(averaged_densities(dist).Qrho1.eval(t) - rho_reg.eval(t))
        assert all(g > 0 for g in gains)
        assert all(b > a for a, b in zip(gains, gains[1:]))
