"""Certified density comparisons: dominance chains and exact sign certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screendep import analytic
from screendep.analytic import averaged_densities, betas, regular_densities
from screendep.compare import (
    _gf_form,
    _positive_for_all_t,
    check_gf_dominance,
    check_jensen,
    check_layer_dominance,
    rho1_limit,
    rho2_limit,
)
from screendep.degree import DegreeDistribution, make_regular, parse_atoms
from screendep.exppoly import ExpPoly

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


def test_first_layer_beats_second_on_two_atom_laws():
    # the abstract's "in all trees" for random trees: the first layer's
    # jamming limit exceeds the second's, exactly, on every two-atom law
    # with degrees 2..8 and weight 1/10, 1/2 or 9/10 on the smaller degree
    laws = 0
    for a in range(2, 9):
        for b in range(a + 1, 9):
            for w in (F(1, 10), F(1, 2), F(9, 10)):
                av = averaged_densities(DegreeDistribution.from_pairs({a: w, b: 1 - w}))
                assert av.Qrho1.limit_at_infinity() > av.Qrho2.limit_at_infinity(), (a, b, w)
                laws += 1
    assert laws == 63


def test_gf_dominance_regular_pair():
    s, t = make_regular(2), make_regular(3)
    report = check_gf_dominance(s, t)
    assert report.passed
    hypothesis, identity, conclusion = report.checks
    assert hypothesis.label.startswith("hypothesis")
    assert identity.label.startswith("identity")
    assert conclusion.label.startswith("conclusion")
    # G_2 - G_3 = x^2 (1 - x); gamma = 1/12 - x^3/3 + x^4/4 has a double root at x = 1
    assert hypothesis.witness == {"root_at_0": 2, "root_at_1": 1, "roots_inside": 0, "sign": 1}
    assert identity.witness == {"equal": True}
    assert conclusion.witness == {"root_at_0": 0, "root_at_1": 2, "roots_inside": 0, "sign": 1}


@pytest.mark.parametrize("s_atoms", ["2:49/100,4:51/100", "2:9/20,4:11/20"])
def test_gf_dominance_hypothesis_fails_near_t_zero(s_atoms):
    # G_S - G_T = x^2 (x - 1)(w4 x - w2) changes sign at x = w2/w4 in (0, 1),
    # that is at a small t > 0 that a grid starting at t = 0.25 never sees
    report = check_gf_dominance(parse_atoms(s_atoms), make_regular(3))
    assert report.status == "hypothesis-violated"
    (check,) = report.checks
    assert check.witness["roots_inside"] == 1


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
    (check,) = report.checks
    assert check.label.startswith("dominance")
    assert check.witness["roots_inside"] == 0
    # (1/3 + 1/5)/2 - 1/4, the Jensen gap of 1/(k+1)
    assert check.witness["limit_gain"] == "1/60"


def test_gf_form_is_the_pgf():
    # G(x) = x^2/2 + x^3/2 at x = e^{-t}: G(1) = 1, G(0) = 0, G(1/2) = 3/16
    g = _gf_form(DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"}))
    assert g == ExpPoly([(2, 0, F(1, 2)), (3, 0, F(1, 2))])
    assert g.at_zero() == 1
    assert g.limit_at_infinity() == 0
    assert sum(c * F(1, 2) ** int(k) for k, _, c in g.terms) == F(3, 16)


def test_certificates_never_expand_qd2(monkeypatch):
    # theorems 4 and 5 read only the first layer, which needs the root's
    # degree alone; the second-layer kernel Z must never be built for them
    calls = []
    real = analytic.z_kernel
    monkeypatch.setattr(analytic, "z_kernel", lambda dist: calls.append(dist) or real(dist))
    wide = parse_atoms("2:1/2,40:1/2")
    assert check_gf_dominance(wide, make_regular(3)).status == "hypothesis-violated"
    assert check_gf_dominance(make_regular(2), make_regular(3)).passed
    assert check_jensen(21, wide).passed
    assert check_jensen(3, make_regular(3)).passed
    assert calls == []


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


# -- the sign certificate -------------------------------------------------------

X = ExpPoly.exp(1)  # x = e^{-t}
ONE = ExpPoly.one()
INSIDE = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda r: 0 < r < 1)


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(0, 3),
    b=st.integers(0, 3),
    c=st.fractions(max_denominator=5).filter(lambda c: c != 0),
    roots=st.lists(INSIDE, max_size=3),
)
def test_certificate_counts_roots_of_built_products(a, b, c, roots):
    # x^a (x - 1)^b c prod (x - r)^2: every r is a root inside (0, 1) at
    # which the form touches zero without changing sign
    form = ExpPoly.exp(a) * (X - ONE) ** b * ExpPoly.constant(c)
    for r in roots:
        form = form * (X - ExpPoly.constant(r)) ** 2
    positive, witness = _positive_for_all_t(form)
    assert witness["root_at_0"] == a
    assert witness["root_at_1"] == b
    assert witness["roots_inside"] == len(set(roots))
    if roots:
        assert not positive
    else:
        assert positive == (c * (-1) ** b > 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=7))
def test_accepted_polynomials_are_positive_inside(coeffs):
    form = ExpPoly((k, 0, c) for k, c in enumerate(coeffs))
    positive, _ = _positive_for_all_t(form)
    if positive:
        for i in range(1, 101):
            x = Fraction(i, 101)
            assert sum(c * x ** k for k, c in enumerate(coeffs)) > 0


@pytest.mark.parametrize(
    "form",
    [ExpPoly.term(1, power=1, rate=2), ExpPoly.term(1, power=2)],
)
def test_certificate_needs_a_polynomial_in_exp_minus_t(form):
    with pytest.raises(ValueError):
        _positive_for_all_t(ONE + form)
