"""Exact layer densities: regular trees, averaged random trees, cross-checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from screendep import analytic
from screendep.acceptance import binomial_qd2
from screendep.analytic import averaged_densities, regular_densities, s_conditional, z_kernel
from screendep.degree import DegreeDistribution, make_regular, parse_atoms
from screendep.exppoly import ExpPoly
from screendep.motives import pattern_system

from oracles import c_integral, d2_rate, qd2_quadrature, rho2_display, two_atom_rho2

F = Fraction

TWO_THREE = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
TWO_THIRDS = DegreeDistribution.from_pairs({2: "1/3", 3: "2/3"})
THREE_SEVEN = DegreeDistribution.from_pairs({3: "1/4", 7: "3/4"})
WIDE = DegreeDistribution.from_pairs({2: "1/2", 40: "1/2"})


def ep(*terms):
    return ExpPoly(terms)


# -- regular tree, frozen d = 2 forms -----------------------------------------


def test_rho1_closed_form():
    r = regular_densities(2)
    assert r.rho1 == ep((0, 0, F(1, 3)), (3, 0, F(-1, 3)))
    assert r.rho1.limit_at_infinity() == F(1, 3)
    # the first layer needs the root's degree alone: D1 + D3 collapses to
    # (1 - e^{-(d+1)t})/(d+1)
    for d in range(2, 51):
        assert regular_densities(d).rho1 == (ExpPoly.one() - ExpPoly.exp(d + 1)) / (d + 1)


def test_code_class_closed_forms_d2():
    r = regular_densities(2)
    assert r.D1 == ep((0, 0, F(2, 9)), (3, 0, F(-2, 9)), (3, 1, F(1, 3)))
    assert r.D3 == ep((0, 0, F(1, 9)), (3, 0, F(-1, 9)), (3, 1, F(-1, 3)))
    assert r.D1.limit_at_infinity() == F(2, 9)
    assert r.D3.limit_at_infinity() == F(1, 9)


def test_rho2_closed_form_d2():
    r = regular_densities(2)
    assert r.rho2 == ep(
        (0, 0, F(14, 45)),
        (3, 0, F(-10, 9)),
        (3, 1, F(-1, 3)),
        (4, 0, F(1)),
        (5, 0, F(-1, 5)),
    )
    assert r.rho2.limit_at_infinity() == F(14, 45)


def test_density_limits_general():
    for d in (2, 3, 7, 20):
        r = regular_densities(d)
        assert r.rho1.limit_at_infinity() == F(1, d + 1)
        assert r.D1.limit_at_infinity() == F(d, (d + 1) ** 2)
        assert r.D3.limit_at_infinity() == F(1, (d + 1) ** 2)
        assert r.rho1.at_zero() == 0
        assert r.rho2.at_zero() == 0


def test_rho_derivative_identities():
    # rho1' = e^{-(d+1)t} and rho2' = (code-2 inflow) + t e^{-(d+1)t}
    for d in (2, 3, 5):
        r = regular_densities(d)
        assert r.rho1.derivative() == ExpPoly.exp(d + 1)
        assert r.rho2.derivative() == d2_rate(d) + ExpPoly.term(1, power=1, rate=d + 1)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 50])
def test_alternating_sum_matches_integrated_rate(d):
    # the binomial expansion of the inflow rate is exactly the
    # alternating-beta display
    assert regular_densities(d).D2 == d2_rate(d).integrate0()


def test_rho2_matches_alternating_display():
    for d in range(2, 51):
        assert regular_densities(d).rho2 == rho2_display(d)


def test_layer_one_dominates_layer_two_on_a_grid():
    for d in (2, 3, 5, 10, 20, 50):
        r = regular_densities(d)
        for i in range(1, 101):
            t = 0.1 * i
            assert r.rho1.eval(t) > r.rho2.eval(t) > 0


def test_s_conditional():
    assert s_conditional(2) == ExpPoly.exp(1) - ExpPoly.exp(2)
    assert s_conditional(4) == (ExpPoly.exp(1) - ExpPoly.exp(4)) / 3
    with pytest.raises(ValueError):
        s_conditional(1)


@pytest.mark.parametrize("fn", [regular_densities, d2_rate])
def test_degree_bounds(fn):
    with pytest.raises(ValueError):
        fn(1)


# -- averaged densities on random trees ------------------------------------------


def test_point_mass_reduces_to_regular():
    for d in (2, 3, 4):
        av = averaged_densities(make_regular(d))
        r = regular_densities(d)
        assert av.Qrho1 == r.rho1
        assert av.Qrho2 == r.rho2
        assert av.QD1 == r.D1
        assert av.QD2 == r.D2
        assert av.QD3 == r.D3


def test_z_kernel_two_atoms():
    z = z_kernel(TWO_THREE)
    assert z == ep((1, 0, F(1, 2)), (2, 0, F(1, 4)))
    assert z.at_zero() == F(3, 4)


def test_averaged_rho1():
    av = averaged_densities(TWO_THREE)
    assert av.Qrho1 == ep(
        (0, 0, F(7, 24)), (3, 0, F(-1, 6)), (4, 0, F(-1, 8))
    )
    assert av.Qrho1.limit_at_infinity() == F(7, 24)


@pytest.mark.parametrize("dist", [TWO_THREE, TWO_THIRDS, THREE_SEVEN, WIDE])
def test_averaged_rho1_is_the_averaged_closed_form(dist):
    # Qrho1 = sum_d a_d (1 - e^{-(d+1)t})/(d+1)
    expected = ExpPoly.zero()
    for d, w in dist.atoms:
        expected = expected + ((ExpPoly.one() - ExpPoly.exp(d + 1)) / (d + 1)).scale(w)
    assert averaged_densities(dist).Qrho1 == expected


def test_qd2_is_expanded_once_and_only_when_read(monkeypatch):
    calls = []
    real = analytic.z_kernel
    monkeypatch.setattr(analytic, "z_kernel", lambda dist: calls.append(dist) or real(dist))
    av = averaged_densities(WIDE)
    assert av.Qrho1.limit_at_infinity() == F(1, 6) + F(1, 82)
    assert calls == []
    assert av.QD2 is av.QD2
    assert av.Qrho2 == av.QD2 + av.QD3
    assert calls == [WIDE]


def test_averaged_rho1_derivative_is_pgf_weighted():
    # Qrho1'(t) = sum_k a_k e^{-(k+1)t} = e^{-t} G(e^{-t})
    for dist in (TWO_THREE, TWO_THIRDS, THREE_SEVEN):
        av = averaged_densities(dist)
        expected = ExpPoly((d + 1, 0, w) for d, w in dist.atoms)
        assert av.Qrho1.derivative() == expected


def test_averaged_rho2_limit_two_three():
    av = averaged_densities(TWO_THREE)
    assert av.Qrho2.limit_at_infinity() == F(85717, 322560)
    assert av.Qrho2.at_zero() == 0


def _integer_mean_laws():
    """The two-atom laws on 2 <= a < b <= 8 with weight k/(b - a) on a, whose
    mean b - k is an integer, and two laws with three atoms."""
    for b in range(3, 9):
        for a in range(2, b):
            for k in range(1, b - a):
                yield DegreeDistribution.from_pairs({a: F(k, b - a), b: 1 - F(k, b - a)})
    yield DegreeDistribution.from_pairs({2: "1/3", 3: "1/3", 4: "1/3"})
    yield DegreeDistribution.from_pairs({2: "1/2", 3: "1/4", 5: "1/4"})


def test_second_layer_random_minus_regular_starts_at_minus_variance():
    """An observed identity, not yet derived: for a law D with integer mean
    d, g = Qrho2 - rho2 on T_d has g(0) = g'(0) = g''(0) = 0 and
    g'''(0) = -Var(D), so the regular tree leads at small t."""
    laws = list(_integer_mean_laws())
    assert len(laws) == 37
    for dist in laws:
        mean = dist.mean()
        assert mean.denominator == 1
        variance = sum(w * (d - mean) ** 2 for d, w in dist.atoms)
        g = averaged_densities(dist).Qrho2 - regular_densities(int(mean)).rho2
        derivatives = [g]
        for _ in range(3):
            derivatives.append(derivatives[-1].derivative())
        assert [h.at_zero() for h in derivatives] == [0, 0, 0, -variance], dist.label()


@pytest.mark.parametrize(
    "dist",
    [
        TWO_THREE,
        TWO_THIRDS,
        THREE_SEVEN,
        make_regular(3),
        DegreeDistribution.from_pairs({2: "1/4", 4: "3/4"}),
        DegreeDistribution.from_pairs({2: "1/2", 9: "1/2"}),
    ],
)
def test_product_form_qd2_matches_binomial_expansion(dist):
    assert averaged_densities(dist).QD2 == binomial_qd2(dist)


@pytest.mark.parametrize("dist", [TWO_THREE, TWO_THIRDS, THREE_SEVEN])
def test_two_atom_closed_form_matches_expansion(dist):
    assert two_atom_rho2(dist) == averaged_densities(dist).Qrho2


def test_two_atom_requires_two_atoms():
    with pytest.raises(ValueError):
        two_atom_rho2(make_regular(3))


@pytest.mark.parametrize(
    "dist",
    [
        TWO_THREE,
        DegreeDistribution.from_pairs({2: "1/4", 4: "3/4"}),
        make_regular(3),
        THREE_SEVEN,
    ],
)
def test_quadrature_agrees_with_exact_expansion(dist):
    qd2 = averaged_densities(dist).QD2
    for t in (0.5 * i for i in range(1, 21)):
        assert abs(qd2.eval(t) - qd2_quadrature(dist, t)) < 1e-10, t
    assert qd2_quadrature(dist, 0.0) == 0.0
    with pytest.raises(ValueError):
        qd2_quadrature(dist, -1.0)


def test_c_integral_base_case():
    got = c_integral(TWO_THREE, 0, 3)
    assert got == ep((0, 0, F(1, 4)), (4, 0, F(-1, 4)))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [2, 3])
def test_c_integral_matches_ring_integration(n, x):
    direct = (z_kernel(TWO_THREE) ** n * ExpPoly.exp(x + 1)).integrate0()
    assert c_integral(TWO_THREE, n, x) == direct


def test_c_integral_validation():
    with pytest.raises(ValueError):
        c_integral(make_regular(2), 1, 1)
    with pytest.raises(ValueError):
        c_integral(TWO_THREE, -1, 1)
    with pytest.raises(ValueError):
        c_integral(TWO_THREE, 1, -1)


def _builder_forms():
    for d in range(2, 7):
        rd = regular_densities(d)
        yield from (rd.D1, rd.D2, rd.D3, rd.rho1, rd.rho2)
    for text in ("2:1/2,3:1/2", "2:1/4,4:3/4", "3:1"):
        dist = parse_atoms(text)
        av = averaged_densities(dist)
        yield from (av.QD1, av.QD2, av.QD3, av.Qrho1, av.Qrho2, z_kernel(dist))
    yield from (m.closed_form for m in pattern_system())


def test_builders_make_only_int_rates():
    # every rate counts unit-rate clocks, so the package never builds another
    forms = list(_builder_forms())
    assert len(forms) == 25 + 18 + 10
    for form in forms:
        for a, k, c in form.terms:
            assert type(a) is int and type(k) is int and type(c) is Fraction
