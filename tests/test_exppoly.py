"""Exact exponential-polynomial calculus."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screendep.exppoly import (
    DivergentLimitError,
    ExpPoly,
    TermBudgetError,
    get_term_budget,
    set_term_budget,
    solve_linear_ode,
)

F = Fraction


def ep(*terms):
    return ExpPoly(terms)


# -- canonical form ---------------------------------------------------------


def test_terms_merge_and_sort():
    f = ep((3, 0, F(1, 2)), (0, 0, 1), (3, 0, F(1, 2)), (1, 2, -1))
    assert f.terms == ((F(0), 0, F(1)), (F(1), 2, F(-1)), (F(3), 0, F(1)))


def test_zero_coefficients_drop():
    f = ep((2, 1, 5), (2, 1, -5))
    assert f.is_zero()
    assert f == ExpPoly.zero()


def test_rejects_negative_rate_and_power():
    with pytest.raises(ValueError):
        ep((-1, 0, 1))
    with pytest.raises(ValueError):
        ep((0, -1, 1))


def test_rational_string_terms():
    assert ep(("1/2", 0, "3/4")) == ep((F(1, 2), 0, F(3, 4)))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        ep((0.5, 0, 1))


# -- ring operations --------------------------------------------------------


def test_scalar_operations():
    f = ExpPoly.exp(3)
    assert 2 * f == f + f
    assert f / 2 == f.scale(F(1, 2))
    assert (f - f).is_zero()
    assert F(1, 3) * f == f * F(1, 3)


def test_product_merges_rates_and_powers():
    f = ExpPoly.term(2, power=1, rate=1)
    g = ExpPoly.term(F(1, 2), power=2, rate=3)
    assert f * g == ep((4, 3, 1))


def test_power_matches_repeated_product():
    f = ExpPoly.one() + ExpPoly.exp(1)
    assert f ** 0 == ExpPoly.one()
    assert f ** 3 == f * f * f


rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
rates = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(3)])
powers = st.integers(min_value=0, max_value=3)
polys = st.lists(
    st.tuples(rates, powers, rationals), min_size=0, max_size=4
).map(ExpPoly)


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + ExpPoly.zero() == f
    assert f * ExpPoly.one() == f


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_derivative_is_linear_and_leibniz(f, g):
    assert (f + g).derivative() == f.derivative() + g.derivative()
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@settings(max_examples=200, deadline=None)
@given(polys)
def test_integrate0_inverts_derivative(f):
    assert f.integrate0().derivative() == f
    assert f.integrate0().at_zero() == 0


# -- calculus ----------------------------------------------------------------


def test_derivative_closed_forms():
    assert ExpPoly.exp(3).derivative() == ep((3, 0, -3))
    assert ExpPoly.term(1, power=2).derivative() == ep((0, 1, 2))
    t_exp = ExpPoly.term(1, power=1, rate=4)
    assert t_exp.derivative() == ep((4, 0, 1), (4, 1, -4))


def test_integrate0_polynomial_gains_power():
    assert ExpPoly.one().integrate0() == ep((0, 1, 1))
    assert ExpPoly.term(1, power=2).integrate0() == ep((0, 3, F(1, 3)))


def test_integrate0_exponential_by_parts():
    # int_0^t e^{-3u} du = (1 - e^{-3t})/3
    assert ExpPoly.exp(3).integrate0() == ep((0, 0, F(1, 3)), (3, 0, F(-1, 3)))
    # int_0^t u e^{-3u} du = 1/9 - e^{-3t}/9 - t e^{-3t}/3
    got = ExpPoly.term(1, power=1, rate=3).integrate0()
    assert got == ep((0, 0, F(1, 9)), (3, 0, F(-1, 9)), (3, 1, F(-1, 3)))


def test_solve_linear_ode_homogeneous():
    assert solve_linear_ode(ExpPoly.zero(), 1, 1) == ExpPoly.exp(1)


def test_solve_linear_ode_simple_forcing():
    # y' = -2y + e^{-3t}, y(0) = 0  ->  e^{-2t} - e^{-3t}
    got = solve_linear_ode(ExpPoly.exp(3), 2, 0)
    assert got == ExpPoly.exp(2) - ExpPoly.exp(3)


def test_solve_linear_ode_resonant():
    # y' = -2y + e^{-2t}, y(0) = 0  ->  t e^{-2t}
    got = solve_linear_ode(ExpPoly.exp(2), 2, 0)
    assert got == ExpPoly.term(1, power=1, rate=2)


@settings(max_examples=150, deadline=None)
@given(polys, rates, rationals)
def test_solve_linear_ode_satisfies_equation(forcing, lam, y0):
    y = solve_linear_ode(forcing, lam, y0)
    assert y.derivative() == forcing - y.scale(lam)
    assert y.at_zero() == y0


# -- evaluation and limits ----------------------------------------------------


def test_eval_matches_math():
    f = ep((0, 0, F(1, 3)), (3, 0, F(-1, 3)), (4, 2, F(7, 2)))
    for t in (0.0, 0.3, 1.7, 10.0):
        expected = 1 / 3 - math.exp(-3 * t) / 3 + 3.5 * t * t * math.exp(-4 * t)
        assert f.eval(t) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        f.eval(-0.1)


times = st.floats(min_value=0, max_value=30, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(polys, st.lists(times, max_size=8))
def test_eval_grid_matches_termwise_reference(f, ts):
    expected = []
    for t in ts:
        total = 0.0
        for a, k, c in f.terms:
            total += float(c) * t ** k * math.exp(-float(a) * t)
        expected.append(total)
    got = f.eval_grid(ts)
    assert [v.hex() for v in got] == [v.hex() for v in expected]
    assert [f.eval(t) for t in ts] == got
    with pytest.raises(ValueError):
        f.eval_grid([*ts, -0.5])


def test_at_zero_and_limit():
    f = ep((0, 0, F(2, 7)), (5, 3, 9))
    assert f.at_zero() == F(2, 7)
    assert f.limit_at_infinity() == F(2, 7)
    assert ExpPoly.zero().limit_at_infinity() == 0


def test_limit_divergent():
    with pytest.raises(DivergentLimitError):
        ExpPoly.term(1, power=1).limit_at_infinity()


def test_coeff_lookup():
    f = ep((3, 1, F(-5, 2)))
    assert f.coeff(3, 1) == F(-5, 2)
    assert f.coeff(3, 0) == 0


# -- rendering and serialization ----------------------------------------------


def test_render():
    f = ep((0, 0, F(1, 9)), (3, 0, F(-1, 9)), (3, 1, F(-1, 3)))
    assert f.render() == "1/9 - 1/9*exp(-3t) - 1/3*t*exp(-3t)"
    assert ExpPoly.zero().render() == "0"
    assert ExpPoly.term(1, power=1, rate=F(1, 2)).render() == "t*exp(-(1/2)t)"


def test_json_round_trip():
    f = ep((F(1, 2), 2, F(-7, 3)), (0, 0, 4))
    assert ExpPoly.from_json(f.to_json()) == f


# -- term budget ---------------------------------------------------------------


def test_term_budget_guards_products():
    old = get_term_budget()
    try:
        set_term_budget(10)
        f = ExpPoly((k, 0, 1) for k in range(6))
        with pytest.raises(TermBudgetError):
            f * f
    finally:
        set_term_budget(old)


def test_term_budget_validation():
    with pytest.raises(ValueError):
        set_term_budget(0)
