"""Exact exponential-polynomial calculus."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screendep import exppoly, regular_densities, rho2_limit
from screendep.exppoly import (
    DivergentLimitError,
    ExpPoly,
    TermBudgetError,
    solve_linear_ode,
)

from oracles import pairwise_product

F = Fraction


def ep(*terms):
    return ExpPoly(terms)


# -- canonical form ---------------------------------------------------------


def test_terms_merge_and_sort():
    f = ep((3, 0, F(1, 2)), (0, 0, 1), (3, 0, F(1, 2)), (1, 2, -1))
    assert f.terms == ((0, 0, F(1)), (1, 2, F(-1)), (3, 0, F(1)))


def test_zero_coefficients_drop():
    f = ep((2, 1, 5), (2, 1, -5))
    assert f.is_zero()
    assert f == ExpPoly.zero()


def test_rejects_negative_rate_and_power():
    with pytest.raises(ValueError):
        ep((-1, 0, 1))
    with pytest.raises(ValueError):
        ep((0, -1, 1))


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: ep((F(1, 2), 0, 1)), F(1, 2)),
        (lambda: ep((F(3), 0, 1)), F(3)),
        (lambda: ep(("3", 0, 1)), "3"),
        (lambda: ep((True, 0, 1)), True),
        (lambda: ep((0, 2.7, 1)), 2.7),
        (lambda: ep((0, "1", 1)), "1"),
        (lambda: ep((0, 0, "1/2")), "1/2"),
        (lambda: ExpPoly.one() * "1/2", "1/2"),
        (lambda: ExpPoly.exp(F(1, 2)), F(1, 2)),
        (lambda: ExpPoly.term(1, power=1.0), 1.0),
        (lambda: ExpPoly.constant("1/2"), "1/2"),
        (lambda: ExpPoly.one().scale(0.5), 0.5),
        (lambda: ExpPoly.one() / "2", "2"),
        (lambda: ExpPoly.one().coeff(F(3), 0), F(3)),
        (lambda: solve_linear_ode(ExpPoly.one(), F(1, 2), 0), F(1, 2)),
        (lambda: solve_linear_ode(ExpPoly.one(), 1, "1/2"), "1/2"),
    ],
    ids=[
        "rate_half", "rate_fraction_three", "rate_str", "rate_bool", "power_float",
        "power_str", "coeff_str", "mul_str", "exp_fraction", "term_float_power",
        "constant_str", "scale_float", "div_str", "coeff_lookup_fraction",
        "ode_fraction_lam", "ode_str_y0",
    ],
)
def test_each_slot_has_one_exact_form(build, value):
    # rates and powers are ints, coefficients and scalars ints or Fractions:
    # anything else is refused by name, never coerced
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: ep((-1, 0, 1)),
        lambda: ep((0, -1, 1)),
        lambda: ExpPoly.exp(-1),
        lambda: solve_linear_ode(ExpPoly.one(), -1, 0),
    ],
    ids=["rate", "power", "exp", "ode_lam"],
)
def test_negative_rate_or_power_names_the_value(build):
    with pytest.raises(ValueError, match="got -1"):
        build()


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


@pytest.mark.parametrize(
    "n, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError), (-1, ValueError)]
)
def test_power_takes_a_nonnegative_int(n, error):
    with pytest.raises(error, match=re.escape(repr(n))):
        ExpPoly.exp(1) ** n


rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
rates = st.sampled_from([0, 1, 2, 3, 5])
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


# Wider than polys: rates 0..18, powers 0..5 and coefficients with
# denominators up to 10^6.  An operand may list a term together with its
# negation, which the constructor cancels, and a pair may be (A + B, A - B),
# whose product cancels the cross terms A*B - B*A.
wide_rates = st.integers(min_value=0, max_value=18)
wide_coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=10**6).filter(bool)
wide_triples = st.lists(
    st.tuples(wide_rates, st.integers(min_value=0, max_value=5), wide_coeffs), max_size=6
)


@st.composite
def wide_polys(draw):
    triples = draw(wide_triples)
    negated = draw(st.lists(st.sampled_from(triples), max_size=3)) if triples else []
    return ExpPoly(triples + [(a, k, -c) for a, k, c in negated])


wide_pairs = st.one_of(
    st.tuples(wide_polys(), wide_polys()),
    st.tuples(wide_polys(), wide_polys()).map(lambda ab: (ab[0] + ab[1], ab[0] - ab[1])),
    st.tuples(st.just(ExpPoly.zero()), wide_polys()),
)


@settings(max_examples=300, deadline=None)
@given(wide_pairs)
def test_product_matches_the_pairwise_oracle(pair):
    f, g = pair
    for got in (f * g, g * f):
        want = pairwise_product(f, g)
        assert got == want
        assert got.terms == want.terms
        for a, k, c in got.terms:
            assert type(a) is int and type(k) is int and type(c) is Fraction
            assert c != 0
        keys = [(a, k) for a, k, _ in got.terms]
        assert all(x < y for x, y in zip(keys, keys[1:]))


def test_product_cancels_cross_terms_exactly():
    a = ExpPoly.term(F(7, 10**6), power=2, rate=1)
    b = ExpPoly.term(F(-3, 999_983), power=5, rate=2)
    assert (a + b) * (a - b) == a * a - b * b
    assert len((a + b) * (a - b)) == 2
    assert (a + b) * ExpPoly.zero() == ExpPoly.zero()


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


def test_eval_refuses_a_non_finite_time():
    # inf * 0 in the t*exp(-3t) term would read nan; the limit is exact
    rho2 = regular_densities(2).rho2
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite t >= 0.*limit_at_infinity"):
            rho2.eval(t)
        with pytest.raises(ValueError, match="finite t >= 0"):
            rho2.eval_grid([1.0, t])
    assert rho2.limit_at_infinity() == rho2_limit(2)


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


def test_json_round_trip():
    f = ep((2, 2, F(-7, 3)), (0, 0, 4))
    assert ExpPoly.from_json_dict(json.loads(json.dumps(f.to_json_dict()))) == f


@pytest.mark.parametrize(
    "terms, value", [([[2.7, 0, 0.1]], 2.7), ([["2", 0, 0.1]], 0.1), ([[2, 0, 1]], 2)]
)
def test_json_reader_takes_rates_and_coefficients_as_strings(terms, value):
    # to_json_dict writes both slots as strings, so a JSON number there is
    # refused by name, not truncated or read as its binary value
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        ExpPoly.from_json_dict({"terms": terms})


# -- term budget ---------------------------------------------------------------


def test_term_budget_guards_products(monkeypatch):
    monkeypatch.setattr(exppoly, "TERM_BUDGET", 10)
    f = ExpPoly((k, 0, 1) for k in range(6))
    with pytest.raises(TermBudgetError):
        f * f


def _spread(n, power=0):
    """n terms with distinct rates 0..n-1."""
    return ExpPoly((k, power, 1) for k in range(n))


# Operands are built here, under the default budget; each operation then
# runs under a budget of 10 on arguments whose result has exactly 10 terms
# and on arguments whose result has 11.
_BUDGET_CASES = {
    "add": (
        lambda f, g: f + g,
        (_spread(5), _spread(5, power=1)),
        (_spread(5), _spread(6, power=1)),
    ),
    "mul": (
        lambda f, g: f * g,
        (_spread(5), ExpPoly.one() + ExpPoly.term(1, power=1)),
        (_spread(11), ExpPoly.exp(11)),
    ),
    "solve_linear_ode": (
        lambda f, lam: solve_linear_ode(f, lam, 1),
        (_spread(9), 20),
        (_spread(10), 20),
    ),
    "constructor": (
        ExpPoly,
        ([(k, 0, 1) for k in range(11)] + [(10, 0, -1)],),
        ([(k, 0, 1) for k in range(11)],),
    ),
}


@pytest.mark.parametrize("op", sorted(_BUDGET_CASES))
def test_term_budget_is_checked_by_every_operation(monkeypatch, op):
    run, at_budget, over_budget = _BUDGET_CASES[op]
    monkeypatch.setattr(exppoly, "TERM_BUDGET", 10)
    assert len(run(*at_budget)) == 10
    with pytest.raises(TermBudgetError):
        run(*over_budget)
