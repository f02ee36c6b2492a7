"""Motive system for the single-site pattern 0101 on the line."""

from __future__ import annotations

from fractions import Fraction

import pytest

from screendep.analytic import regular_densities, s_conditional
from screendep.exppoly import ExpPoly
from screendep.motives import (
    pattern_system,
    system_json,
    target_probability,
)

F = Fraction

TARGET_0101 = ExpPoly(
    [
        (0, 0, F(34, 735)),
        (3, 0, F(-1991, 432)),
        (3, 1, F(235, 144)),
        (4, 0, 7),
        (4, 1, 2),
        (5, 0, F(-121, 40)),
        (5, 1, F(-3, 2)),
        (6, 0, F(17, 27)),
        (6, 1, F(4, 9)),
        (7, 0, F(-33, 784)),
        (7, 1, F(-5, 112)),
    ]
)


def _by_name():
    return {m.name: m for m in pattern_system("0101")}


def test_system_layout():
    system = pattern_system("0101")
    assert tuple(m.name for m in system) == (
        "lone",
        "pair",
        "gain_open",
        "cap_cond",
        "cap_open",
        "cap_paired",
        "gain_capped",
        "loss_open",
        "loss_capped",
        "target",
    )
    assert system[-1].name == "target"


def test_seed_motives():
    m = _by_name()
    s2 = s_conditional(2)
    te3 = ExpPoly.term(1, power=1, rate=3)
    assert m["lone"].closed_form == ExpPoly.term(1, power=1, rate=4)
    assert m["pair"].closed_form == s2 * te3
    assert m["cap_open"].closed_form == m["cap_cond"].closed_form * ExpPoly.exp(2)
    assert m["cap_paired"].closed_form == m["cap_cond"].closed_form * s2 * ExpPoly.exp(1)


@pytest.mark.parametrize(
    "name,decay,forcing_names,forcing_scale",
    [
        ("gain_open", 3, ("lone", "pair"), 1),
        ("gain_capped", 3, ("cap_open", "cap_paired"), 2),
        ("loss_open", 3, ("gain_open",), 1),
        ("loss_capped", 3, ("gain_capped",), 1),
    ],
)
def test_ode_motives_satisfy_their_equations(name, decay, forcing_names, forcing_scale):
    m = _by_name()
    y = m[name].closed_form
    forcing = ExpPoly.zero()
    for f in forcing_names:
        forcing = forcing + m[f].closed_form
    forcing = forcing.scale(forcing_scale)
    assert y.derivative() == forcing - y.scale(decay)
    assert y.at_zero() == 0


def test_cap_cond_equation():
    m = _by_name()
    y = m["cap_cond"].closed_form
    forcing = ExpPoly.term(1, power=1, rate=3) + ExpPoly.term(
        1, power=1, rate=2
    ) * s_conditional(2)
    assert y.derivative() == forcing - y.scale(2)
    assert y.at_zero() == 0


def test_target_balance_equation():
    m = _by_name()
    rhs = (
        m["gain_open"].closed_form.scale(2)
        + m["gain_capped"].closed_form
        - m["loss_open"].closed_form.scale(2)
        - m["loss_capped"].closed_form
    )
    assert m["target"].closed_form.derivative() == rhs


def test_target_closed_form():
    y = target_probability("0101")
    assert y == TARGET_0101
    assert y.at_zero() == 0
    assert y.limit_at_infinity() == F(34, 735)
    assert y.coeff(3, 0) == F(-1991, 432)
    assert y.coeff(3, 1) == F(235, 144)


def test_motive_values_are_probabilities():
    rho1 = regular_densities(2).rho1
    for m in pattern_system("0101"):
        for i in range(61):
            t = 0.25 * i
            v = m.closed_form.eval(t)
            assert -1e-12 <= v <= 1
    # the pattern needs layer 1 occupied, so it is dominated by rho1
    y = target_probability("0101")
    for i in range(1, 101):
        t = 0.1 * i
        assert y.eval(t) <= rho1.eval(t)


def test_registry():
    # one word has a system; every entry point refuses any other by name
    assert target_probability() == TARGET_0101
    for build in (pattern_system, target_probability, system_json):
        with pytest.raises(ValueError) as info:
            build("11")
        assert str(info.value) == "no motive system for pattern '11'; known: ('0101',)"


def test_system_json():
    data = system_json("0101")
    assert data["pattern"] == "0101"
    assert data["limit"] == "34/735"
    assert len(data["motives"]) == 10
    last = data["motives"][-1]
    assert last["name"] == "target"
    assert set(last) == {"name", "description", "definition", "closed_form", "rendered"}
    assert ExpPoly.from_json_dict(last["closed_form"]) == TARGET_0101
