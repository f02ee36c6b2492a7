"""Acceptance battery: one test per go/no-go criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete; `screendep validate` prints the same
battery from the command line.  The Monte Carlo criteria share one cached
cycle run, so the file executes in well under the summed budgets.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from screendep.acceptance import (
    BALL_BUFFER,
    BALL_RADIUS,
    DEFAULT_SEED,
    RANDOM_TIMES,
    AcceptanceSuite,
)
from screendep.analytic import AveragedDensities
from screendep.degree import DegreeDistribution, make_regular
from screendep.deposit import SimConfig, estimate_densities
from screendep.exppoly import ExpPoly
from screendep.graphs import RandomBallSource


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite(seed=DEFAULT_SEED)


def _run(suite, index):
    result = suite.run_criterion(index)
    print()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_exact_motive_reproduction(suite):
    _run(suite, 1)


def test_criterion_2_regular_tree_display_consistency(suite):
    _run(suite, 2)


def test_criterion_3_cycle_mc_vs_exact_layers(suite):
    _run(suite, 3)


def test_criterion_4_cycle_mc_vs_pattern_closed_form(suite):
    _run(suite, 4)


def test_criterion_5_regular_ball_mc_vs_exact_layers(suite):
    _run(suite, 5)


def test_criterion_6_random_ball_root_marginal(suite):
    _run(suite, 6)


def test_criterion_7_averaged_second_layer_two_exact_expansions(suite):
    _run(suite, 7)


def test_criterion_7_fails_when_qd2_is_off_by_one_term(monkeypatch):
    # a 1e-9 term at rate 5 moves QD2 by far less than a float check on a
    # grid could be trusted to see; the exact comparison must still fail
    true_qd2 = AveragedDensities.QD2.func
    monkeypatch.setattr(
        AveragedDensities,
        "QD2",
        property(lambda self: true_qd2(self) + ExpPoly.term(Fraction(1, 10**9), rate=5)),
    )
    result = AcceptanceSuite().run_criterion(7)
    assert not result.passed
    for label in ("2:1/2,3:1/2", "2:1/4,4:3/4", make_regular(3).label()):
        assert repr(label) in result.detail, result.detail


def test_criterion_8_comparison_certificates(suite):
    _run(suite, 8)


def test_criterion_9_byte_identical_reruns(suite):
    _run(suite, 9)


def test_criterion_6_draws_only_the_root_light_cone():
    # criterion 6 measures the root, whose light cone is the ball of radius
    # L = depth; the breadth-first build draws that ball's degrees first, so
    # radius-L balls give the data rows of the R=12, B=4 balls seed for
    # seed.  Negative control: radius L - 1 misses arrivals that matter.
    dist = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
    config = SimConfig(sample_times=RANDOM_TIMES, replicas=300, seed=DEFAULT_SEED,
                       layers=(1, 2), measure="root")

    def rows(radius, buffer=0):
        curve = estimate_densities(RandomBallSource(dist, radius, buffer), config)
        return curve.to_csv_text().splitlines()[1:]

    cone = rows(config.depth)
    assert cone == rows(BALL_RADIUS, BALL_BUFFER)
    assert cone != rows(config.depth - 1)


@pytest.mark.parametrize(
    "n_jobs, error", [(1.5, TypeError), (True, TypeError), ("2", TypeError), (0, ValueError)]
)
def test_suite_checks_n_jobs(n_jobs, error):
    with pytest.raises(error, match="n_jobs"):
        AcceptanceSuite(n_jobs=n_jobs)


@pytest.mark.parametrize(
    "seed, error", [(1.5, TypeError), (True, TypeError), ("7", TypeError), (-1, ValueError)]
)
def test_suite_checks_seed(seed, error):
    # refused when the suite is built, so before any criterion runs
    with pytest.raises(error, match="seed"):
        AcceptanceSuite(seed=seed)
