"""The package's acceptance battery: nine go/no-go criteria.

Each criterion couples an independent oracle (frozen exact closed forms,
rational identities, adaptive quadrature, or Monte Carlo at a fixed seed)
to a tolerance chosen so that a correct implementation passes with wide
margin at any seed while a wrong rate, a wrong coefficient, or a broken
seeding scheme fails.  The same battery backs `screendep validate` and
tests/test_acceptance.py.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .analytic import averaged_densities, qd2_quadrature, regular_densities
from .compare import check_gf_dominance, check_jensen, check_layer_dominance, rho2_limit
from .curves import DensityCurve
from .degree import DegreeDistribution, make_regular
from .deposit import SimConfig, estimate_densities
from .exppoly import ExpPoly
from .graphs import RandomBallSource, build_cycle, build_regular_ball
from .motives import pattern_system

DEFAULT_SEED = 7

CYCLE_N = 1000
CYCLE_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0)
CYCLE_REPLICAS = 200
BALL_TIMES = (0.5, 1.0, 2.0, 5.0)
BALL_REPLICAS = 200
BALL_RADIUS = 12
BALL_BUFFER = 4
RANDOM_TIMES = (1.0, 5.0)
RANDOM_REPLICAS = 2000

# Frozen closed forms of the worked four-layer pattern system (d = 2).
# The pipeline must rederive every one of these exactly.
FROZEN_0101 = {
    "lone": ExpPoly([(4, 1, 1)]),
    "pair": ExpPoly([(4, 1, 1), (5, 1, -1)]),
    "gain_open": ExpPoly(
        [
            (3, 0, Fraction(7, 4)),
            (4, 0, -2),
            (4, 1, -2),
            (5, 0, Fraction(1, 4)),
            (5, 1, Fraction(1, 2)),
        ]
    ),
    "cap_cond": ExpPoly(
        [
            (2, 0, Fraction(7, 4)),
            (3, 0, -2),
            (3, 1, -2),
            (4, 0, Fraction(1, 4)),
            (4, 1, Fraction(1, 2)),
        ]
    ),
    "gain_capped": ExpPoly(
        [
            (3, 0, Fraction(67, 48)),
            (4, 0, -7),
            (5, 0, Fraction(31, 4)),
            (5, 1, 4),
            (6, 0, Fraction(-7, 3)),
            (6, 1, -2),
            (7, 0, Fraction(3, 16)),
            (7, 1, Fraction(1, 4)),
        ]
    ),
    "loss_open": ExpPoly(
        [
            (3, 0, Fraction(-15, 4)),
            (3, 1, Fraction(7, 4)),
            (4, 0, 4),
            (4, 1, 2),
            (5, 0, Fraction(-1, 4)),
            (5, 1, Fraction(-1, 4)),
        ]
    ),
    "loss_capped": ExpPoly(
        [
            (3, 0, Fraction(-49, 16)),
            (3, 1, Fraction(67, 48)),
            (4, 0, 7),
            (5, 0, Fraction(-39, 8)),
            (5, 1, -2),
            (6, 0, 1),
            (6, 1, Fraction(2, 3)),
            (7, 0, Fraction(-1, 16)),
            (7, 1, Fraction(-1, 16)),
        ]
    ),
}

TARGET_LIMIT = Fraction(34, 735)
TARGET_E3_COEFF = Fraction(-1991, 432)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    runtime: float
    budget: float | None
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.index} [{self.name}] {verdict} "
            f"({self.runtime:.1f} s): {self.detail}"
        )


def _curve_vs_exact(
    curve: DensityCurve,
    observable: str,
    exact: ExpPoly,
    abs_tol: float | None,
    times: tuple[float, ...] | None = None,
) -> tuple[bool, str]:
    """Check |MC - exact| <= 3 stderr (and abs_tol if given) pointwise."""
    points = curve.get(observable)
    ok = True
    worst_z = 0.0
    worst_abs = 0.0
    for t, p in zip(curve.times, points):
        if times is not None and t not in times:
            continue
        target = exact.eval(t)
        diff = abs(p.mean - target)
        if p.stderr > 0:
            z = diff / p.stderr
        else:
            z = 0.0 if diff == 0 else float("inf")
        worst_z = max(worst_z, z)
        worst_abs = max(worst_abs, diff)
        if z > 3.0 or (abs_tol is not None and diff > abs_tol):
            ok = False
    detail = f"{observable}: max|z|={worst_z:.2f}, max|diff|={worst_abs:.2e}"
    return ok, detail


class AcceptanceSuite:
    """Runs the nine criteria, caching the shared Monte Carlo runs."""

    def __init__(self, seed: int = DEFAULT_SEED, n_jobs: int = 1):
        # checked here so that a bad argument fails before any criterion runs
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        if n_jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {n_jobs}")
        self.seed = seed
        self.n_jobs = n_jobs
        self._cycle_curve: DensityCurve | None = None

    # -- shared runs ----------------------------------------------------

    def cycle_config(self) -> SimConfig:
        return SimConfig(
            horizon=10.0,
            sample_times=CYCLE_TIMES,
            replicas=CYCLE_REPLICAS,
            seed=self.seed,
            layers=(1, 2),
            patterns=("0101",),
        )

    def cycle_curve(self) -> DensityCurve:
        if self._cycle_curve is None:
            self._cycle_curve = estimate_densities(
                build_cycle(CYCLE_N), self.cycle_config(), n_jobs=self.n_jobs
            )
        return self._cycle_curve

    # -- criteria -------------------------------------------------------

    def criterion_1(self) -> tuple[bool, str]:
        system = pattern_system("0101")
        forms = {m.name: m.closed_form for m in system}
        mismatched = [
            name for name, want in FROZEN_0101.items() if forms[name] != want
        ]
        target = forms["target"]
        ok = (
            not mismatched
            and target.limit_at_infinity() == TARGET_LIMIT
            and target.coeff(3, 0) == TARGET_E3_COEFF
        )
        if mismatched:
            return False, f"motives differ from frozen forms: {mismatched}"
        return ok, (
            f"7 motives exact; limit={target.limit_at_infinity()}, "
            f"exp(-3t) coeff={target.coeff(3, 0)}"
        )

    def criterion_2(self) -> tuple[bool, str]:
        for d in range(2, 51):
            rd = regular_densities(d)
            if rd.rho1 != (ExpPoly.one() - ExpPoly.exp(d + 1)) / (d + 1):
                return False, f"d={d}: D1 + D3 != (1 - e^(-(d+1)t))/(d+1)"
            lim2 = rho2_limit(d)
            if rd.rho2.limit_at_infinity() != lim2:
                return False, f"d={d}: rho2 limit disagrees across modules"
            if not lim2 < Fraction(1, d + 1):
                return False, f"d={d}: second layer not dominated"
        return True, "d=2..50: D1 + D3 = (1 - e^(-(d+1)t))/(d+1), limits exact, dominance holds"

    def criterion_3(self) -> tuple[bool, str]:
        curve = self.cycle_curve()
        rd = regular_densities(2)
        ok1, d1 = _curve_vs_exact(curve, "layer:1", rd.rho1, abs_tol=0.005)
        ok2, d2 = _curve_vs_exact(curve, "layer:2", rd.rho2, abs_tol=0.005)
        final = curve.get("layer:2")[-1].mean
        jam = abs(final - 14 / 45) <= 0.005
        detail = f"{d1}; {d2}; layer:2(10)={final:.4f} vs 14/45={14 / 45:.4f}"
        return ok1 and ok2 and jam, detail

    def criterion_4(self) -> tuple[bool, str]:
        curve = self.cycle_curve()
        target = pattern_system("0101")[-1].closed_form
        ok_curve, detail = _curve_vs_exact(curve, "pattern:0101", target, abs_tol=None)
        final = curve.get("pattern:0101")[-1].mean
        ok_jam = abs(final - 34 / 735) <= 0.004
        return ok_curve and ok_jam, (
            f"{detail}; pattern(10)={final:.4f} vs 34/735={34 / 735:.4f}"
        )

    def criterion_5(self) -> tuple[bool, str]:
        config = SimConfig(
            horizon=BALL_TIMES[-1],
            sample_times=BALL_TIMES,
            replicas=BALL_REPLICAS,
            seed=self.seed,
            layers=(1, 2),
        )
        curve = estimate_densities(
            build_regular_ball(3, BALL_RADIUS, BALL_BUFFER), config, n_jobs=self.n_jobs
        )
        rd = regular_densities(3)
        ok1, d1 = _curve_vs_exact(curve, "layer:1", rd.rho1, abs_tol=0.005)
        ok2, d2 = _curve_vs_exact(curve, "layer:2", rd.rho2, abs_tol=0.007)
        return ok1 and ok2, f"{d1}; {d2}"

    def criterion_6(self) -> tuple[bool, str]:
        dist = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
        source = RandomBallSource(dist, BALL_RADIUS, BALL_BUFFER)
        config = SimConfig(
            horizon=RANDOM_TIMES[-1],
            sample_times=RANDOM_TIMES,
            replicas=RANDOM_REPLICAS,
            seed=self.seed,
            layers=(1, 2),
            measure="root",
        )
        curve = estimate_densities(source, config, n_jobs=self.n_jobs)
        av = averaged_densities(dist)
        ok1, d1 = _curve_vs_exact(curve, "layer:1", av.Qrho1, abs_tol=None)
        ok2, d2 = _curve_vs_exact(curve, "layer:2", av.Qrho2, abs_tol=None)
        return ok1 and ok2, f"root marginal, {RANDOM_REPLICAS} trees: {d1}; {d2}"

    def criterion_7(self) -> tuple[bool, str]:
        dists = (
            DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"}),
            DegreeDistribution.from_pairs({2: "1/4", 4: "3/4"}),
            make_regular(3),
        )
        grid = [0.5 * i for i in range(1, 21)]
        worst = 0.0
        for dist in dists:
            qd2 = averaged_densities(dist).QD2
            for t in grid:
                err = abs(qd2.eval(t) - qd2_quadrature(dist, t))
                worst = max(worst, err)
        return worst <= 1e-10, f"3 dists x 20 points: max|exact - quad|={worst:.2e}"

    def criterion_8(self) -> tuple[bool, str]:
        two_atom = DegreeDistribution.from_pairs({2: "1/2", 4: "1/2"})
        reports = (
            check_gf_dominance(make_regular(2), make_regular(3)),
            check_gf_dominance(two_atom, make_regular(3)),
            check_jensen(3, two_atom),
            check_jensen(3, make_regular(3)),
        )
        bad = [r.claim for r in reports if not r.passed]
        if bad:
            return False, f"failed reports: {bad}"
        return True, "gf dominance (2 pairs), Jensen strict + equality, exact for every t > 0"

    def criterion_9(self) -> tuple[bool, str]:
        graph = build_cycle(CYCLE_N)
        config = self.cycle_config()
        first = estimate_densities(graph, config, n_jobs=self.n_jobs).to_csv_text()
        second = estimate_densities(graph, config, n_jobs=self.n_jobs).to_csv_text()
        same = first.encode() == second.encode()
        return same, (
            f"two fresh runs, {len(first)} bytes each: "
            + ("identical" if same else "DIFFER")
        )

    # -- driver -----------------------------------------------------------

    CRITERIA: tuple[tuple[int, str, float | None], ...] = (
        (1, "exact motive reproduction", 1.0),
        (2, "regular-tree display consistency", 5.0),
        (3, "cycle MC vs exact layers", 120.0),
        (4, "cycle MC vs pattern closed form", None),
        (5, "regular-ball MC vs exact layers", 180.0),
        (6, "random-ball root marginal vs averaged forms", 300.0),
        (7, "averaged second layer vs quadrature", 5.0),
        (8, "comparison certificates", 5.0),
        (9, "byte-identical reruns", None),
    )

    QUICK = (1, 2, 7, 8)

    def run_criterion(self, index: int) -> CriterionResult:
        _, name, budget = self.CRITERIA[index - 1]
        func: Callable[[], tuple[bool, str]] = getattr(self, f"criterion_{index}")
        start = time.perf_counter()
        passed, detail = func()
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            passed = False
            detail += f"; runtime {elapsed:.1f} s exceeded budget {budget:.0f} s"
        return CriterionResult(
            index=index,
            name=name,
            passed=passed,
            runtime=elapsed,
            budget=budget,
            detail=detail,
        )

    def run(self, quick: bool = False) -> list[CriterionResult]:
        indices = self.QUICK if quick else tuple(i for i, _, _ in self.CRITERIA)
        return [self.run_criterion(i) for i in indices]
