"""Machine-checked comparison statements for layer densities.

Three claims are certified, each as a ComparisonReport holding per-point
verdicts with enough recorded witnesses to re-derive the verdict:

* layer dominance: on every regular tree the limiting first-layer density
  1/(d+1) strictly exceeds the limiting second-layer density.  The whole
  chain is exact rational arithmetic: the alternating coefficients
  beta_k(d) decrease, the truncation bound, the closed form of
  beta_0 - beta_1 + beta_2, and the final comparison.

* generating-function dominance: if G_S > G_T on (0, 1) then the
  first-layer density on S exceeds the one on T for every t > 0, with
  the derivative identity gamma'(t) = e^{-t}(G_S(e^{-t}) - G_T(e^{-t}))
  checked numerically on the grid.

* mean-degree convexity: a random tree with mean degree d has
  first-layer density at least that of the d-regular tree, because
  k -> (1 - e^{-(k+1)t})/(k+1) is convex in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analytic import averaged_densities, betas, regular_densities
from .degree import DegreeDistribution

GAMMA_PRIME_TOL = 1e-10
CONVEXITY_TOL = -1e-12
DEFAULT_T_GRID = tuple(0.25 * i for i in range(1, 41))
DEFAULT_JENSEN_T_GRID = (0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class PointCheck:
    label: str
    passed: bool
    witness: dict

    def to_json_dict(self) -> dict:
        return {"label": self.label, "passed": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class ComparisonReport:
    claim: str
    params: dict
    status: str  # "verified", "failed" or "hypothesis-violated"
    checks: tuple[PointCheck, ...]

    @property
    def passed(self) -> bool:
        return self.status == "verified"

    def counterexamples(self) -> tuple[PointCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "status": self.status,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _status(checks: list[PointCheck]) -> str:
    return "verified" if all(c.passed for c in checks) else "failed"


def rho1_limit(d: int) -> Fraction:
    return Fraction(1, d + 1)


def rho2_limit(d: int) -> Fraction:
    return _rho2_limit(d, betas(d))


def _rho2_limit(d: int, bs: tuple[Fraction, ...]) -> Fraction:
    return sum((-1) ** k * b for k, b in enumerate(bs)) - Fraction(d, (d + 1) ** 2)


def check_layer_dominance(d_max: int = 50) -> ComparisonReport:
    """Certify rho_inf(1) > rho_inf(2) on the d-regular tree for d in 2..d_max."""
    if d_max < 2:
        raise ValueError(f"d_max must be >= 2, got {d_max}")
    checks = []
    for d in range(2, d_max + 1):
        bs = betas(d)
        lim1 = rho1_limit(d)
        lim2 = _rho2_limit(d, bs)
        decreasing = all(b_next < b for b, b_next in zip(bs, bs[1:]))
        head = bs[0] - bs[1] + bs[2]
        # for d = 2 the head IS the whole alternating sum; for d >= 3 the
        # dropped tail starts with -beta_3 < 0, so the bound is strict
        tail = lim2 - (head - Fraction(d, (d + 1) ** 2))
        truncation = tail == 0 if d == 2 else tail < 0
        head_closed = (
            Fraction(d, d - 1) ** d * 2 * (d - 1) / ((d + 1) * (3 * d - 1))
        )
        identity = head == head_closed
        head_bound = head < Fraction(2 * d + 1, (d + 1) ** 2)
        dominated = lim2 < lim1
        ok = decreasing and truncation and identity and head_bound and dominated
        checks.append(
            PointCheck(
                label=f"d={d}",
                passed=ok,
                witness={
                    "rho1_limit": str(lim1),
                    "rho2_limit": str(lim2),
                    "betas_decreasing": decreasing,
                    "truncation_bound": truncation,
                    "head": str(head),
                    "head_closed_form": str(head_closed),
                    "head_identity": identity,
                    "head_bound": head_bound,
                    "dominated": dominated,
                },
            )
        )
    return ComparisonReport(
        claim="limiting first-layer density exceeds second-layer density on T_d",
        params={"d_range": [2, d_max]},
        status=_status(checks),
        checks=tuple(checks),
    )


def check_gf_dominance(
    s_dist: DegreeDistribution,
    t_dist: DegreeDistribution,
    t_grid: tuple[float, ...] = DEFAULT_T_GRID,
) -> ComparisonReport:
    """Certify first-layer dominance of s_dist over t_dist given G_S > G_T.

    The hypothesis G_S(x) > G_T(x) is checked at x = e^{-t} over the grid;
    if it fails anywhere the conclusion is left untested and the report
    status is 'hypothesis-violated'.
    """
    params = {
        "S": s_dist.label(),
        "T": t_dist.label(),
        "t_grid": [min(t_grid), max(t_grid), len(t_grid)],
    }
    hypothesis = []
    for t in t_grid:
        x = math.exp(-t)
        g_s = s_dist.gen_fun(x)
        g_t = t_dist.gen_fun(x)
        hypothesis.append(
            PointCheck(
                label=f"hypothesis t={t:g}",
                passed=g_s > g_t,
                witness={"s": x, "G_S": g_s, "G_T": g_t},
            )
        )
    if not all(c.passed for c in hypothesis):
        return ComparisonReport(
            claim="first-layer density of S exceeds that of T when G_S > G_T on (0,1)",
            params=params,
            status="hypothesis-violated",
            checks=tuple(hypothesis),
        )

    rho_s = averaged_densities(s_dist).Qrho1
    rho_t = averaged_densities(t_dist).Qrho1
    gamma = rho_s - rho_t
    gamma_prime = gamma.derivative()
    checks = list(hypothesis)
    for t in t_grid:
        x = math.exp(-t)
        diff = gamma.eval(t)
        deriv = gamma_prime.eval(t)
        expected = x * (s_dist.gen_fun(x) - t_dist.gen_fun(x))
        residual = abs(deriv - expected)
        checks.append(
            PointCheck(
                label=f"conclusion t={t:g}",
                passed=diff > 0 and residual <= GAMMA_PRIME_TOL,
                witness={
                    "gamma": diff,
                    "gamma_prime": deriv,
                    "gamma_prime_expected": expected,
                    "identity_residual": residual,
                },
            )
        )
    return ComparisonReport(
        claim="first-layer density of S exceeds that of T when G_S > G_T on (0,1)",
        params=params,
        status=_status(checks),
        checks=tuple(checks),
    )


def _g(t: float, k: float) -> float:
    return (1.0 - math.exp(-(k + 1.0) * t)) / (k + 1.0)


def _g_second_diff(t: float, k: float, h: float = 1e-4) -> float:
    # Central second difference with one Richardson step.
    def d2(hh: float) -> float:
        return (_g(t, k + hh) - 2.0 * _g(t, k) + _g(t, k - hh)) / (hh * hh)

    return (4.0 * d2(h / 2.0) - d2(h)) / 3.0


def check_jensen(
    d: int,
    s_dist: DegreeDistribution,
    t_grid: tuple[float, ...] = DEFAULT_JENSEN_T_GRID,
    k_grid: tuple[float, ...] | None = None,
) -> ComparisonReport:
    """Certify that mean-degree-d randomness does not lower the first layer.

    Requires s_dist.mean() == d exactly.  Convexity of
    g_t(k) = (1 - e^{-(k+1)t})/(k+1) is checked by finite differences over
    real k in [2, 10]; the density comparison itself is evaluated from the
    exact closed forms, with exact equality required when s_dist is the
    point mass at d.
    """
    if s_dist.mean() != d:
        raise ValueError(
            f"mean degree of {s_dist.label()} is {s_dist.mean()}, expected {d}"
        )
    if k_grid is None:
        k_grid = tuple(2.0 + 0.25 * i for i in range(33))
    checks = []
    for t in t_grid:
        worst = min(_g_second_diff(t, k) for k in k_grid)
        checks.append(
            PointCheck(
                label=f"convexity t={t:g}",
                passed=worst >= CONVEXITY_TOL,
                witness={"min_second_derivative": worst, "k_range": [min(k_grid), max(k_grid)]},
            )
        )
    rho_s = averaged_densities(s_dist).Qrho1
    rho_d = regular_densities(d).rho1
    if s_dist.is_point_mass():
        checks.append(
            PointCheck(
                label="point mass: exact equality",
                passed=rho_s == rho_d,
                witness={"equal": rho_s == rho_d},
            )
        )
    else:
        for t in t_grid:
            gain = rho_s.eval(t) - rho_d.eval(t)
            checks.append(
                PointCheck(
                    label=f"dominance t={t:g}",
                    passed=gain > 0,
                    witness={"gain": gain},
                )
            )
    return ComparisonReport(
        claim="first-layer density of a mean-d random tree is >= the d-regular one",
        params={"d": d, "S": s_dist.label(), "t_grid": list(t_grid)},
        status=_status(checks),
        checks=tuple(checks),
    )
