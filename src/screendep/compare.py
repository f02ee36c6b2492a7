"""Machine-checked comparison statements for layer densities.

Three claims are certified, each as a ComparisonReport holding verdicts
with enough recorded witnesses to re-derive them.  Every step is exact
rational arithmetic; no float is compared and no tolerance is used.

* layer dominance: on every regular tree the limiting first-layer density
  1/(d+1) strictly exceeds the limiting second-layer density.  The chain
  is: the alternating coefficients beta_k(d) decrease, the truncation
  bound, the closed form of beta_0 - beta_1 + beta_2, and the final
  comparison.

* generating-function dominance: if G_S > G_T on (0, 1) then the
  first-layer density on S exceeds the one on T for every t > 0.  The
  derivative identity gamma'(t) = e^{-t}(G_S(e^{-t}) - G_T(e^{-t})) is an
  exact ExpPoly equality.

* Jensen: a random tree with mean degree d has a strictly higher
  first-layer density than the d-regular tree at every t > 0 (equal
  densities for the point mass at d).

The "for every t > 0" claims share one sign certificate,
_positive_for_all_t: each form they read (G_S - G_T, gamma,
Qrho1_S - rho1_d) is a polynomial in x = e^{-t}, and t > 0 is x in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analytic import averaged_densities, betas, regular_densities
from .degree import DegreeDistribution
from .exppoly import ExpPoly, _count


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
    return Fraction(1, _count(d, "d", 2) + 1)


def rho2_limit(d: int) -> Fraction:
    d = _count(d, "d", 2)
    return _rho2_limit(d, betas(d))


def _rho2_limit(d: int, bs: tuple[Fraction, ...]) -> Fraction:
    return sum((-1) ** k * b for k, b in enumerate(bs)) - Fraction(d, (d + 1) ** 2)


def check_layer_dominance(d_max: int = 50) -> ComparisonReport:
    """Certify rho_inf(1) > rho_inf(2) on the d-regular tree for d in 2..d_max."""
    d_max = _count(d_max, "d_max", 2)
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


def _poly_in_x(form: ExpPoly) -> list[Fraction]:
    """Coefficients of form as a polynomial in x = e^{-t}, leading term first."""
    coeffs: dict[int, Fraction] = {}
    for rate, power, c in form.terms:
        if power != 0:
            raise ValueError(
                f"not a polynomial in e^(-t): term {c}*t^{power}*exp(-{rate}t)"
            )
        coeffs[rate] = c
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs), -1, -1)]


def _rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Remainder of num / den, both leading term first, leading zeros dropped."""
    num = list(num)
    while len(num) >= len(den):
        f = num[0] / den[0]
        for i in range(1, len(den)):
            num[i] -= f * den[i]
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return num


def _sign_changes(values: list[Fraction]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_for_all_t(form: ExpPoly) -> tuple[bool, dict]:
    """Certify form(t) > 0 for every t > 0, exactly.

    form must be a polynomial p in x = e^{-t} (every power 0;
    otherwise ValueError).  Write p = x^m0 (x - 1)^m1 q with q(0), q(1)
    nonzero.  The Sturm chain of q counts its distinct roots in (0, 1) as
    V(0) - V(1), which holds for repeated roots too.  With none, q keeps the sign
    of q(0) on (0, 1), so p > 0 there exactly when sign(q(0)) (-1)^m1 > 0.
    The witness records m0, m1, the root count and that sign, which is
    the sign of p for large t.  The zero form is not positive.
    """
    if form.is_zero():
        return False, {"root_at_0": None, "root_at_1": None, "roots_inside": None, "sign": 0}
    q = _poly_in_x(form)
    root_at_0 = 0
    while q[-1] == 0:
        q.pop()
        root_at_0 += 1
    root_at_1 = 0
    while sum(q) == 0:
        # synthetic division by (x - 1); the remainder q(1) is zero
        quotient = [q[0]]
        for c in q[1:-1]:
            quotient.append(c + quotient[-1])
        q = quotient
        root_at_1 += 1
    chain = [q, [c * (len(q) - 1 - i) for i, c in enumerate(q[:-1])]]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()
    roots_inside = _sign_changes([s[-1] for s in chain]) - _sign_changes(
        [sum(s) for s in chain]
    )
    sign = (1 if q[-1] > 0 else -1) * (-1) ** root_at_1
    witness = {
        "root_at_0": root_at_0,
        "root_at_1": root_at_1,
        "roots_inside": roots_inside,
        "sign": sign,
    }
    return roots_inside == 0 and sign > 0, witness


def _gf_form(dist: DegreeDistribution) -> ExpPoly:
    """The generating function at x = e^{-t}: sum_k w_k e^{-kt}."""
    return ExpPoly((k, 0, w) for k, w in dist.atoms)


def check_gf_dominance(
    s_dist: DegreeDistribution, t_dist: DegreeDistribution
) -> ComparisonReport:
    """Certify first-layer dominance of s_dist over t_dist given G_S > G_T.

    The hypothesis G_S(x) > G_T(x) on (0, 1), the identity
    gamma' = e^{-t}(G_S - G_T)(e^{-t}) for gamma = Qrho1_S - Qrho1_T, and
    the conclusion gamma(t) > 0 for every t > 0 are each certified
    exactly, with no grid.  If the hypothesis fails, the report holds
    only that check and its status is 'hypothesis-violated'.
    """
    claim = "first-layer density of S exceeds that of T when G_S > G_T on (0,1)"
    params = {"S": s_dist.label(), "T": t_dist.label()}
    gap = _gf_form(s_dist) - _gf_form(t_dist)
    held, witness = _positive_for_all_t(gap)
    hypothesis = PointCheck("hypothesis: G_S - G_T > 0 on (0, 1)", held, witness)
    if not held:
        return ComparisonReport(claim, params, "hypothesis-violated", (hypothesis,))

    gamma = averaged_densities(s_dist).Qrho1 - averaged_densities(t_dist).Qrho1
    identity = gamma.derivative() == gap * ExpPoly.exp(1)
    positive, witness = _positive_for_all_t(gamma)
    checks = [
        hypothesis,
        PointCheck(
            "identity: gamma' = e^{-t} (G_S - G_T)(e^{-t})", identity, {"equal": identity}
        ),
        PointCheck("conclusion: gamma > 0 for every t > 0", positive, witness),
    ]
    return ComparisonReport(claim, params, _status(checks), tuple(checks))


def check_jensen(d: int, s_dist: DegreeDistribution) -> ComparisonReport:
    """Certify that mean-degree-d randomness raises the first layer.

    Requires s_dist.mean() == d exactly.  For the point mass at d the two
    closed forms must be equal.  Otherwise Qrho1_S - rho1_d > 0 is
    certified for every t > 0 with no grid; the witness adds the exact
    limiting gain sum_k w_k/(k+1) - 1/(d+1), the Jensen gap of 1/(k+1).
    """
    d = _count(d, "d", 2)
    if s_dist.mean() != d:
        raise ValueError(
            f"mean degree of {s_dist.label()} is {s_dist.mean()}, expected {d}"
        )
    gain = averaged_densities(s_dist).Qrho1 - regular_densities(d).rho1
    if s_dist.is_point_mass():
        equal = gain.is_zero()
        check = PointCheck("point mass: exact equality", equal, {"equal": equal})
    else:
        positive, witness = _positive_for_all_t(gain)
        witness["limit_gain"] = str(gain.limit_at_infinity())
        check = PointCheck("dominance: Qrho1_S - rho1_d > 0 for every t > 0", positive, witness)
    return ComparisonReport(
        claim="first-layer density of a mean-d random tree is >= the d-regular one",
        params={"d": d, "S": s_dist.label()},
        status=_status([check]),
        checks=(check,),
    )
