"""Exact layer densities for screened deposition on trees.

Closed forms for the two-layer occupancy code m in {0,1,2,3} of a vertex
(bit 0 = layer 1, bit 1 = layer 2): on the d-regular tree the code-class
probabilities D1, D2, D3 and the layer densities rho1 = D1 + D3,
rho2 = D2 + D3; on a random tree with degree law Q the tree-averaged
analogues at the root.  Everything is carried as ExpPoly, so identities
between the different derivations hold exactly, not to a tolerance.

Notation used throughout: S_d(t) = e^{-t}(1 - e^{-(d-1)t})/(d - 1) is the
conditional probability that a fixed neighbor of an empty vertex carries
exactly one particle, at layer 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .degree import DegreeDistribution
from .exppoly import ExpPoly


def s_conditional(d: int) -> ExpPoly:
    """S_d(t): P(one particle, at layer 1, on a neighbor | center empty)."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    # e^{-t}(1 - e^{-(d-1)t})/(d-1) = (e^{-t} - e^{-dt})/(d-1)
    return (ExpPoly.exp(1) - ExpPoly.exp(d)) / (d - 1)


def _d1(d: int) -> ExpPoly:
    r = d + 1
    return ExpPoly(
        [
            (0, 0, Fraction(d, r * r)),
            (r, 0, -Fraction(d, r * r)),
            (r, 1, Fraction(1, r)),
        ]
    )


def _d3(d: int) -> ExpPoly:
    r = d + 1
    return ExpPoly(
        [
            (0, 0, Fraction(1, r * r)),
            (r, 0, -Fraction(1, r * r)),
            (r, 1, -Fraction(1, r)),
        ]
    )


def _beta(d: int, k: int) -> Fraction:
    return (
        Fraction(d, d - 1) ** d
        * comb(d, k)
        * Fraction(1, d ** k)
        / ((d - 1) * k + d + 1)
    )


def _d2(d: int) -> ExpPoly:
    r = d + 1
    terms: list[tuple[object, int, Fraction]] = []
    for k in range(d + 1):
        beta = _beta(d, k) * (-1) ** k
        rate = (d - 1) * k + d + 1
        terms.append((0, 0, beta))
        terms.append((rate, 0, -beta))
    terms.append((0, 0, -Fraction(1, r)))
    terms.append((r, 0, Fraction(1, r)))
    return ExpPoly(terms)


def _rho2_display(d: int) -> ExpPoly:
    r = d + 1
    terms: list[tuple[object, int, Fraction]] = []
    for k in range(d + 1):
        beta = _beta(d, k) * (-1) ** k
        rate = (d - 1) * k + d + 1
        terms.append((0, 0, beta))
        terms.append((rate, 0, -beta))
    terms.append((0, 0, -Fraction(d, r * r)))
    terms.append((r, 0, Fraction(d, r * r)))
    terms.append((r, 1, -Fraction(1, r)))
    return ExpPoly(terms)


def d2_rate(d: int) -> ExpPoly:
    """The inflow rate of the code-2 class: e^{-(d+1)t}[(1 + (1-e^{-(d-1)t})/(d-1))^d - 1].

    Integrating this from 0 reproduces D2; the expansion of the bracket is
    how the alternating-sum display arises, so the two routes cross-check
    each other term by term.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    w = (ExpPoly.one() - ExpPoly.exp(d - 1)) / (d - 1)
    return ExpPoly.exp(d + 1) * ((ExpPoly.one() + w) ** d - ExpPoly.one())


@dataclass(frozen=True)
class RegularDensities:
    """Exact code-class probabilities and layer densities on the d-regular tree."""

    d: int
    D1: ExpPoly
    D2: ExpPoly
    D3: ExpPoly
    rho1: ExpPoly
    rho2: ExpPoly

    def __post_init__(self):
        if self.rho1 != self.D1 + self.D3:
            raise AssertionError(f"d={self.d}: rho1 != D1 + D3")
        if self.rho2 != self.D2 + self.D3:
            raise AssertionError(f"d={self.d}: rho2 display != D2 + D3")

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "D1": self.D1.to_json_dict(),
            "D2": self.D2.to_json_dict(),
            "D3": self.D3.to_json_dict(),
            "rho1": self.rho1.to_json_dict(),
            "rho2": self.rho2.to_json_dict(),
        }


def regular_densities(d: int) -> RegularDensities:
    """Exact densities on the d-regular tree, d >= 2.

    rho1 = (1 - e^{-(d+1)t})/(d+1); rho2 is the alternating sum over
    beta_k(d) = (d/(d-1))^d C(d,k) d^{-k} / ((d-1)k + d + 1).  Both are
    verified against D1 + D3 and D2 + D3 at construction.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    r = d + 1
    rho1 = (ExpPoly.one() - ExpPoly.exp(r)) / r
    return RegularDensities(
        d=d,
        D1=_d1(d),
        D2=_d2(d),
        D3=_d3(d),
        rho1=rho1,
        rho2=_rho2_display(d),
    )


@dataclass(frozen=True)
class AveragedDensities:
    """Tree-averaged root densities on a random tree with degree law dist.

    Z(t) = sum_d a_d e^{-(d-1)t}/(d-1) is the kernel entering the QD2
    integrals; z0 = Z(0).
    """

    dist: DegreeDistribution
    QD1: ExpPoly
    QD2: ExpPoly
    QD3: ExpPoly
    Qrho1: ExpPoly
    Qrho2: ExpPoly
    Z: ExpPoly

    def __post_init__(self):
        if self.Qrho1 != self.QD1 + self.QD3:
            raise AssertionError(f"{self.dist.label()}: Qrho1 != QD1 + QD3")
        if self.Qrho2 != self.QD2 + self.QD3:
            raise AssertionError(f"{self.dist.label()}: Qrho2 != QD2 + QD3")

    def to_json_dict(self) -> dict:
        return {
            "dist": self.dist.to_json_dict(),
            "QD1": self.QD1.to_json_dict(),
            "QD2": self.QD2.to_json_dict(),
            "QD3": self.QD3.to_json_dict(),
            "Qrho1": self.Qrho1.to_json_dict(),
            "Qrho2": self.Qrho2.to_json_dict(),
            "Z": self.Z.to_json_dict(),
        }


def z_kernel(dist: DegreeDistribution) -> ExpPoly:
    """Z(t) = sum_d a_d e^{-(d-1)t}/(d-1)."""
    return ExpPoly((d - 1, 0, w * Fraction(1, d - 1)) for d, w in dist.atoms)


def averaged_densities(dist: DegreeDistribution) -> AveragedDensities:
    """Exact tree-averaged densities at the root of a random tree.

    QD1 and QD3 average the regular-tree formulas over the root degree
    (their derivations never look past the nearest neighbors).  QD2
    integrates the product form of the code-2 inflow exactly, one ODE
    solve per atom:

        QD2 = sum_d0 a_d0 int_0^t (W_u^{d0} - 1) e^{-(d0+1)u} du,
        W = 1 + z0 - Z.

    The atoms are sorted by degree, so each W^{d0} is reached from the
    previous atom's power by repeated multiplication with W.
    """
    qd1 = ExpPoly.zero()
    qd3 = ExpPoly.zero()
    for d, w in dist.atoms:
        qd1 = qd1 + _d1(d).scale(w)
        qd3 = qd3 + _d3(d).scale(w)
    qrho1 = ExpPoly(
        t
        for d, w in dist.atoms
        for t in ((0, 0, w * Fraction(1, d + 1)), (d + 1, 0, -w * Fraction(1, d + 1)))
    )

    z = z_kernel(dist)
    base = ExpPoly.constant(1 + z.at_zero()) - z
    power, base_pow = 0, ExpPoly.one()
    qd2 = ExpPoly.zero()
    for d0, w in dist.atoms:
        for _ in range(d0 - power):
            base_pow = base_pow * base
        power = d0
        inflow = (base_pow - ExpPoly.one()) * ExpPoly.exp(d0 + 1)
        qd2 = qd2 + inflow.integrate0().scale(w)

    return AveragedDensities(
        dist=dist,
        QD1=qd1,
        QD2=qd2,
        QD3=qd3,
        Qrho1=qrho1,
        Qrho2=qd2 + qd3,
        Z=z,
    )


def c_integral(dist: DegreeDistribution, n: int, x: int) -> ExpPoly:
    """C_t(n, x) = int_0^t Z_u^n e^{-(x+1)u} du for a two-atom degree law.

    For n = 0 this is (1 - e^{-(x+1)t})/(x+1); for n > 0 the binomial
    expansion of Z^n gives a sum of simple exponential integrals with
    rates (a-1)(n-j) + (b-1)j + x + 1.
    """
    if len(dist.atoms) != 2:
        raise ValueError(
            f"c_integral needs a two-atom degree law, got {len(dist.atoms)} atoms"
        )
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    (a, pa), (b, pb) = dist.atoms
    if n == 0:
        r = x + 1
        return ExpPoly([(0, 0, Fraction(1, r)), (r, 0, -Fraction(1, r))])
    terms = []
    for j in range(n + 1):
        weight = (
            comb(n, j)
            * (pa * Fraction(1, a - 1)) ** (n - j)
            * (pb * Fraction(1, b - 1)) ** j
        )
        r = (a - 1) * (n - j) + (b - 1) * j + x + 1
        terms.append((0, 0, weight * Fraction(1, r)))
        terms.append((r, 0, -weight * Fraction(1, r)))
    return ExpPoly(terms)


def two_atom_rho2(dist: DegreeDistribution) -> ExpPoly:
    """Integral-free closed form of Qrho2 for a two-atom degree law.

    Assembled from C_t(n, x) instead of ExpPoly integration, so it is an
    independent route to the same function as averaged_densities().Qrho2.
    """
    if len(dist.atoms) != 2:
        raise ValueError(
            f"two_atom_rho2 needs a two-atom degree law, got {len(dist.atoms)} atoms"
        )
    z0 = sum(w * Fraction(1, d - 1) for d, w in dist.atoms)
    out = ExpPoly.zero()
    for d0, w in dist.atoms:
        out = out + _d3(d0).scale(w)
        for k in range(1, d0 + 1):
            for i in range(k + 1):
                coeff = w * comb(d0, k) * comb(k, i) * (-1) ** i * z0 ** (k - i)
                out = out + c_integral(dist, i, d0).scale(coeff)
    return out


def qd2_quadrature(dist: DegreeDistribution, t: float) -> float:
    """QD2(t) by adaptive quadrature of the un-expanded integrand.

    Uses the product form sum_d0 a_d0 ((1 + z0 - Z_u)^{d0} - 1) e^{-(d0+1)u}
    with float arithmetic throughout; serves as an oracle for the exact
    integration in averaged_densities.  scipy is imported here, not at
    module level, so the rest of the package loads without it.
    """
    from scipy.integrate import quad

    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    atoms = [(d, float(w)) for d, w in dist.atoms]
    z0 = sum(w / (d - 1) for d, w in atoms)

    def z_at(u: float) -> float:
        return sum(w * math.exp(-(d - 1) * u) / (d - 1) for d, w in atoms)

    def integrand(u: float) -> float:
        zz = z0 - z_at(u)
        return sum(w * ((1.0 + zz) ** d - 1.0) * math.exp(-(d + 1) * u) for d, w in atoms)

    value, _err = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value
