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


def betas(d: int) -> tuple[Fraction, ...]:
    """beta_k(d) = (d/(d-1))^d C(d,k) d^{-k} / ((d-1)k + d + 1) for k = 0..d.

    D2 on T_d is the alternating sum of beta_k(d)(1 - e^{-((d-1)k + d + 1)t})
    less (1 - e^{-(d+1)t})/(d+1); the layer-dominance proof bounds the
    same sum.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    scale = Fraction(d, d - 1) ** d
    return tuple(
        scale * comb(d, k) * Fraction(1, d ** k) / ((d - 1) * k + d + 1)
        for k in range(d + 1)
    )


def _d2(d: int) -> ExpPoly:
    r = d + 1
    terms: list[tuple[object, int, Fraction]] = []
    for k, beta in enumerate(betas(d)):
        beta *= (-1) ** k
        rate = (d - 1) * k + d + 1
        terms.append((0, 0, beta))
        terms.append((rate, 0, -beta))
    terms.append((0, 0, -Fraction(1, r)))
    terms.append((r, 0, Fraction(1, r)))
    return ExpPoly(terms)


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

    rho1 = (1 - e^{-(d+1)t})/(d+1), verified against D1 + D3 at
    construction; rho2 = D2 + D3, with D2 the alternating sum over betas(d).
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    r = d + 1
    d2, d3 = _d2(d), _d3(d)
    return RegularDensities(
        d=d,
        D1=_d1(d),
        D2=d2,
        D3=d3,
        rho1=(ExpPoly.one() - ExpPoly.exp(r)) / r,
        rho2=d2 + d3,
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
