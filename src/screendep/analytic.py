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
from functools import cached_property
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
    """Exact code-class probabilities on the d-regular tree.

    The layer densities are sums of code classes: rho1 = D1 + D3 (which
    equals (1 - e^{-(d+1)t})/(d+1)) and rho2 = D2 + D3.
    """

    d: int
    D1: ExpPoly
    D2: ExpPoly
    D3: ExpPoly

    @property
    def rho1(self) -> ExpPoly:
        return self.D1 + self.D3

    @property
    def rho2(self) -> ExpPoly:
        return self.D2 + self.D3


def regular_densities(d: int) -> RegularDensities:
    """Exact densities on the d-regular tree, d >= 2.

    D2 is the alternating sum over betas(d).
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    return RegularDensities(d=d, D1=_d1(d), D2=_d2(d), D3=_d3(d))


def z_kernel(dist: DegreeDistribution) -> ExpPoly:
    """Z(t) = sum_d a_d e^{-(d-1)t}/(d-1)."""
    return ExpPoly((d - 1, 0, w * Fraction(1, d - 1)) for d, w in dist.atoms)


@dataclass(frozen=True)
class AveragedDensities:
    """Tree-averaged root code classes on a random tree with degree law dist.

    QD1 and QD3 average the regular-tree formulas over the root degree
    (their derivations never look past the nearest neighbors), so the
    first layer Qrho1 = QD1 + QD3 needs nothing more.  Only the second
    layer Qrho2 = QD2 + QD3 needs QD2, which is expanded the first time
    it is read.
    """

    dist: DegreeDistribution
    QD1: ExpPoly
    QD3: ExpPoly

    @property
    def Qrho1(self) -> ExpPoly:
        return self.QD1 + self.QD3

    @property
    def Qrho2(self) -> ExpPoly:
        return self.QD2 + self.QD3

    @cached_property
    def QD2(self) -> ExpPoly:
        """The code-2 inflow integrated exactly, one ODE solve per atom:

            QD2 = sum_d0 a_d0 int_0^t (W_u^{d0} - 1) e^{-(d0+1)u} du,
            W = 1 + z0 - Z,  Z = z_kernel(dist),  z0 = Z(0).

        The atoms are sorted by degree, so each W^{d0} is reached from the
        previous atom's power by repeated multiplication with W.
        """
        z = z_kernel(self.dist)
        base = ExpPoly.constant(1 + z.at_zero()) - z
        power, base_pow = 0, ExpPoly.one()
        qd2 = ExpPoly.zero()
        for d0, w in self.dist.atoms:
            for _ in range(d0 - power):
                base_pow = base_pow * base
            power = d0
            inflow = (base_pow - ExpPoly.one()) * ExpPoly.exp(d0 + 1)
            qd2 = qd2 + inflow.integrate0().scale(w)
        return qd2


def averaged_densities(dist: DegreeDistribution) -> AveragedDensities:
    """Exact tree-averaged code classes at the root of a random tree."""
    qd1 = ExpPoly.zero()
    qd3 = ExpPoly.zero()
    for d, w in dist.atoms:
        qd1 = qd1 + _d1(d).scale(w)
        qd3 = qd3 + _d3(d).scale(w)
    return AveragedDensities(dist=dist, QD1=qd1, QD3=qd3)


def qd2_quadrature(dist: DegreeDistribution, t: float) -> float:
    """QD2(t) by adaptive quadrature of the un-expanded integrand.

    Uses the product form sum_d0 a_d0 ((1 + z0 - Z_u)^{d0} - 1) e^{-(d0+1)u}
    with float arithmetic throughout; serves as an oracle for the exact
    integration in AveragedDensities.QD2.  scipy is imported here, not at
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
