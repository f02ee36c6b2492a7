"""Independent reference derivations that the tests compare the package with.

Exact side: the code-2 inflow rate, the rho2 display, the two-atom C_t(n, x)
route to Qrho2 and the binomial double sum for QD2.  Simulator: an
event-by-event replay that asserts the two-layer transition conditions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from screendep.analytic import regular_densities, z_kernel
from screendep.degree import DegreeDistribution
from screendep.deposit import SimConfig
from screendep.exppoly import ExpPoly
from screendep.graphs import GraphInstance


# -- exact side -----------------------------------------------------------------


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


def rho2_display(d: int) -> ExpPoly:
    """rho2 on T_d written out as the paper's display, beta_k(d) built here.

    rho2 = sum_k (-1)^k beta_k(d) (1 - e^{-((d-1)k + d + 1)t})
           - d(1 - e^{-(d+1)t})/(d+1)^2 - t e^{-(d+1)t}/(d+1).
    """
    r = d + 1
    terms: list[tuple[object, int, Fraction]] = []
    for k in range(d + 1):
        rate = (d - 1) * k + d + 1
        beta = (-1) ** k * Fraction(d, d - 1) ** d * comb(d, k) / (d ** k * rate)
        terms.append((0, 0, beta))
        terms.append((rate, 0, -beta))
    terms.append((0, 0, -Fraction(d, r * r)))
    terms.append((r, 0, Fraction(d, r * r)))
    terms.append((r, 1, -Fraction(1, r)))
    return ExpPoly(terms)


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
        out = out + regular_densities(d0).D3.scale(w)
        for k in range(1, d0 + 1):
            for i in range(k + 1):
                coeff = w * comb(d0, k) * comb(k, i) * (-1) ** i * z0 ** (k - i)
                out = out + c_integral(dist, i, d0).scale(coeff)
    return out


def binomial_qd2(dist: DegreeDistribution) -> ExpPoly:
    """QD2 by the binomial double sum over k and i, one integral per term.

    Expands ((1 + z0 - Z)^{d0} - 1) as sum_{k>=1} C(d0,k) (z0 - Z)^k and
    (z0 - Z)^k as sum_i C(k,i) (-1)^i z0^{k-i} Z^i: an independent route
    to the product form that averaged_densities integrates.
    """
    z = z_kernel(dist)
    z0 = z.at_zero()
    z_pow = [ExpPoly.one()]
    for _ in range(dist.max_degree):
        z_pow.append(z_pow[-1] * z)
    qd2 = ExpPoly.zero()
    for d0, w in dist.atoms:
        for k in range(1, d0 + 1):
            for i in range(k + 1):
                coeff = w * comb(d0, k) * comb(k, i) * (-1) ** i * z0 ** (k - i)
                qd2 = qd2 + (z_pow[i] * ExpPoly.exp(d0 + 1)).integrate0().scale(coeff)
    return qd2


# -- simulator --------------------------------------------------------------------


def _code(stack: list[int]) -> int:
    """Two-layer occupancy code: bit 0 = layer 1 occupied, bit 1 = layer 2."""
    return int(1 in stack) + 2 * int(2 in stack)


def _predicted_code(site: list[int], nbrs: list[list[int]]) -> int:
    """The site's two-layer code after one more settlement there.

    An empty closed neighborhood creates layer 1.  An empty site whose
    occupied neighbors each hold a single particle at layer 1 (at least one
    of them) creates layer 2.  A site holding one particle at layer 1 with
    every neighbor empty creates layer 2 on top of it, giving code 3.  Any
    other settlement leaves layers 1 and 2 as they were.
    """
    occupied = [s for s in nbrs if s]
    if not site and not occupied:
        return 1
    if not site and all(s == [1] for s in occupied):
        return 2
    if site == [1] and not occupied:
        return 3
    return _code(site)


def replay(
    graph: GraphInstance, config: SimConfig, seed: int
) -> tuple[np.ndarray, list[list[int]]]:
    """Replay one replica event by event, asserting every transition.

    Draws the arrival stream the way deposit.run_replica does (Poisson
    event count, sorted uniform times, uniform integer sites) but keeps
    each vertex's whole stack of settlement heights, and settles every
    arrival.  A particle settles one above the highest stack in its closed
    neighborhood.  Returns the masks (occupied heights up to config.depth)
    of every vertex at each sample time, shape (n_times, n), where a sample
    time includes the events at or before it; and each vertex's stack of
    heights at the horizon, bottom first.
    """
    rng = np.random.default_rng(seed)
    n = graph.vertex_count
    n_events = rng.poisson(n * config.horizon)
    times = np.sort(rng.random(n_events)) * config.horizon
    sites = rng.integers(0, n, size=n_events)

    stacks: list[list[int]] = [[] for _ in range(n)]
    masks: list[list[int]] = []
    pending = list(config.sample_times)

    def snapshot() -> None:
        masks.append([sum(1 << (h - 1) for h in s if h <= config.depth) for s in stacks])
        pending.pop(0)

    for t, v in zip(times.tolist(), sites.tolist()):
        while pending and pending[0] < t:
            snapshot()
        nbrs = [stacks[u] for u in graph.neighbors[v]]
        expected = _predicted_code(stacks[v], nbrs)
        stacks[v].append(1 + max(max(s, default=0) for s in (stacks[v], *nbrs)))
        assert _code(stacks[v]) == expected, (
            f"vertex {v} at t={t}: settled at height {stacks[v][-1]}, "
            f"two-layer code {_code(stacks[v])}, conditions predicted {expected}"
        )
    while pending:
        snapshot()
    return np.array(masks, dtype=np.int64), stacks
