"""Independent reference derivations that the tests compare the package with.

Exact side: the term-pair product of two ExpPoly forms, the code-2 inflow
rate, the rho2 display and the two-atom C_t(n, x) route to Qrho2.  Float
side: adaptive quadrature of the QD2 integrand.  Simulator: an
event-by-event replay of given arrival times that asserts the two-layer
transition conditions, the rule the package's layer-by-layer kernel must
match, and the occupied-layer bitmasks that fill times give at sample
times, with the observables read from those masks.  The binomial double
sum for QD2 is not here: `screendep validate` runs it, so it lives in
screendep.acceptance.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, exp

import numpy as np
from scipy.integrate import quad

from screendep.analytic import regular_densities
from screendep.degree import DegreeDistribution
from screendep.deposit import SimConfig
from screendep.exppoly import ExpPoly
from screendep.graphs import GraphInstance


# -- exact side -----------------------------------------------------------------


def pairwise_product(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """f * g as one Fraction triple per pair of terms, merged by the constructor.

    The product rule written out directly, with no common denominators:
    the integer-numerator product in ExpPoly.__mul__ must give the same
    canonical terms.
    """
    return ExpPoly(
        (a1 + a2, k1 + k2, c1 * c2) for a1, k1, c1 in f.terms for a2, k2, c2 in g.terms
    )


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
    terms: list[tuple[int, int, Fraction]] = []
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


def qd2_quadrature(dist: DegreeDistribution, t: float) -> float:
    """QD2(t) by adaptive quadrature of the un-expanded integrand.

    Uses the product form sum_d0 a_d0 ((1 + z0 - Z_u)^{d0} - 1) e^{-(d0+1)u}
    with float arithmetic throughout: a check on the exact integration in
    AveragedDensities.QD2 that shares none of the ExpPoly ring.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    atoms = [(d, float(w)) for d, w in dist.atoms]
    z0 = sum(w / (d - 1) for d, w in atoms)

    def z_at(u: float) -> float:
        return sum(w * exp(-(d - 1) * u) / (d - 1) for d, w in atoms)

    def integrand(u: float) -> float:
        zz = z0 - z_at(u)
        return sum(w * ((1.0 + zz) ** d - 1.0) * exp(-(d + 1) * u) for d, w in atoms)

    value, _err = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


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
    graph: GraphInstance, config: SimConfig, arrivals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Settle given arrivals event by event, asserting every transition.

    arrivals[j, v] is the (j + 1)-th arrival time at vertex v, for the
    first arrivals.shape[1] vertex ids; the other vertices receive none.
    The arrivals are sorted by time and settled one by one on the whole
    graph, each vertex keeping its whole stack of settlement heights.  A
    particle settles one above the highest stack in its closed
    neighborhood.  Returns two arrays.  The masks (occupied heights up to
    config.depth) of every vertex at each sample time, shape (n_times, n),
    where a sample time includes the events at or before it.  The fill
    times, shape (config.depth, n): entry [h - 1, v] is the time a particle
    settles at height h at v, inf if none does by the last sample time.
    Arrivals after the last sample time cannot change a mask and are not
    settled.
    """
    n = graph.vertex_count
    times = np.asarray(arrivals, dtype=np.float64)
    order = np.argsort(times, axis=None, kind="stable")
    sites = (order % times.shape[1]).tolist()
    times = times.ravel()[order].tolist()

    stacks: list[list[int]] = [[] for _ in range(n)]
    masks: list[list[int]] = []
    fill = np.full((config.depth, n), np.inf)
    pending = list(config.sample_times)

    def snapshot() -> None:
        masks.append([sum(1 << (h - 1) for h in s if h <= config.depth) for s in stacks])
        pending.pop(0)

    for t, v in zip(times, sites):
        while pending and pending[0] < t:
            snapshot()
        if not pending:
            break
        nbrs = [stacks[u] for u in graph.neighbors[v]]
        expected = _predicted_code(stacks[v], nbrs)
        height = 1 + max(max(s, default=0) for s in (stacks[v], *nbrs))
        stacks[v].append(height)
        assert _code(stacks[v]) == expected, (
            f"vertex {v} at t={t}: settled at height {height}, "
            f"two-layer code {_code(stacks[v])}, conditions predicted {expected}"
        )
        if height <= config.depth:
            fill[height - 1, v] = t
    while pending:
        snapshot()
    return np.array(masks, dtype=np.int64), fill


def masks_at(fill_times: np.ndarray, sample_times) -> np.ndarray:
    """The occupied-layer bitmasks that fill times give at the sample times,
    shape (n_times, n): bit k of a vertex's mask is set iff fill[k] <= t."""
    times = np.asarray(sample_times, dtype=np.float64)[:, None]
    masks = np.zeros((len(times), fill_times.shape[1]), dtype=np.int64)
    for k, row in enumerate(fill_times):
        masks |= (row <= times).astype(np.int64) << k
    return masks


def mask_observables(masks: np.ndarray, config: SimConfig) -> np.ndarray:
    """The observables read from masks, shape (n_observables, n_times): the
    share of vertices with layer k's bit set, or with the lowest len(p) bits
    equal to the word p read as a binary number."""
    rows = [(masks >> (k - 1)) & 1 for k in config.layers] + [
        (masks & ((1 << len(p)) - 1)) == int(p, 2) for p in config.patterns
    ]
    return np.array([row.mean(axis=1) for row in rows])
