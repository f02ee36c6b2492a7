"""Correctness checks the benchmark applies to the CLI's outputs, from outside.

Every check is one operation: it is recorded in a CheckLog as passed or
failed, and the benchmark reports failures against attempts.  The
references here are the paper's closed forms written out independently of
the package (frozen motive forms, first-layer formulas, quadrature of the
un-expanded second-layer integrand); the Monte Carlo checks compare the
pooled replica means against the package's own exact forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from scipy.integrate import quad

# A correct sampler exceeds |z| = 5 on a pooled point with probability
# about 6e-7, so the bound holds at any seed while a wrong rate, which
# shifts a pooled mean by many standard errors, fails it.
Z_BOUND = 5.0
FLOAT_TOL = 1e-12
QUAD_TOL = 1e-10
QUAD_TIMES = (0.5, 1.0, 2.0, 5.0, 20.0)


def _form(*terms):
    """Canonical (rate, power, coeff) tuple of an exponential polynomial."""
    return tuple(sorted((Fraction(a), int(k), Fraction(c)) for a, k, c in terms))


# Closed forms of the solved 0101 pattern system on the line (d = 2).
FROZEN_0101 = {
    "lone": _form((4, 1, 1)),
    "pair": _form((4, 1, 1), (5, 1, -1)),
    "gain_open": _form(
        (3, 0, "7/4"), (4, 0, -2), (4, 1, -2), (5, 0, "1/4"), (5, 1, "1/2")
    ),
    "cap_cond": _form(
        (2, 0, "7/4"), (3, 0, -2), (3, 1, -2), (4, 0, "1/4"), (4, 1, "1/2")
    ),
    "gain_capped": _form(
        (3, 0, "67/48"), (4, 0, -7), (5, 0, "31/4"), (5, 1, 4),
        (6, 0, "-7/3"), (6, 1, -2), (7, 0, "3/16"), (7, 1, "1/4"),
    ),
    "loss_open": _form(
        (3, 0, "-15/4"), (3, 1, "7/4"), (4, 0, 4), (4, 1, 2),
        (5, 0, "-1/4"), (5, 1, "-1/4"),
    ),
    "loss_capped": _form(
        (3, 0, "-49/16"), (3, 1, "67/48"), (4, 0, 7), (5, 0, "-39/8"),
        (5, 1, -2), (6, 0, 1), (6, 1, "2/3"), (7, 0, "-1/16"), (7, 1, "-1/16"),
    ),
    "target": _form(
        (0, 0, "34/735"), (3, 0, "-1991/432"), (3, 1, "235/144"), (4, 0, 7),
        (4, 1, 2), (5, 0, "-121/40"), (5, 1, "-3/2"), (6, 0, "17/27"),
        (6, 1, "4/9"), (7, 0, "-33/784"), (7, 1, "-5/112"),
    ),
}
LIMIT_0101 = Fraction(34, 735)
LIMIT_RHO2_LINE = Fraction(14, 45)
LIMIT_QRHO1_23 = Fraction(7, 24)


@dataclass
class CheckLog:
    """Outcomes of the correctness checks of one benchmark run."""

    results: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def failures(self) -> list:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


# -- parsing -----------------------------------------------------------------


def parse_csv(text: str) -> dict:
    """CLI curve CSV -> {(observable, time): (mean, stderr, n)}."""
    rows = {}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "time,observable,mean,stderr,n":
        raise ValueError("not a curve CSV")
    for ln in lines[1:]:
        t, name, mean, stderr, n = ln.split(",")
        rows[(name, float(t))] = (float(mean), float(stderr), n)
    return rows


def eval_form(form, t: float) -> float:
    return sum(float(c) * t ** k * math.exp(-float(a) * t) for a, k, c in form)


# -- independent float references ------------------------------------------


def rho1_law(atoms, t: float) -> float:
    """First-layer density at the root: sum_d w (1 - e^{-(d+1)t})/(d+1)."""
    return sum(w * (1.0 - math.exp(-(d + 1) * t)) / (d + 1) for d, w in atoms)


def rho2_law(atoms, t: float) -> float:
    """Second-layer density at the root: quadrature of the product-form QD2
    integrand plus the closed form of QD3."""
    z0 = sum(w / (d - 1) for d, w in atoms)

    def integrand(u: float) -> float:
        z = sum(w * math.exp(-(d - 1) * u) / (d - 1) for d, w in atoms)
        return sum(
            w * ((1.0 + z0 - z) ** d - 1.0) * math.exp(-(d + 1) * u) for d, w in atoms
        )

    qd2 = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)[0] if t > 0 else 0.0
    qd3 = sum(
        w * ((1.0 - math.exp(-(d + 1) * t)) / (d + 1) ** 2 - t * math.exp(-(d + 1) * t) / (d + 1))
        for d, w in atoms
    )
    return qd2 + qd3


def parse_law(text: str):
    """'2:1/2,3:1/2' -> [(2, 0.5), (3, 0.5)]."""
    return [(int(d), float(Fraction(w))) for d, w in (p.split(":") for p in text.split(","))]


# -- Monte Carlo checks ------------------------------------------------------


def check_mc(log: CheckLog, label: str, outputs: list, refs: dict, replicas: int):
    """Pool the replica means of distinct-seed runs and z-test each point.

    outputs holds one CSV text per distinct seed; refs maps an observable
    name to its exact form (anything with eval(t)).  Returns the pooled
    per-replica variance of each (observable, time), used for the
    time-to-accuracy metric.
    """
    parsed = [parse_csv(text) for text in outputs]
    keys = sorted(parsed[0])
    log.record(
        f"{label}: observables",
        {name for name, _ in keys} == set(refs) and all(sorted(p) == keys for p in parsed),
        f"got {sorted({name for name, _ in keys})}, want {sorted(refs)}",
    )
    log.record(
        f"{label}: replica count",
        all(row[2] == str(replicas) for p in parsed for row in p.values()),
        f"n column differs from {replicas}",
    )
    variance = {}
    k = len(parsed)
    for key in keys:
        name, t = key
        if name not in refs:
            continue
        means = [p[key][0] for p in parsed]
        ses = [p[key][1] for p in parsed]
        mean = sum(means) / k
        se = math.sqrt(sum(s * s for s in ses)) / k
        exact = refs[name].eval(t)
        z = abs(mean - exact) / se if se > 0 else (0.0 if mean == exact else math.inf)
        log.record(
            f"{label}: {name} at t={t:g}",
            z <= Z_BOUND,
            f"pooled mean {mean:.6f} vs exact {exact:.6f}, z={z:.2f} over {k} runs",
        )
        variance[key] = sum(s * s for s in ses) * replicas / k
    return variance


# -- exact-sweep checks --------------------------------------------------------


def check_motives_json(log: CheckLog, text: str, frozen: dict = FROZEN_0101) -> None:
    """Exact equality of every motive closed form and the jamming limit."""
    data = json.loads(text)
    forms = {m["name"]: _form(*m["closed_form"]["terms"]) for m in data["motives"]}
    for name, want in frozen.items():
        log.record(f"motive {name} closed form", forms.get(name) == want, "differs from frozen form")
    log.record(
        "0101 limit", Fraction(data["limit"]) == LIMIT_0101, f"{data['limit']} != {LIMIT_0101}"
    )


def check_grid_curve(log: CheckLog, label: str, text: str, grid, series: dict) -> None:
    """series maps observable -> (reference function of t, times to check or None
    for the whole grid, tolerance)."""
    rows = parse_csv(text)
    log.record(
        f"{label}: grid",
        len(rows) == len(grid) * len(series)
        and all((name, t) in rows for name in series for t in grid),
        f"{len(rows)} rows for {len(grid)} times x {len(series)} observables",
    )
    for name, (ref, times, tol) in series.items():
        worst = 0.0
        for t in grid if times is None else times:
            row = rows.get((name, t))
            worst = max(worst, math.inf if row is None else abs(row[0] - ref(t)))
        log.record(f"{label}: {name}", worst <= tol, f"max |diff| {worst:.3e} > {tol:g}")


def check_analytic(log: CheckLog, label: str, text: str, grid, atoms) -> None:
    check_grid_curve(
        log, label, text, grid,
        {
            "layer:1": (lambda t: rho1_law(atoms, t), None, FLOAT_TOL),
            "layer:2": (lambda t: rho2_law(atoms, t), QUAD_TIMES, QUAD_TOL),
        },
    )


def check_exact_limits(log: CheckLog) -> None:
    """The jamming limits of the line and of the 2:1/2,3:1/2 law, exactly."""
    from screendep import DegreeDistribution, averaged_densities, regular_densities

    rho2 = regular_densities(2).rho2.limit_at_infinity()
    log.record("rho2 limit on the line", rho2 == LIMIT_RHO2_LINE, f"{rho2} != {LIMIT_RHO2_LINE}")
    law = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
    qrho1 = averaged_densities(law).Qrho1.limit_at_infinity()
    log.record("Qrho1 limit for 2:1/2,3:1/2", qrho1 == LIMIT_QRHO1_23, f"{qrho1} != {LIMIT_QRHO1_23}")
