"""Exact calculus over exponential polynomials sum_i c_i * t^k_i * exp(-a_i * t).

Every layer density and motive closed form used in this package lives in the
ring of finite sums c * t^k * exp(-a t) with rational coefficients c, integer
powers k >= 0 and nonnegative rational decay rates a.  The ring is closed
under addition, multiplication, differentiation, integration from 0, and
resolvents of the linear ODEs y' = -lam * y + forcing that the hierarchy of
density equations produces.  All coefficient arithmetic is done with
fractions.Fraction, so derived closed forms can be compared term by term
with no floating-point tolerance.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, str, Fraction]

DEFAULT_TERM_BUDGET = 10_000

_term_budget = DEFAULT_TERM_BUDGET


class TermBudgetError(RuntimeError):
    """Raised when an operation would exceed the configured term budget."""


class DivergentLimitError(ValueError):
    """Raised when limit_at_infinity is asked for a divergent expression."""


def set_term_budget(n: int) -> None:
    """Set the global cap on the number of canonical terms per expression.

    Products of long sums can blow up combinatorially; the budget turns a
    runaway computation into a loud error instead of a hang.
    """
    if n < 1:
        raise ValueError("term budget must be positive")
    global _term_budget
    _term_budget = int(n)


def get_term_budget() -> int:
    return _term_budget


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class ExpPoly:
    """A canonical finite sum of terms c * t^k * exp(-a t).

    Terms are stored sorted by (rate, power) with like terms merged and
    zero coefficients dropped, so structural equality is mathematical
    equality.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Rational, int, Rational]] = ()):
        """Build from an iterable of (rate, power, coeff) triples.

        Rates must be >= 0 and powers >= 0; triples may repeat and appear
        in any order.
        """
        acc: dict[tuple[Fraction, int], Fraction] = {}
        for a, k, c in terms:
            a = _frac(a)
            k = int(k)
            c = _frac(c)
            if a < 0:
                raise ValueError(f"decay rate must be >= 0, got {a}")
            if k < 0:
                raise ValueError(f"power must be >= 0, got {k}")
            if c == 0:
                continue
            key = (a, k)
            tot = acc.get(key, _ZERO_FRAC) + c
            if tot == 0:
                acc.pop(key, None)
            else:
                acc[key] = tot
        if len(acc) > _term_budget:
            raise TermBudgetError(
                f"expression has {len(acc)} terms, budget is {_term_budget}"
            )
        self._terms = tuple(
            (a, k, acc[(a, k)]) for a, k in sorted(acc.keys())
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ExpPoly":
        return cls(((0, 0, 1),))

    @classmethod
    def constant(cls, c: Rational) -> "ExpPoly":
        return cls(((0, 0, c),))

    @classmethod
    def term(cls, coeff: Rational = 1, power: int = 0, rate: Rational = 0) -> "ExpPoly":
        """The single term coeff * t^power * exp(-rate t)."""
        return cls(((rate, power, coeff),))

    @classmethod
    def exp(cls, rate: Rational) -> "ExpPoly":
        """exp(-rate t)."""
        return cls(((rate, 0, 1),))

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Fraction, int, Fraction], ...]:
        """Canonical (rate, power, coeff) triples, sorted by (rate, power)."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, rate: Rational, power: int) -> Fraction:
        """Coefficient of t^power * exp(-rate t), zero if absent."""
        a = _frac(rate)
        k = int(power)
        for ta, tk, tc in self._terms:
            if ta == a and tk == k:
                return tc
        return _ZERO_FRAC

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(self._terms + other._terms)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly((a, k, -c) for a, k, c in self._terms)

    def scale(self, c: Rational) -> "ExpPoly":
        c = _frac(c)
        return ExpPoly((a, k, c * tc) for a, k, tc in self._terms)

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            if len(self._terms) * len(other._terms) > _term_budget:
                raise TermBudgetError(
                    f"product of {len(self._terms)} x {len(other._terms)} terms "
                    f"exceeds budget {_term_budget}"
                )
            prod = []
            for a1, k1, c1 in self._terms:
                for a2, k2, c2 in other._terms:
                    prod.append((a1 + a2, k1 + k2, c1 * c2))
            return ExpPoly(prod)
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, c: Rational) -> "ExpPoly":
        c = _frac(c)
        if c == 0:
            raise ZeroDivisionError("division of an ExpPoly by zero")
        return self.scale(Fraction(1) / c)

    def __pow__(self, n: int) -> "ExpPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = ExpPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "ExpPoly":
        """Exact d/dt."""
        out = []
        for a, k, c in self._terms:
            if k > 0:
                out.append((a, k - 1, c * k))
            if a != 0:
                out.append((a, k, -c * a))
        return ExpPoly(out)

    def integrate0(self) -> "ExpPoly":
        """Exact integral from 0 to t (antiderivative vanishing at 0).

        Pure-polynomial terms gain a power; exponential terms reduce by
        repeated integration by parts, which stays inside the ring.
        """
        return solve_linear_ode(self, 0, 0)

    # -- evaluation ---------------------------------------------------

    def eval(self, t: float) -> float:
        """Evaluate at a float time (t >= 0)."""
        return self.eval_grid((t,))[0]

    def eval_grid(self, times: Iterable[float]) -> list[float]:
        """Evaluate at each float time (all >= 0), converting coefficients once.

        Each value is summed term by term as c * t^k * exp(-a t) in float
        arithmetic, the same operations in the same order for every grid.
        """
        terms = [(float(c), k, -float(a)) for a, k, c in self._terms]
        out = []
        for t in times:
            if t < 0:
                raise ValueError("ExpPoly is defined for t >= 0")
            total = 0.0
            for c, k, neg_a in terms:
                total += c * (t ** k) * math.exp(neg_a * t)
            out.append(total)
        return out

    def at_zero(self) -> Fraction:
        """Exact value at t = 0."""
        return sum((c for _, k, c in self._terms if k == 0), _ZERO_FRAC)

    def limit_at_infinity(self) -> Fraction:
        """Exact limit as t -> infinity.

        Every term with positive rate decays; a term with rate 0 and power
        >= 1 diverges and raises DivergentLimitError.
        """
        limit = _ZERO_FRAC
        for a, k, c in self._terms:
            if a == 0:
                if k == 0:
                    limit += c
                else:
                    raise DivergentLimitError(
                        f"term {c}*t^{k} grows without bound"
                    )
        return limit

    # -- rendering and serialization ------------------------------------

    def render(self) -> str:
        """Human-readable exact form, e.g. '1/9 - 1/9*exp(-3t) - 1/3*t*exp(-3t)'."""
        if not self._terms:
            return "0"
        parts = []
        for i, (a, k, c) in enumerate(self._terms):
            mag = abs(c)
            factors = []
            if k == 1:
                factors.append("t")
            elif k > 1:
                factors.append(f"t^{k}")
            if a != 0:
                rate = f"{a}" if a.denominator == 1 else f"({a})"
                factors.append(f"exp(-{rate}t)")
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ExpPoly({self.render()})"

    def to_json_dict(self) -> dict:
        return {
            "terms": [[str(a), k, str(c)] for a, k, c in self._terms],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExpPoly":
        return cls((a, int(k), c) for a, k, c in data["terms"])

    @classmethod
    def from_json(cls, s: str) -> "ExpPoly":
        return cls.from_json_dict(json.loads(s))

    # -- equality -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)


_ZERO_FRAC = Fraction(0)


def solve_linear_ode(forcing: ExpPoly, lam: Rational, y0: Rational) -> ExpPoly:
    """Exact solution of y'(t) = -lam * y(t) + forcing(t), y(0) = y0.

    lam must be a rational >= 0 so the solution stays in the ring.  Each
    forcing term c * t^k * exp(-a t) contributes its resolvent in closed
    form: when a == lam the term resonates and gains a power of t,
    otherwise integration by parts against exp(-lam t) terminates after
    k + 1 steps.
    """
    lam = _frac(lam)
    y0 = _frac(y0)
    if lam < 0:
        raise ValueError(f"decay coefficient must be >= 0, got {lam}")
    out: list[tuple[Fraction, int, Fraction]] = []
    if y0 != 0:
        out.append((lam, 0, y0))
    for a, k, c in forcing.terms:
        mu = lam - a
        if mu == 0:
            out.append((a, k + 1, c / (k + 1)))
            continue
        # int_0^t s^k e^{mu s} ds * e^{-lam t}, expanded by parts:
        # b_j = (-1)^(k-j) * (k!/j!) / mu^(k-j+1)
        fact = 1
        for j in range(k, -1, -1):
            b_j = Fraction((-1) ** (k - j) * fact, 1) / mu ** (k - j + 1)
            out.append((a, j, c * b_j))
            if j == 0:
                out.append((lam, 0, -c * b_j))
            fact *= j if j > 0 else 1
    return ExpPoly(out)
