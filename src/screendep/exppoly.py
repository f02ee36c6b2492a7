"""Exact calculus over exponential polynomials sum_i c_i * t^k_i * exp(-a_i * t).

Every layer density and motive closed form used in this package lives in the
ring of finite sums c * t^k * exp(-a t) with rational coefficients c, integer
powers k >= 0 and integer decay rates a >= 0.  The rates are integers because
each one counts unit-rate arrival clocks: e^{-(d+1)t} is the chance that none
of the d + 1 clocks of a vertex and its neighbors has rung.  The ring is
closed under addition, multiplication, differentiation, integration from 0,
and resolvents of the linear ODEs y' = -lam * y + forcing that the hierarchy
of density equations produces.  Each slot has one exact form: rates and
powers are ints, coefficients are fractions.Fraction.  An exact integer of
any type is stored as an int, and nothing inexact is coerced (_count, the
package's one integer rule).  A product is computed on integer numerators
over common coefficient denominators and turned back into one Fraction per
term.  Every result passes through one canonicalizer, so derived closed
forms can be compared term by term with no floating-point tolerance.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

Rational = Union[int, Fraction]

# Cap on the canonical terms of one expression: products of long sums can
# blow up combinatorially, and the cap turns a runaway computation into a
# loud error instead of a hang.
TERM_BUDGET = 10_000


class TermBudgetError(RuntimeError):
    """Raised when an operation would exceed TERM_BUDGET terms."""


class DivergentLimitError(ValueError):
    """Raised when limit_at_infinity is asked for a divergent expression."""


def _frac(x: Rational) -> Fraction:
    """A coefficient or scalar as a Fraction: an int or a Fraction, nothing else."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


def _count(x: int, what: str, least: int = 0) -> int:
    """x as an int >= least, the one rule for every integer argument: any
    numbers.Integral but a bool (numpy's too); a float or a string never."""
    if type(x) is not int:
        if not isinstance(x, numbers.Integral) or isinstance(x, bool):
            raise TypeError(f"{what} must be an int, got {x!r}")
        x = int(x)
    if x < least:
        raise ValueError(f"{what} must be >= {least}, got {x!r}")
    return x


def _comma_list(text: str, what: str) -> tuple[str, ...]:
    """The one rule for every comma list the CLI reads: its entries, each
    stripped; () for a blank list; an empty entry is an error."""
    text = text.strip()
    entries = tuple(p.strip() for p in text.split(",")) if text else ()
    if not all(entries):
        raise ValueError(f"{what} {text!r} has an empty entry")
    return entries


def _json_text(x: str, what: str) -> str:
    """A rate or coefficient as to_json_dict writes it: a string."""
    if not isinstance(x, str):
        raise TypeError(f"{what} must be a string in JSON, got {x!r}")
    return x


def _accumulate(acc: dict, key: tuple[int, int], c: Fraction) -> None:
    old = acc.get(key)
    acc[key] = c if old is None else old + c


def _canonical_terms(
    merged: Iterable[tuple[tuple[int, int], Fraction]],
) -> tuple[tuple[int, int, Fraction], ...]:
    """The one canonical form of ((rate, power), coeff) pairs with distinct keys.

    Sorted by (rate, power), zero coefficients dropped, TERM_BUDGET checked.
    """
    terms = tuple((a, k, c) for (a, k), c in sorted(merged, key=itemgetter(0)) if c)
    if len(terms) > TERM_BUDGET:
        raise TermBudgetError(
            f"expression has {len(terms)} terms, budget is {TERM_BUDGET}"
        )
    return terms


class ExpPoly:
    """A canonical finite sum of terms c * t^k * exp(-a t).

    Terms are stored sorted by (rate, power) with like terms merged and
    zero coefficients dropped, so structural equality is mathematical
    equality.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, int, Rational]] = ()):
        """Build from an iterable of (rate, power, coeff) triples.

        Rates and powers are integers >= 0, stored as ints, and
        coefficients are ints or Fractions; any other type is a TypeError
        and a negative rate or power a ValueError.  Triples may repeat and
        appear in any order.
        """
        acc: dict[tuple[int, int], Fraction] = {}
        for a, k, c in terms:
            _accumulate(acc, (_count(a, "decay rate"), _count(k, "power")), _frac(c))
        self._terms = _canonical_terms(acc.items())

    @classmethod
    def _from_merged(
        cls, merged: Iterable[tuple[tuple[int, int], Fraction]]
    ) -> "ExpPoly":
        """Canonicalize ((rate, power), coeff) pairs with distinct keys, unvalidated."""
        poly = object.__new__(cls)
        poly._terms = _canonical_terms(merged)
        return poly

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
    def term(cls, coeff: Rational = 1, power: int = 0, rate: int = 0) -> "ExpPoly":
        """The single term coeff * t^power * exp(-rate t)."""
        return cls(((rate, power, coeff),))

    @classmethod
    def exp(cls, rate: int) -> "ExpPoly":
        """exp(-rate t)."""
        return cls(((rate, 0, 1),))

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, int, Fraction], ...]:
        """Canonical (int rate, int power, Fraction coeff) triples, sorted by (rate, power)."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, rate: int, power: int) -> Fraction:
        """Coefficient of t^power * exp(-rate t), zero if absent."""
        a = _count(rate, "decay rate")
        k = _count(power, "power")
        for ta, tk, tc in self._terms:
            if ta == a and tk == k:
                return tc
        return _ZERO_FRAC

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        acc = {(a, k): c for a, k, c in self._terms}
        for a, k, c in other._terms:
            _accumulate(acc, (a, k), c)
        return ExpPoly._from_merged(acc.items())

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._from_merged(((a, k), -c) for a, k, c in self._terms)

    def scale(self, c: Rational) -> "ExpPoly":
        c = _frac(c)
        return ExpPoly._from_merged(((a, k), c * tc) for a, k, tc in self._terms)

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            f, g = self._terms, other._terms
            if len(f) * len(g) > TERM_BUDGET:
                raise TermBudgetError(
                    f"product of {len(f)} x {len(g)} terms exceeds budget {TERM_BUDGET}"
                )
            # Multiply on integers: each operand's coefficients over their
            # own lcm denominator.  Like terms merge as integer sums, and
            # each term becomes a Fraction once, at the end.
            f_den = math.lcm(*(c.denominator for _, _, c in f))
            g_den = math.lcm(*(c.denominator for _, _, c in g))
            g_int = [(a, k, c.numerator * (g_den // c.denominator)) for a, k, c in g]
            acc: dict[tuple[int, int], int] = {}
            for a1, k1, c1 in f:
                c1 = c1.numerator * (f_den // c1.denominator)
                for a2, k2, c2 in g_int:
                    key = (a1 + a2, k1 + k2)
                    acc[key] = acc.get(key, 0) + c1 * c2
            den = f_den * g_den
            return ExpPoly._from_merged(
                (key, Fraction(num, den)) for key, num in acc.items()
            )
        return self.scale(other)

    __rmul__ = __mul__

    def __truediv__(self, c: Rational) -> "ExpPoly":
        c = _frac(c)
        if c == 0:
            raise ZeroDivisionError("division of an ExpPoly by zero")
        return self.scale(Fraction(1) / c)

    def __pow__(self, n: int) -> "ExpPoly":
        n = _count(n, "exponent")
        result = ExpPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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
        """Evaluate at a finite float time t >= 0."""
        return self.eval_grid((t,))[0]

    def eval_grid(self, times: Iterable[float]) -> list[float]:
        """Evaluate at each finite float time t >= 0, converting coefficients once.

        Each value is summed term by term as c * t^k * exp(-a t) in float
        arithmetic, the same operations in the same order for every grid.
        """
        terms = [(float(c), k, -float(a)) for a, k, c in self._terms]
        out = []
        for t in times:
            if not 0 <= t < math.inf:
                raise ValueError(f"ExpPoly needs a finite t >= 0, got {t}; see limit_at_infinity")
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
                factors.append(f"exp(-{a}t)")
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExpPoly":
        """The inverse of to_json_dict, which writes each rate and
        coefficient as a string: any other JSON value there is refused."""
        return cls(
            (int(_json_text(a, "decay rate")), k, Fraction(_json_text(c, "coefficient")))
            for a, k, c in data["terms"]
        )

    # -- equality -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)


_ZERO_FRAC = Fraction(0)


def solve_linear_ode(forcing: ExpPoly, lam: int, y0: Rational) -> ExpPoly:
    """Exact solution of y'(t) = -lam * y(t) + forcing(t), y(0) = y0.

    lam is a decay rate, an int >= 0, so the solution stays in the ring.  Each
    forcing term c * t^k * exp(-a t) contributes its resolvent in closed
    form: when a == lam the term resonates and gains a power of t,
    otherwise integration by parts against exp(-lam t) terminates after
    k + 1 steps.
    """
    lam = _count(lam, "decay coefficient")
    acc: dict[tuple[int, int], Fraction] = {(lam, 0): _frac(y0)}
    for a, k, c in forcing.terms:
        mu = lam - a
        if mu == 0:
            _accumulate(acc, (a, k + 1), c / (k + 1))
            continue
        # int_0^t s^k e^{mu s} ds * e^{-lam t}, expanded by parts:
        # b_j = (-1)^(k-j) * (k!/j!) / mu^(k-j+1)
        fact = 1
        for j in range(k, -1, -1):
            b_j = Fraction((-1) ** (k - j) * fact, mu ** (k - j + 1))
            _accumulate(acc, (a, j), c * b_j)
            if j == 0:
                _accumulate(acc, (lam, 0), -c * b_j)
            fact *= j if j > 0 else 1
    return ExpPoly._from_merged(acc.items())
