"""Finite-support degree distributions with exact rational weights.

A distribution assigns positive rational weights to finitely many integer
degrees >= 2, each checked by exppoly._count and stored as an int.
Weights are exact end to end: a float weight is rejected, not rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .exppoly import _comma_list, _count

WeightLike = Union[int, str, Fraction]


def _to_fraction(w: WeightLike) -> Fraction:
    if isinstance(w, (Fraction, int, str)) and not isinstance(w, bool):
        return Fraction(w)
    raise TypeError(f"weights must be exact (int, str or Fraction), got {type(w).__name__}")


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability distribution over vertex degrees, finite support on {2, 3, ...}.

    atoms are (degree, weight) pairs sorted by degree with weights > 0
    summing exactly to 1.  Use from_pairs to construct from raw pairs; it
    checks the law as written and normalizes nothing.
    """

    atoms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("degree distribution needs at least one atom")
        object.__setattr__(self, "atoms", tuple((_count(d, "degree", 2), w) for d, w in self.atoms))
        degrees = [d for d, _ in self.atoms]
        if sorted(set(degrees)) != degrees:
            raise ValueError(f"degrees must be strictly increasing, got {degrees}")
        for d, w in self.atoms:
            if not isinstance(w, Fraction) or w <= 0:
                raise ValueError(f"degree {d} has weight {w}, weights must be positive Fractions")
        total = sum(w for _, w in self.atoms)
        if total != 1:
            raise ValueError(f"weights sum to {total}, not to 1")

    @classmethod
    def from_pairs(
        cls,
        pairs: Union[Mapping[int, WeightLike], Iterable[tuple[int, WeightLike]]],
    ) -> "DegreeDistribution":
        """Build from (degree, weight) pairs or a mapping, taken as written.

        Nothing is normalized or merged: each degree appears once, each
        weight is positive, and the weights sum to exactly 1.  Weights may
        be ints, Fractions or strings like "1/2"; a float is a TypeError,
        since it has no exact rational to stand for.
        """
        weights: dict[int, Fraction] = {}
        for d, w in pairs.items() if isinstance(pairs, Mapping) else pairs:
            if d in weights:
                raise ValueError(f"degree {d} appears more than once")
            weights[d] = _to_fraction(w)
        return cls(atoms=tuple(sorted(weights.items())))

    @property
    def max_degree(self) -> int:
        return self.atoms[-1][0]

    def is_point_mass(self) -> bool:
        return len(self.atoms) == 1

    def mean(self) -> Fraction:
        return sum(Fraction(d) * w for d, w in self.atoms)

    def label(self) -> str:
        return ",".join(f"{d}:{w}" for d, w in self.atoms)


def make_regular(d: int) -> DegreeDistribution:
    """Point mass at degree d (the degree law of the d-regular tree)."""
    return DegreeDistribution.from_pairs({d: 1})


def parse_atoms(text: str) -> DegreeDistribution:
    """Parse 'k:weight[,k:weight...]' with exact rational weights, e.g. '2:1/2,3:1/2'.

    The law is taken as written, as from_pairs takes it: each degree
    appears once, each weight is positive, and the weights sum to exactly 1.
    An empty entry between commas is an error, not skipped.
    """
    chunks = _comma_list(text, "atoms")
    if not chunks:
        raise ValueError(f"no atoms found in {text!r}")
    pairs = []
    for chunk in chunks:
        try:
            deg_s, weight_s = chunk.split(":")
            pairs.append((int(deg_s), Fraction(weight_s)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad atom {chunk!r}: expected 'degree:weight'") from exc
    return DegreeDistribution.from_pairs(pairs)
