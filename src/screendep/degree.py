"""Finite-support degree distributions with exact rational weights.

A distribution assigns positive rational weights to finitely many integer
degrees >= 2.  Weights are exact end to end: a float weight is rejected,
not rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

WeightLike = Union[int, str, Fraction]


def _to_fraction(w: WeightLike) -> Fraction:
    if isinstance(w, (Fraction, int, str)):
        return Fraction(w)
    raise TypeError(f"weights must be exact (int, str or Fraction), got {type(w).__name__}")


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability distribution over vertex degrees, finite support on {2, 3, ...}.

    atoms are (degree, weight) pairs sorted by degree with weights > 0
    summing exactly to 1.  Use from_pairs to construct; raw weights are
    normalized there.
    """

    atoms: tuple[tuple[int, Fraction], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("degree distribution needs at least one atom")
        degrees = [d for d, _ in self.atoms]
        if any(not isinstance(d, int) or d < 2 for d in degrees):
            raise ValueError(f"degrees must be integers >= 2, got {degrees}")
        if sorted(set(degrees)) != degrees:
            raise ValueError(f"degrees must be strictly increasing, got {degrees}")
        if any(not isinstance(w, Fraction) or w <= 0 for _, w in self.atoms):
            raise ValueError("weights must be positive Fractions")
        total = sum(w for _, w in self.atoms)
        if total != 1:
            raise ValueError(f"weights must sum to 1 exactly, got {total}")

    @classmethod
    def from_pairs(
        cls,
        pairs: Union[Mapping[int, WeightLike], Iterable[tuple[int, WeightLike]]],
        name: str | None = None,
    ) -> "DegreeDistribution":
        """Build from (degree, weight) pairs or a mapping, normalizing weights.

        Weights may be ints, Fractions or strings like "1/2"; a float is a
        TypeError, since it has no exact rational to stand for.
        """
        if isinstance(pairs, Mapping):
            items = list(pairs.items())
        else:
            items = list(pairs)
        if not items:
            raise ValueError("degree distribution needs at least one atom")
        merged: dict[int, Fraction] = {}
        for d, w in items:
            d = int(d)
            merged[d] = merged.get(d, Fraction(0)) + _to_fraction(w)
        total = sum(merged.values())
        if total <= 0:
            raise ValueError("total weight must be positive")
        atoms = tuple(
            (d, merged[d] / total) for d in sorted(merged) if merged[d] != 0
        )
        return cls(atoms=atoms, name=name)

    @property
    def max_degree(self) -> int:
        return self.atoms[-1][0]

    def is_point_mass(self) -> bool:
        return len(self.atoms) == 1

    def mean(self) -> Fraction:
        return sum(Fraction(d) * w for d, w in self.atoms)

    def label(self) -> str:
        if self.name:
            return self.name
        return ",".join(f"{d}:{w}" for d, w in self.atoms)


def make_regular(d: int) -> DegreeDistribution:
    """Point mass at degree d (the degree law of the d-regular tree)."""
    return DegreeDistribution.from_pairs({d: 1}, name=f"regular({d})")


def parse_atoms(text: str, name: str | None = None) -> DegreeDistribution:
    """Parse 'k:weight[,k:weight...]' with exact rational weights, e.g. '2:1/2,3:1/2'."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            deg_s, weight_s = chunk.split(":")
            pairs.append((int(deg_s), Fraction(weight_s)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad atom {chunk!r}: expected 'degree:weight'") from exc
    if not pairs:
        raise ValueError(f"no atoms found in {text!r}")
    return DegreeDistribution.from_pairs(pairs, name=name)
