"""Degree distribution construction and exact moments."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from screendep.degree import (
    DegreeDistribution,
    make_regular,
    parse_atoms,
)

F = Fraction


def test_from_pairs_normalizes():
    dist = DegreeDistribution.from_pairs({2: 1, 3: 2})
    assert dist.atoms == ((2, F(1, 3)), (3, F(2, 3)))


def test_from_pairs_merges_duplicates():
    dist = DegreeDistribution.from_pairs([(3, "1/4"), (2, "1/2"), (3, "1/4")])
    assert dist.atoms == ((2, F(1, 2)), (3, F(1, 2)))


def test_float_weights_are_rationalized():
    dist = DegreeDistribution.from_pairs({2: 0.5, 4: 1 / 3, 5: 1 / 6})
    assert dist.weight(2) == F(1, 2)
    assert dist.weight(4) == F(1, 3)
    assert dist.weight(5) == F(1, 6)


def test_weight_type_errors():
    with pytest.raises(TypeError):
        DegreeDistribution.from_pairs({2: [1]})


@pytest.mark.parametrize(
    "pairs",
    [
        {},
        {1: 1},
        {0: 1},
        {2: 0},
    ],
)
def test_invalid_pairs_rejected(pairs):
    with pytest.raises(ValueError):
        DegreeDistribution.from_pairs(pairs)


def test_direct_constructor_validates():
    with pytest.raises(ValueError):
        DegreeDistribution(atoms=((3, F(1, 2)), (2, F(1, 2))))
    with pytest.raises(ValueError):
        DegreeDistribution(atoms=((2, F(1, 2)),))
    with pytest.raises(ValueError):
        DegreeDistribution(atoms=((2, F(1, 2)), (3, F(-1, 2)), (4, F(1))))


def test_accessors():
    dist = DegreeDistribution.from_pairs({2: "1/3", 5: "2/3"})
    assert dist.degrees == (2, 5)
    assert dist.max_degree == 5
    assert dist.weight(2) == F(1, 3)
    assert dist.weight(4) == 0
    assert not dist.is_point_mass()


def test_moments():
    dist = DegreeDistribution.from_pairs({2: "1/3", 3: "2/3"})
    assert dist.mean() == F(8, 3)
    assert dist.moment(1) == dist.mean()
    assert dist.moment(2) == F(22, 3)


def test_gen_fun():
    dist = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
    assert dist.gen_fun_exact(F(1, 2)) == F(3, 16)
    assert dist.gen_fun_exact(F(1)) == 1
    assert dist.gen_fun_exact(F(0)) == 0


def test_make_regular():
    dist = make_regular(3)
    assert dist.is_point_mass()
    assert dist.atoms == ((3, F(1)),)
    assert dist.label() == "regular(3)"


def test_label_defaults_to_atoms():
    dist = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
    assert dist.label() == "2:1/2,3:1/2"


def test_equality_ignores_name():
    assert DegreeDistribution.from_pairs({2: 1}, name="a") == make_regular(2)


def test_json_round_trip():
    dist = DegreeDistribution.from_pairs({2: "1/2", 7: "1/2"}, name="pair")
    back = DegreeDistribution.from_json_dict(dist.to_json_dict())
    assert back == dist
    assert back.name == "pair"


def test_parse_atoms():
    dist = parse_atoms("2:1/2, 3:1/2")
    assert dist.atoms == ((2, F(1, 2)), (3, F(1, 2)))
    dist = parse_atoms("4:1")
    assert dist.is_point_mass()


@pytest.mark.parametrize("text", ["", "2", "2:1/2:3", "x:1", "2:y", "2:1/0"])
def test_parse_atoms_errors(text):
    with pytest.raises(ValueError):
        parse_atoms(text)


@given(
    st.dictionaries(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=5,
    )
)
def test_normalization_invariants(raw):
    dist = DegreeDistribution.from_pairs(raw)
    assert sum(w for _, w in dist.atoms) == 1
    assert dist.mean() >= 2
    assert dist.gen_fun_exact(F(1)) == 1
