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


def test_from_pairs_does_not_normalize():
    # the law is taken as written, in the library as on the command line
    with pytest.raises(ValueError, match="sum to 3"):
        DegreeDistribution.from_pairs({2: 1, 3: 2})


def test_from_pairs_does_not_merge_or_drop():
    with pytest.raises(ValueError, match="degree 3 appears more than once"):
        DegreeDistribution.from_pairs([(3, "1/4"), (2, "1/2"), (3, "1/4")])
    with pytest.raises(ValueError, match="degree 4 has weight 0"):
        DegreeDistribution.from_pairs({2: "1/2", 3: "1/2", 4: 0})


def test_float_weights_are_rejected():
    # a float has no exact rational to stand for, so it is never rounded
    with pytest.raises(TypeError):
        DegreeDistribution.from_pairs({2: 0.5, 3: "1/2"})


def test_weight_type_errors():
    with pytest.raises(TypeError):
        DegreeDistribution.from_pairs({2: [1]})
    # True is an int to Python, but it is not the weight 1
    with pytest.raises(TypeError, match="bool"):
        DegreeDistribution.from_pairs({2: True})


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
    assert dist.atoms == ((2, F(1, 3)), (5, F(2, 3)))
    assert dist.max_degree == 5
    assert not dist.is_point_mass()


def test_moments():
    dist = DegreeDistribution.from_pairs({2: "1/3", 3: "2/3"})
    assert dist.mean() == F(8, 3)


def test_make_regular():
    dist = make_regular(3)
    assert dist.is_point_mass()
    assert dist.atoms == ((3, F(1)),)
    assert dist.label() == "3:1"


def test_label_defaults_to_atoms():
    dist = DegreeDistribution.from_pairs({2: "1/2", 3: "1/2"})
    assert dist.label() == "2:1/2,3:1/2"


def test_parse_atoms():
    dist = parse_atoms("2:1/2, 3:1/2")
    assert dist.atoms == ((2, F(1, 2)), (3, F(1, 2)))
    dist = parse_atoms("4:1")
    assert dist.is_point_mass()


@pytest.mark.parametrize(
    "text",
    [
        "", "2", "2:1/2:3", "x:1", "2:y", "2:1/0",
        # the law is taken as written: no normalization, no merging
        "2:1/3,3:1/3", "2:1,3:1", "2:1/2,2:1/2", "3:1/4,2:1/2,3:1/4", "2:0,3:1",
        "2:-1/2,3:3/2",
        # an empty entry is an error, not skipped
        "2:1/2,,3:1/2", ",2:1,", "2:1,",
    ],
)
def test_parse_atoms_errors(text):
    with pytest.raises(ValueError):
        parse_atoms(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2:1/3,3:1/3", "sum to 2/3"),
        ("3:1/4,2:1/2,3:1/4", "degree 3 appears more than once"),
        ("2:0,3:1", "degree 2 has weight 0"),
    ],
)
def test_parse_atoms_names_the_sum_or_the_degree(text, message):
    with pytest.raises(ValueError, match=message):
        parse_atoms(text)


@given(
    st.dictionaries(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=5,
    )
)
def test_only_weights_summing_to_one_are_accepted(raw):
    total = sum(raw.values())
    law = {d: F(w, total) for d, w in raw.items()}
    dist = DegreeDistribution.from_pairs(law)
    assert dist.atoms == tuple(sorted(law.items()))
    assert dist.mean() >= 2
    with pytest.raises(ValueError, match="sum to 2"):
        DegreeDistribution.from_pairs({d: 2 * w for d, w in law.items()})
