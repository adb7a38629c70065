"""Candidate streams draw carrier values only when a pool reads past the
shapes that need none, and keep only the distinct members of the variant.

sample_maps starts its stream with the empty map, the unit and doubled-unit
point maps and the all-ones map, none of which reads the seeded rng.  The
carrier values are drawn after them, so a pool filled by those shapes
makes no draw, and a pool that reads further gets the same draws as a
stream that drew first.  The member filter keeps the first n distinct
candidates that are members, in stream order, whatever order it asks
its two tests in.  A candidate whose items equal an earlier one's is not
built, and the seeded rng is made only when the first value is drawn.
"""
import dataclasses

import gsrel.weightmap

import pytest
from hypothesis import given, settings, strategies as st

from gsrel import VARIANTS, FinSet, WeightMap, WeightMapError, in_variant, load_semiring
from gsrel import word_elements
from gsrel.report import derive_rng
from gsrel.weightmap import _first_members, sample_maps
from gsrel.weightmap import _candidate_dicts, _distinct_maps, _sample_stream
from gsrel.taxonomy import _nested_dicts
from gsrel.wrel import sample_arrows

X2, Y1 = (FinSet("X", 2),), (FinSet("Y", 1),)


def counting(name):
    """The builtin semiring with a sample_pool that counts its draws."""
    sr = load_semiring(name)
    draws = []

    def pool(rng):
        draws.append(1)
        return sr.sample_pool(rng)

    return dataclasses.replace(sr, sample_pool=pool), draws


@pytest.mark.parametrize("variant", ["M", "Mr", "Mm", "Md"])
def test_a_pool_the_shapes_fill_draws_no_carrier_values(variant):
    # closure/composition draws two arrows per pool at the catalog's samples;
    # over Y1 the empty, unit and doubled-unit maps give these variants two
    # rows before any value is drawn
    sr, draws = counting("nat")
    arrows = sample_arrows(sr, X2, Y1, variant, 11, 2)
    assert draws == []
    assert arrows == sample_arrows(load_semiring("nat"), X2, Y1, variant, 11, 2)


@pytest.mark.parametrize("variant", ["Ma", "Mi"])
def test_a_pool_past_the_shapes_draws_once(variant):
    # only the unit point map of Y1 is an Ma or Mi member among the shapes
    sr, draws = counting("nat")
    arrows = sample_arrows(sr, X2, Y1, variant, 11, 2)
    assert len(draws) == 1
    assert arrows == sample_arrows(load_semiring("nat"), X2, Y1, variant, 11, 2)


def test_a_map_pool_draws_its_values_once():
    sr, draws = counting("nat")
    pool = sample_maps(sr, X2, "Ma", 11, 24)
    assert len(draws) == 1
    assert pool == sample_maps(load_semiring("nat"), X2, "Ma", 11, 24)


def reference_members(sr, candidates, variant, n):
    """The first n distinct candidates that are variant members: dedup,
    then filter."""
    return [h for h in dict.fromkeys(candidates) if in_variant(sr, h, variant)][:n]


# the values of the candidate maps: a finite carrier's elements, a few
# labels of an infinite one
VALUES = {
    "bool": None,
    "gf(3)": None,
    "nat": ("0", "1", "2", "3"),
    "nonneg-rational": ("0", "1", "2", "1/2"),
}


@st.composite
def candidate_lists(draw):
    name = draw(st.sampled_from(sorted(VALUES)))
    sr = load_semiring(name)
    values = sr.elements or [sr.parse(label) for label in VALUES[name]]
    keys = [(0,), (1,), (2,)]
    maps = st.lists(st.sampled_from(values), min_size=3, max_size=3).map(
        lambda vs: WeightMap(sr, dict(zip(keys, vs)))
    )
    # drawn from a few maps, so most lists repeat some, members or not
    few = draw(st.lists(maps, min_size=1, max_size=6))
    candidates = draw(st.lists(st.sampled_from(few), max_size=20))
    return sr, candidates, draw(st.sampled_from(VARIANTS)), draw(st.integers(0, 10))


@settings(max_examples=200, deadline=None)
@given(candidate_lists())
def test_first_members_dedups_then_filters(args):
    sr, candidates, variant, n = args
    assert _first_members(sr, iter(candidates), variant, n) == reference_members(
        sr, candidates, variant, n
    )


def test_an_unknown_variant_is_refused():
    nat = load_semiring("nat")
    with pytest.raises(WeightMapError, match="unknown variant"):
        _first_members(nat, [WeightMap(nat, {})], "Mx", 1)
    with pytest.raises(WeightMapError, match="unknown variant"):
        sample_maps(nat, X2, "Mx", 11, 24)


def test_a_candidate_equal_to_an_earlier_one_is_not_built(monkeypatch):
    # over fuzzy-max-min 1 + 1 = 1, so the doubled-unit point map repeats the
    # unit one, a draw whose total is 1 rescales to itself, and forced maps
    # of different draws coincide
    sr = load_semiring("fuzzy-max-min")
    keys = list(word_elements(X2))
    dicts = list(_candidate_dicts(sr, keys, lambda: derive_rng(11, "t"), 24))
    distinct = list(dict.fromkeys(tuple(d.items()) for d in dicts))
    consecutive = sum(a == b for a, b in zip(dicts, dicts[1:]))
    built = []
    init = WeightMap.__init__

    def counted(self, sr, items):
        built.append(1)
        init(self, sr, items)

    monkeypatch.setattr(WeightMap, "__init__", counted)
    stream = list(_sample_stream(sr, keys, lambda: derive_rng(11, "t"), 24))
    assert len(dicts) - len(distinct) > consecutive > 0
    assert len(built) == len(stream) == len(distinct)
    assert len(set(stream)) == len(stream)
    # the members are those of every candidate built
    every = [WeightMap(sr, d) for d in dicts]
    for variant in VARIANTS:
        assert _first_members(sr, iter(stream), variant, 100) == reference_members(
            sr, every, variant, 100
        )


def test_a_nested_candidate_equal_to_an_earlier_one_is_not_built():
    # the targeted pairs over fuzzy-max-min weigh by 1 and 2 = 1 alike, and
    # the seeded draws repeat supports; the members and the draws stay
    sr = load_semiring("fuzzy-max-min")
    inner = sample_maps(sr, X2, "M", 11, 6)

    def dicts():
        return _nested_dicts(sr, inner, derive_rng(11, "n"), 24, 3)

    every = [WeightMap(sr, d) for d in dicts()]
    stream = list(_distinct_maps(sr, dicts()))
    assert len(stream) < len(every)
    assert len(stream) == len({tuple(d.items()) for d in dicts()})
    for variant in VARIANTS:
        assert _first_members(sr, iter(stream), variant, 100) == reference_members(
            sr, every, variant, 100
        )


class Derived:
    """derive_rng, counting the rngs it makes."""

    def __init__(self):
        self.made = []

    def __call__(self, seed, *tags):
        self.made.append(tags)
        return derive_rng(seed, *tags)


@pytest.mark.parametrize("variant", ["M", "Mr", "Mm", "Md"])
def test_a_pool_the_shapes_fill_makes_no_rng(monkeypatch, variant):
    # the empty and unit point maps over Y1 are members of these variants
    nat = load_semiring("nat")
    arrows = sample_arrows(nat, X2, Y1, variant, 11, 2)
    derived = Derived()
    monkeypatch.setattr(gsrel.weightmap, "derive_rng", derived)
    assert sample_maps(nat, Y1, variant, 11, 2) == [WeightMap(nat, {}), WeightMap(nat, {(0,): 1})]
    assert sample_arrows(nat, X2, Y1, variant, 11, 2) == arrows
    assert derived.made == []


@pytest.mark.parametrize("variant", ["Ma", "Mi"])
def test_a_pool_past_the_shapes_makes_its_rng_once(monkeypatch, variant):
    expected = sample_maps(load_semiring("nat"), X2, variant, 11, 24)
    derived = Derived()
    monkeypatch.setattr(gsrel.weightmap, "derive_rng", derived)
    assert sample_maps(load_semiring("nat"), X2, variant, 11, 24) == expected
    assert len(derived.made) == 1 and derived.made[0][0] == "sample-maps"
