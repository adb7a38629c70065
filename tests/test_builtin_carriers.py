"""Every builtin carrier, pinned value by value.

For each name: zero and one, what `parse` accepts and the exact message it
refuses with, that `label` writes back what `parse` reads, and the inverse
of every element of the carrier or its seeded sample.  Values are compared
by `repr`, so an int 1 where a Fraction(1) belongs fails: nested maps sort
by the repr of their values.
"""
import itertools
from fractions import Fraction

import pytest

import gsrel.semiring
from gsrel import (
    CATALOG,
    SemiringError,
    derive_rng,
    load_semiring,
    load_table_semiring,
    mul_inverse,
)
from gsrel.cli import main

F = Fraction
UNIT = {"zero": F(0), "one": F(1), "accept": {"0": F(0), "1/2": F(1, 2), "1": F(1)}}
UNIT_REFUSED = {"3/2": "label outside [0,1]: '3/2'", "-1/3": "label outside [0,1]: '-1/3'"}


def _gf(p, refused):
    return {
        "zero": 0,
        "one": 1,
        "accept": {str(v): v for v in range(p)},
        "refuse": {s: f"gf({p}) label out of range: {s!r}" for s in refused},
        "inverse": lambda a: pow(a, p - 2, p) if a else None,
    }


BOOL = {
    "zero": 0,
    "one": 1,
    "accept": {"0": 0, "1": 1},
    "refuse": {"2": "bool label out of range: '2'", "-1": "bool label out of range: '-1'"},
    "inverse": lambda a: 1 if a == 1 else None,
}
QPLUS = {
    "zero": F(0),
    "one": F(1),
    "accept": {"0": F(0), "1/2": F(1, 2), "7/3": F(7, 3)},
    "refuse": {"-1/2": "nonneg-rational label is negative: '-1/2'"},
    "inverse": lambda a: None if a == 0 else 1 / a,
}
CARRIERS = {
    "bool": ("bool", BOOL),
    "boolean": ("bool", BOOL),
    "nat": (
        "nat",
        {
            "zero": 0,
            "one": 1,
            "accept": {"0": 0, "7": 7, "100": 100},
            "refuse": {"-1": "nat label is negative: '-1'"},
            "inverse": lambda a: 1 if a == 1 else None,
        },
    ),
    "nonneg-rational": ("nonneg-rational", QPLUS),
    "q+": ("nonneg-rational", QPLUS),
    "fuzzy-max-min": (
        "fuzzy-max-min",
        {**UNIT, "refuse": UNIT_REFUSED, "inverse": lambda a: F(1) if a == 1 else None},
    ),
    "fuzzy-max-times": (
        "fuzzy-max-times",
        {**UNIT, "refuse": UNIT_REFUSED, "inverse": lambda a: F(1) if a == 1 else None},
    ),
    "gf(2)": ("gf(2)", _gf(2, ("2", "5", "-1"))),
    "gf(3)": ("gf(3)", _gf(3, ("3", "-1"))),
    "gf(7)": ("gf(7)", _gf(7, ("7", "10"))),
}


def test_every_catalog_name_is_pinned():
    assert set(CATALOG) <= set(CARRIERS)


def _elements(sr):
    """The carrier, or its seeded sample with zero and one."""
    if sr.finite:
        return list(sr.elements)
    return [*sr.sample_elements(derive_rng(11, "carrier", sr.name)), sr.zero, sr.one]


@pytest.mark.parametrize("spec", CARRIERS)
def test_zero_and_one(spec):
    name, pin = CARRIERS[spec]
    sr = load_semiring(spec)
    assert sr.name == name
    assert (repr(sr.zero), repr(sr.one)) == (repr(pin["zero"]), repr(pin["one"]))


@pytest.mark.parametrize("spec", CARRIERS)
def test_parse_accepts_in_range_labels_and_label_writes_them_back(spec):
    _, pin = CARRIERS[spec]
    sr = load_semiring(spec)
    for text, value in pin["accept"].items():
        assert repr(sr.parse(text)) == repr(value)
        assert sr.label(sr.parse(text)) == text
    for v in _elements(sr):
        assert repr(sr.parse(sr.label(v))) == repr(v)


@pytest.mark.parametrize("spec", CARRIERS)
def test_parse_refuses_out_of_range_labels_with_the_exact_message(spec):
    _, pin = CARRIERS[spec]
    sr = load_semiring(spec)
    for text, message in pin["refuse"].items():
        with pytest.raises(SemiringError) as caught:
            sr.parse(text)
        assert str(caught.value) == message


@pytest.mark.parametrize("spec", CARRIERS)
def test_parse_leaves_conversion_errors_to_int_and_fraction(spec):
    sr = load_semiring(spec)
    with pytest.raises(ValueError) as caught:
        sr.parse("x")
    assert type(caught.value) is ValueError
    rational = isinstance(sr.one, Fraction)
    assert str(caught.value) == (
        "Invalid literal for Fraction: 'x'"
        if rational
        else "invalid literal for int() with base 10: 'x'"
    )


RATIONAL = ("nonneg-rational", "fuzzy-max-min", "fuzzy-max-times")


@pytest.mark.parametrize("spec", RATIONAL)
def test_rational_labels_refuse_a_large_exponent_before_fraction(spec, monkeypatch):
    sr = load_semiring(spec)
    for text in ("1e-5", "0.5", " 3/4 ", "1_0/3", "1e-4300", "2.5E-1_0"):
        expected = Fraction(text)
        if expected <= 1 or spec == "nonneg-rational":
            value = sr.parse(text)
            assert type(value) is Fraction and value == expected

    def no_fraction(*_):
        raise AssertionError("Fraction() was called")

    # Fraction("1e10000000") takes seconds: the refusal must come first
    monkeypatch.setattr(gsrel.semiring, "Fraction", no_fraction)
    for text in ("1e4301", "1e-4301", "1E10000000", " 2.5e+99999 ", "1e1_0000"):
        with pytest.raises(SemiringError) as caught:
            sr.parse(text)
        assert str(caught.value) == f"label exponent is beyond +-4300: {text!r}"


BOOL_TABLE = {
    "elements": ["0", "1"],
    "plus": [["0", "1"], ["1", "1"]],
    "times": [["0", "0"], ["0", "1"]],
    "zero": "0",
    "one": "1",
}


def test_only_nat_and_nonneg_rational_run_the_integer_kernels():
    builtins = gsrel.semiring._BUILTINS
    assert {name: sr.plain_type for name, sr in builtins.items() if sr.plain_type} == {
        "nat": int,
        "nonneg-rational": Fraction,
    }
    assert load_semiring("q+").plain_type is Fraction
    assert not any(load_semiring(f"gf({p})").plain_type for p in (2, 3, 7, 997))
    assert load_table_semiring(BOOL_TABLE).plain_type is None


# `positive` lets the monad operations skip the zero test, so a carrier
# that claims it must have no zero sums and no zero products of nonzero
# values; gf(p) has 1 + ... + 1 = 0, and a table is never trusted with it,
# not even one whose operations are those of bool.
POSITIVE = ("bool", "nat", "nonneg-rational", "fuzzy-max-min", "fuzzy-max-times")


def test_only_the_positive_builtins_claim_positive():
    builtins = gsrel.semiring._BUILTINS
    assert [name for name, sr in builtins.items() if sr.positive] == list(POSITIVE)
    assert not any(load_semiring(f"gf({p})").positive for p in (2, 3, 7, 997))
    assert not load_table_semiring(BOOL_TABLE).positive


@pytest.mark.parametrize("name", POSITIVE)
def test_positive_carriers_are_zero_sum_free_and_entire(name):
    sr = load_semiring(name)
    if sr.finite:
        samples = [sr.elements]
    else:
        # the samples the law suites draw at these seeds
        samples = [sr.sample_elements(derive_rng(seed, "carrier", name)) for seed in range(12)]
    for xs in samples:
        nonzero = [v for v in xs if v != sr.zero] + [sr.one]
        for a, b in itertools.product(nonzero, repeat=2):
            assert sr.add(a, b) != sr.zero, (a, b)
            assert sr.mul(a, b) != sr.zero, (a, b)


@pytest.mark.parametrize("spec", CARRIERS)
def test_inverse_over_the_carrier_or_its_sample(spec):
    _, pin = CARRIERS[spec]
    sr = load_semiring(spec)
    xs = _elements(sr)
    assert sr.one in xs and sr.zero in xs
    for a in xs:
        assert repr(sr.inverse(a)) == repr(pin["inverse"](a)), a
        assert repr(mul_inverse(sr, a)) == repr(pin["inverse"](a)), a


@pytest.mark.parametrize("modulus", [0, 1, 4])
def test_gf_of_a_non_prime_exits_2(modulus, capsys):
    assert main(["check-semiring", f"gf({modulus})"]) == 2
    assert f"gf({modulus}): modulus must be prime" in capsys.readouterr().err


def test_table_refuses_an_unknown_label():
    sr = load_semiring(BOOL_TABLE)
    assert sr.parse("1") == 1
    with pytest.raises(SemiringError) as caught:
        sr.parse("2")
    assert str(caught.value) == "unknown table element label '2'"
