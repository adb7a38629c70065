"""Semiring axioms, classification flags, and table loading."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsrel import (
    CATALOG,
    Semiring,
    SemiringError,
    TableFormatError,
    UnknownSemiringError,
    check_semiring_laws,
    classify_semiring,
    load_semiring,
    mul_inverse,
)

BOOL = load_semiring("bool")
NAT = load_semiring("nat")
QPLUS = load_semiring("nonneg-rational")
FMM = load_semiring("fuzzy-max-min")
FMT = load_semiring("fuzzy-max-times")
GF2 = load_semiring("gf(2)")


def test_catalog_loads_and_names_are_stable():
    for name in CATALOG:
        sr = load_semiring(name)
        assert sr.name == name


def test_aliases():
    assert load_semiring("q+").name == "nonneg-rational"
    assert load_semiring("boolean").name == "bool"
    assert load_semiring("nonneg_rational").name == "nonneg-rational"


def test_unknown_name():
    with pytest.raises(UnknownSemiringError):
        load_semiring("tropical-ish")


def test_bool_laws_exhaustive():
    reports = check_semiring_laws(BOOL)
    assert len(reports) == 8
    for r in reports:
        assert r.status == "exhaustive_pass", r.law


def test_gf2_laws_exhaustive():
    for r in check_semiring_laws(GF2):
        assert r.status == "exhaustive_pass", r.law


def test_infinite_carriers_are_sampled_not_proved():
    for r in check_semiring_laws(NAT):
        assert r.status == "sampled_pass", r.law
    for r in check_semiring_laws(QPLUS):
        assert r.status == "sampled_pass", r.law


def test_bool_profile_all_flags():
    p = classify_semiring(BOOL)
    assert p.mult_idempotent and p.absorptive and p.distributive_lattice and p.semifield
    for r in p.reports.values():
        assert r.exhaustive


def test_nat_profile_all_false_with_idempotency_witness():
    p = classify_semiring(NAT)
    assert not p.mult_idempotent
    assert not p.absorptive
    assert not p.distributive_lattice
    assert not p.semifield
    # the witness re-evaluates: some a with a*a != a
    (label,) = p.reports["mult_idempotent"].witness
    a = NAT.parse(label)
    assert NAT.mul(a, a) != a
    assert a == 2  # smallest counterexample comes first in the pool


def test_fuzzy_profiles():
    pm = classify_semiring(FMM)
    assert pm.mult_idempotent and pm.absorptive and pm.distributive_lattice
    assert not pm.semifield
    pt = classify_semiring(FMT)
    assert not pt.mult_idempotent
    assert not pt.absorptive
    assert not pt.distributive_lattice
    assert not pt.semifield


def test_gf2_profile():
    # both elements square to themselves, but 1 + 1*1 = 0 breaks absorption
    p = classify_semiring(GF2)
    assert p.mult_idempotent
    assert not p.absorptive
    assert not p.distributive_lattice
    assert p.semifield
    a, b = (GF2.parse(x) for x in p.reports["absorptive"].witness)
    assert GF2.add(a, GF2.mul(a, b)) != a


def test_mul_inverse_closed_forms():
    assert mul_inverse(NAT, 1) == 1
    assert mul_inverse(NAT, 2) is None
    assert mul_inverse(NAT, 0) is None
    inv = mul_inverse(QPLUS, Fraction(2, 3))
    assert inv == Fraction(3, 2)
    assert QPLUS.mul(Fraction(2, 3), inv) == QPLUS.one
    assert mul_inverse(QPLUS, Fraction(0)) is None
    assert mul_inverse(FMM, Fraction(1)) == Fraction(1)
    assert mul_inverse(FMM, Fraction(1, 2)) is None
    assert mul_inverse(FMT, Fraction(1, 2)) is None
    assert mul_inverse(BOOL, BOOL.one) == BOOL.one
    assert mul_inverse(BOOL, BOOL.zero) is None


def test_mul_inverse_gf5():
    gf5 = load_semiring("gf(5)")
    for a in range(1, 5):
        inv = mul_inverse(gf5, a)
        assert gf5.mul(a, inv) == 1
    assert mul_inverse(gf5, 0) is None


def _zmod_table(p):
    labels = [str(i) for i in range(p)]
    return {
        "name": f"z{p}",
        "elements": labels,
        "plus": [[labels[(a + b) % p] for b in range(p)] for a in range(p)],
        "times": [[labels[a * b % p] for b in range(p)] for a in range(p)],
        "zero": "0",
        "one": "1",
    }


def test_table_inverses_agree_with_gf5():
    table, gf5 = load_semiring(_zmod_table(5)), load_semiring("gf(5)")
    for a in range(5):
        assert mul_inverse(table, a) == mul_inverse(gf5, a), a


def test_semiring_must_state_its_inverses():
    with pytest.raises(TypeError):
        Semiring(name="bare", zero=0, one=1, add=max, mul=min)
    never = Semiring(name="bare", zero=0, one=1, add=max, mul=min, inverse=lambda a: None)
    assert mul_inverse(never, 1) is None


def test_wrong_inverse_fails_verification():
    liar = Semiring(name="liar", zero=0, one=1, add=max, mul=min, inverse=lambda a: 0)
    with pytest.raises(SemiringError):
        mul_inverse(liar, 1)


@given(st.fractions(min_value=0, max_value=100))
def test_qplus_parse_label_round_trip(q):
    assert QPLUS.parse(QPLUS.label(q)) == q


@given(st.integers(min_value=0, max_value=10**6))
def test_nat_parse_label_round_trip(n):
    assert NAT.parse(NAT.label(n)) == n


# table semirings


BOOL_TABLE = {
    "name": "bool-table",
    "elements": ["0", "1"],
    "zero": "0",
    "one": "1",
    "plus": [["0", "1"], ["1", "1"]],
    "times": [["0", "0"], ["0", "1"]],
}


def test_table_round_trip_matches_builtin_bool():
    sr = load_semiring(BOOL_TABLE)
    assert sr.name == "bool-table"
    for r in check_semiring_laws(sr):
        assert r.status == "exhaustive_pass", r.law
    p = classify_semiring(sr)
    assert p.mult_idempotent and p.absorptive and p.distributive_lattice and p.semifield
    # same truth tables as the builtin under the label bijection
    for a in BOOL.elements:
        for b in BOOL.elements:
            ta, tb = sr.parse(BOOL.label(a)), sr.parse(BOOL.label(b))
            assert sr.label(sr.add(ta, tb)) == BOOL.label(BOOL.add(a, b))
            assert sr.label(sr.mul(ta, tb)) == BOOL.label(BOOL.mul(a, b))


def test_table_missing_field():
    bad = dict(BOOL_TABLE)
    del bad["times"]
    with pytest.raises(TableFormatError):
        load_semiring(bad)


def test_table_not_closed():
    bad = dict(BOOL_TABLE)
    bad["plus"] = [["0", "1"], ["1", "2"]]
    with pytest.raises(TableFormatError, match="not closed|not an element"):
        load_semiring(bad)


def test_table_not_square():
    bad = dict(BOOL_TABLE)
    bad["times"] = [["0", "0"]]
    with pytest.raises(TableFormatError):
        load_semiring(bad)


def test_table_duplicate_labels():
    bad = dict(BOOL_TABLE)
    bad["elements"] = ["0", "0"]
    with pytest.raises(TableFormatError):
        load_semiring(bad)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("elements", 5, "'elements' must be a list of labels"),
        ("plus", [5, ["0", "1"]], "'plus' table is not 2x2"),
        ("zero", ["a"], "'zero' entry ['a'] is not an element"),
        ("elements", [], "table document has no elements"),
    ],
    ids=["elements-not-a-list", "plus-row-not-a-list", "zero-not-a-label", "elements-empty"],
)
def test_table_wrong_types_raise_table_format_error(field, value, message):
    bad = dict(BOOL_TABLE)
    bad[field] = value
    with pytest.raises(TableFormatError) as caught:
        load_semiring(bad)
    assert str(caught.value) == message


def test_broken_table_caught_by_law_check():
    # plus is not associative: (1+1)+1 = 0 but 1+(1+1) = 1
    bad = {
        "name": "broken",
        "elements": ["0", "1", "2"],
        "zero": "0",
        "one": "1",
        "plus": [
            ["0", "1", "2"],
            ["1", "2", "0"],
            ["2", "1", "0"],
        ],
        "times": [
            ["0", "0", "0"],
            ["0", "1", "2"],
            ["0", "2", "1"],
        ],
    }
    sr = load_semiring(bad)
    reports = {r.law: r for r in check_semiring_laws(sr)}
    failing = [law for law, r in reports.items() if not r.passed]
    assert failing, "a non-associative table must fail some axiom"
    for law in failing:
        assert reports[law].witness is not None
