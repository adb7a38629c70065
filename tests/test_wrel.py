"""Weighted relations: category laws, structural arrows, dom/mass, serialization."""
import dataclasses
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import gsrel.weightmap
import gsrel.wrel
from gsrel import (
    ArrowFlags,
    BoundaryError,
    FinSet,
    Structure,
    WRel,
    WRelFormatError,
    arrow_in_variant,
    canonical_semigroup_mul,
    derive_rng,
    enumerate_arrows,
    evaluate_term,
    in_variant,
    hom_scalar_mul,
    check_term_equality,
    load_interpretation,
    load_semiring,
    load_table_semiring,
    parse_term,
    sample_arrows,
    sample_maps,
    wm_eta,
    wm_make,
    wm_psi,
    wrel_classify,
    wrel_compose,
    wrel_copy,
    wrel_del,
    wrel_dom,
    wrel_dom_closed,
    wrel_dom_via_kleisli_path,
    wrel_eq,
    wrel_from_doc,
    wrel_id,
    wrel_make,
    wrel_mass,
    wrel_swap,
    wrel_tensor,
    wrel_to_doc,
    word_elements,
    word_size,
)
from gsrel.diagram import gsm_axiom_pairs
from gsrel.semiring import CATALOG
from gsrel.weightmap import VARIANTS, _enumerable

BOOL = load_semiring("bool")
NAT = load_semiring("nat")
QPLUS = load_semiring("q+")

X = (FinSet("X", 2, ("x0", "x1")),)
Y = (FinSet("Y", 2, ("y0", "y1")),)
Z = (FinSet("Z", 2),)
E = (FinSet("E", 0),)
I = ()

ALL_BOOL_XX = enumerate_arrows(BOOL, X, X)


def rand_arrow(sr, dom, cod, seed, tag="t"):
    (a,) = sample_arrows(sr, dom, cod, "M", seed=seed, n=1, tag=tag)
    return a


def test_identity_laws_exhaustive_bool():
    idx = wrel_id(BOOL, X)
    for f in ALL_BOOL_XX:
        assert wrel_compose(BOOL, idx, f) == f
        assert wrel_compose(BOOL, f, idx) == f


def test_associativity_exhaustive_bool():
    for f, g, h in itertools.product(ALL_BOOL_XX, repeat=3):
        left = wrel_compose(BOOL, wrel_compose(BOOL, f, g), h)
        right = wrel_compose(BOOL, f, wrel_compose(BOOL, g, h))
        assert left == right


def test_associativity_sampled_nat():
    for i in range(40):
        f = rand_arrow(NAT, X, Y, i, "f")
        g = rand_arrow(NAT, Y, Z, i, "g")
        h = rand_arrow(NAT, Z, X, i, "h")
        assert wrel_compose(NAT, wrel_compose(NAT, f, g), h) == wrel_compose(
            NAT, f, wrel_compose(NAT, g, h)
        )


def test_tensor_is_functorial():
    for i in range(25):
        f = rand_arrow(NAT, X, Y, i, "f")
        g = rand_arrow(NAT, Y, Z, i, "g")
        p = rand_arrow(NAT, Z, X, i, "p")
        q = rand_arrow(NAT, X, Y, i, "q")
        lhs = wrel_tensor(NAT, wrel_compose(NAT, f, g), wrel_compose(NAT, p, q))
        rhs = wrel_compose(NAT, wrel_tensor(NAT, f, p), wrel_tensor(NAT, g, q))
        assert lhs == rhs
    assert wrel_tensor(NAT, wrel_id(NAT, X), wrel_id(NAT, Y)) == wrel_id(NAT, X + Y)


def test_tensor_unit_is_empty_word():
    f = rand_arrow(NAT, X, Y, 0)
    assert wrel_tensor(NAT, f, wrel_id(NAT, I)) == f
    assert wrel_tensor(NAT, wrel_id(NAT, I), f) == f


def test_swap_is_self_inverse_and_natural():
    s = wrel_swap(NAT, X, Y)
    back = wrel_swap(NAT, Y, X)
    assert wrel_compose(NAT, s, back) == wrel_id(NAT, X + Y)
    for i in range(10):
        f = rand_arrow(NAT, X, Z, i, "f")
        g = rand_arrow(NAT, Y, X, i, "g")
        lhs = wrel_compose(NAT, wrel_tensor(NAT, f, g), wrel_swap(NAT, Z, X))
        rhs = wrel_compose(NAT, wrel_swap(NAT, X, Y), wrel_tensor(NAT, g, f))
        assert lhs == rhs


def test_copy_del_axioms_exhaustive_words():
    for word in (I, X, X + Y):
        cp = wrel_copy(NAT, word)
        dl = wrel_del(NAT, word)
        idw = wrel_id(NAT, word)
        # coassociativity
        lhs = wrel_compose(NAT, cp, wrel_tensor(NAT, cp, idw))
        rhs = wrel_compose(NAT, cp, wrel_tensor(NAT, idw, cp))
        assert lhs == rhs
        # cocommutativity
        assert wrel_compose(NAT, cp, wrel_swap(NAT, word, word)) == cp
        # counit both sides
        assert wrel_compose(NAT, cp, wrel_tensor(NAT, idw, dl)) == idw
        assert wrel_compose(NAT, cp, wrel_tensor(NAT, dl, idw)) == idw


def test_copy_del_respect_tensor():
    cxy = wrel_copy(NAT, X + Y)
    cx, cy = wrel_copy(NAT, X), wrel_copy(NAT, Y)
    mid = wrel_compose(
        NAT,
        wrel_tensor(NAT, cx, cy),
        wrel_tensor(NAT, wrel_tensor(NAT, wrel_id(NAT, X), wrel_swap(NAT, X, Y)), wrel_id(NAT, Y)),
    )
    assert cxy == mid
    assert wrel_del(NAT, X + Y) == wrel_tensor(NAT, wrel_del(NAT, X), wrel_del(NAT, Y))


def test_special_semigroup_law():
    # copy ; (id x del) is the identity, exhaustively checkable per word
    for word in (I, X, X + Y):
        mul = canonical_semigroup_mul(NAT, word)
        assert wrel_compose(NAT, wrel_copy(NAT, word), mul) == wrel_id(NAT, word)


# dom and mass


def test_dom_closed_form_agrees_with_composite():
    for name in ("bool", "nat", "q+", "fuzzy-max-min", "fuzzy-max-times", "gf(2)"):
        sr = load_semiring(name)
        for i in range(20):
            f = rand_arrow(sr, X, Y, i, name)
            assert wrel_dom(sr, f) == wrel_dom_closed(sr, f)


def test_dom_via_kleisli_path_is_dom_then_f():
    for f in ALL_BOOL_XX:
        expected = wrel_compose(BOOL, wrel_dom(BOOL, f), f)
        assert wrel_dom_via_kleisli_path(BOOL, f) == expected
    for i in range(30):
        f = rand_arrow(NAT, X, Y, i, "k")
        expected = wrel_compose(NAT, wrel_dom(NAT, f), f)
        assert wrel_dom_via_kleisli_path(NAT, f) == expected


def test_dom_is_idempotent_and_mass_shaped():
    for i in range(20):
        f = rand_arrow(NAT, X, Y, i, "d")
        d = wrel_dom(NAT, f)
        assert wrel_dom(NAT, d) == d
        assert d.dom == d.cod == X
        # diagonal support only
        for x, h in d.rows:
            assert h.support == (x,)


def test_mass_is_row_totals():
    f = wrel_make(NAT, X, Y, {(0,): {(0,): 2, (1,): 3}, (1,): {(0,): 1}})
    m = wrel_mass(NAT, f)
    assert m.cod == I
    assert m.value(NAT, (0,), ()) == 5
    assert m.value(NAT, (1,), ()) == 1


def test_domain_eq_fails_for_weighted_row():
    f = wrel_make(NAT, X, X, {(0,): {(0,): 2}})
    flags = wrel_classify(NAT, f)
    assert not flags.domain_eq
    # dom(f) ; f scales the row by its total: 2*2 = 4
    assert wrel_compose(NAT, wrel_dom(NAT, f), f).value(NAT, (0,), (0,)) == 4


def test_classify_identity_and_bool_relations():
    flags = wrel_classify(BOOL, wrel_id(BOOL, X))
    assert (flags.total, flags.copyable, flags.domain_eq, flags.mass_eq) == (
        True, True, True, True,
    )
    # total one-to-many relation: total and domain_eq hold over bool,
    # copyable fails since the two branches decorrelate under copying
    fan = wrel_make(BOOL, X, X, {(0,): {(0,): 1, (1,): 1}, (1,): {(1,): 1}})
    flags = wrel_classify(BOOL, fan)
    assert flags.total and flags.domain_eq and flags.mass_eq
    assert not flags.copyable
    # partial identity: not total, still domain_eq
    part = wrel_make(BOOL, X, X, {(0,): {(0,): 1}})
    flags = wrel_classify(BOOL, part)
    assert not flags.total
    assert flags.copyable and flags.domain_eq and flags.mass_eq


def test_arrow_in_variant_matches_flags():
    for sr in (BOOL, NAT):
        for i in range(15):
            f = rand_arrow(sr, X, Y, i, "v")
            flg = wrel_classify(sr, f)
            assert arrow_in_variant(sr, f, "M")
            assert arrow_in_variant(sr, f, "Ma") == flg.total
            assert arrow_in_variant(sr, f, "Md") == flg.domain_eq


def test_hom_scalar_monoid():
    unit = wrel_del(NAT, X)
    scalars = [rand_arrow(NAT, X, I, i, "s") for i in range(12)]
    for f in scalars:
        assert hom_scalar_mul(NAT, f, unit) == f
        assert hom_scalar_mul(NAT, unit, f) == f
    for f, g in itertools.combinations(scalars, 2):
        assert hom_scalar_mul(NAT, f, g) == hom_scalar_mul(NAT, g, f)
    f, g, h = scalars[:3]
    assert hom_scalar_mul(NAT, hom_scalar_mul(NAT, f, g), h) == hom_scalar_mul(
        NAT, f, hom_scalar_mul(NAT, g, h)
    )


def test_hom_scalar_mul_rejects_bad_boundaries():
    f = rand_arrow(NAT, X, Y, 0)
    s = rand_arrow(NAT, X, I, 0, "s")
    t = rand_arrow(NAT, Y, I, 0, "t")
    with pytest.raises(BoundaryError):
        hom_scalar_mul(NAT, f, s)
    with pytest.raises(BoundaryError):
        hom_scalar_mul(NAT, s, t)


def test_structure_builds_each_word_once_and_composites_match():
    st = Structure(NAT)
    for build, arrow in ((wrel_copy, st.copy), (wrel_id, st.id), (wrel_del, st.discard)):
        first = arrow(X + Y)
        assert first == build(NAT, X + Y)
        assert arrow(X + Y) is first
        assert arrow(X) is not first
    assert st.swap(X, Y) is st.swap(X, Y)
    assert st.swap(X, Y) == wrel_swap(NAT, X, Y)
    # one holder serves many arrows; each composite is its defining one, and
    # the readers of the law table give the composites written out by hand
    for i in range(10):
        f = rand_arrow(NAT, X, Y, i, "st")
        s = rand_arrow(NAT, X, I, i, "sc")
        assert st.mass(f) == wrel_compose(NAT, f, wrel_del(NAT, Y))
        assert st.dom(f) == wrel_dom_closed(NAT, f)
        dom_f = wrel_compose(NAT, wrel_copy(NAT, X), wrel_tensor(NAT, wrel_id(NAT, X), st.mass(f)))
        assert wrel_classify(NAT, f) == ArrowFlags(
            total=st.mass(f) == wrel_del(NAT, X),
            copyable=wrel_compose(NAT, f, wrel_copy(NAT, Y))
            == wrel_compose(NAT, wrel_copy(NAT, X), wrel_tensor(NAT, f, f)),
            domain_eq=wrel_compose(NAT, dom_f, f) == f,
            mass_eq=wrel_compose(NAT, dom_f, st.mass(f)) == st.mass(f),
        )
        assert hom_scalar_mul(NAT, s, s) == wrel_compose(
            NAT, wrel_copy(NAT, X), wrel_tensor(NAT, s, s)
        )
    assert canonical_semigroup_mul(NAT, X) == wrel_tensor(NAT, wrel_id(NAT, X), wrel_del(NAT, X))


# boundaries, zero-size sets, serialization


def test_compose_boundary_mismatch():
    f = rand_arrow(NAT, X, Y, 0)
    g = rand_arrow(NAT, X, Y, 1)
    with pytest.raises(BoundaryError):
        wrel_compose(NAT, f, g)


def test_wrel_eq_requires_matching_boundary():
    f = rand_arrow(NAT, X, Y, 0)
    g = rand_arrow(NAT, X, Z, 0)
    with pytest.raises(BoundaryError) as exc:
        wrel_eq(f, g)
    assert "Y" in str(exc.value) and "Z" in str(exc.value)


def test_row_keys_validated():
    with pytest.raises(BoundaryError):
        WRel(X, Y, {(5,): wm_eta(NAT, (0,))})
    with pytest.raises(BoundaryError):
        WRel(X, Y, {(0,): wm_eta(NAT, (7,))})
    with pytest.raises(BoundaryError):
        WRel(X, Y, {(0,): "not a map"})


# (key, where it goes, accepted): (1.0,) equals (1,) and (True,) equals (1,),
# yet only the bool item is an int
KEY_CASES = [(key, "row", False) for key in [(1.0,), (7,), (0, 0), ("0",), [0]]] + [
    (key, "entry", False) for key in [(1.0,), (7,), (0, 0), ("0",)]
] + [((True,), "row", True), ((True,), "entry", True)]


@pytest.mark.parametrize("key, place, accepted", KEY_CASES)
def test_keys_are_word_elements_exactly(key, place, accepted):
    """A row or entry key passes exactly when it is a tuple of in-range int items."""

    def build(key):
        if place == "row":
            return WRel(X, Y, [(key, wm_eta(NAT, (0,)))])
        return WRel(X, Y, {(0,): wm_make(NAT, {key: 1})})

    if accepted:
        assert build(key) == build((1,))
    else:
        with pytest.raises(BoundaryError):
            build(key)


def test_empty_rows_are_dropped():
    f = WRel(X, Y, {(0,): wm_make(NAT, {})})
    assert f.rows == ()
    assert f == wrel_make(NAT, X, Y, {})


@pytest.mark.parametrize("repeat", ["nonempty", "empty"])
def test_repeated_row_keys_are_refused(repeat):
    """A pair list that names a row twice is refused, in either order and
    whether or not the repeated row is empty, as WeightMap refuses a key."""
    first = wm_eta(NAT, (0,))
    again = wm_eta(NAT, (1,)) if repeat == "nonempty" else wm_make(NAT, {})
    for rows in ([((0,), first), ((0,), again)], [((0,), again), ((0,), first)]):
        with pytest.raises(BoundaryError, match="duplicate row key"):
            WRel(X, Y, rows)
    cols = {(1,): 2} if repeat == "nonempty" else {}
    with pytest.raises(BoundaryError, match="duplicate row key"):
        wrel_make(NAT, X, Y, [((0,), {(0,): 1}), ((0,), cols)])


def test_zero_size_sets():
    assert wrel_id(NAT, E).rows == ()
    assert enumerate_arrows(BOOL, E, X) == [WRel(E, X, {})]
    f = WRel(E, X, {})
    g = rand_arrow(NAT, X, Y, 0)
    assert wrel_compose(NAT, f, wrel_compose(NAT, wrel_id(NAT, X), g)).rows == ()
    # arrows into an empty carrier exist only with empty rows
    assert enumerate_arrows(BOOL, X, E) == [WRel(X, E, {})]


def test_enumerate_arrow_counts():
    assert len(ALL_BOOL_XX) == 16
    assert len(enumerate_arrows(BOOL, X, I)) == 4
    assert len(enumerate_arrows(BOOL, I, X)) == 4
    assert len(enumerate_arrows(BOOL, X, X, "Ma")) == 9


def test_doc_round_trip():
    for sr, seeds in ((BOOL, range(5)), (NAT, range(5)), (QPLUS, range(5))):
        for i in seeds:
            for dom, cod in ((X, Y), (I, X), (X, I), (X + Y, Z)):
                f = rand_arrow(sr, dom, cod, i, "rt")
                doc = wrel_to_doc(sr, f)
                assert wrel_from_doc(sr, doc) == f


def test_doc_round_trip_preserves_labels_and_fractions():
    f = wrel_make(QPLUS, X, Y, {(0,): {(1,): Fraction(2, 3)}})
    doc = wrel_to_doc(QPLUS, f)
    assert doc["dom"][0]["labels"] == ["x0", "x1"]
    back = wrel_from_doc(QPLUS, doc)
    assert back.value(QPLUS, (0,), (1,)) == Fraction(2, 3)


def test_from_doc_rejects_malformed_input():
    f = rand_arrow(NAT, X, Y, 0)
    doc = wrel_to_doc(NAT, f)
    bad = dict(doc)
    del bad["entries"]
    with pytest.raises(WRelFormatError):
        wrel_from_doc(NAT, bad)
    bad = dict(doc)
    bad["entries"] = [[["nope"], ["y0"], "1"]]
    with pytest.raises(WRelFormatError, match="unknown label"):
        wrel_from_doc(NAT, bad)
    bad = dict(doc)
    bad["entries"] = [[["x0"], ["y0"]]]
    with pytest.raises(WRelFormatError, match="bad entry"):
        wrel_from_doc(NAT, bad)
    bad = dict(doc)
    bad["dom"] = "X"
    with pytest.raises(WRelFormatError):
        wrel_from_doc(NAT, bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dom", [{"name": "X", "size": "x"}]),
        ("dom", 5),
        ("cod", [{"name": "Y", "size": 2, "labels": 5}]),
    ],
    ids=["size-not-an-int", "dom-not-a-list", "labels-not-a-list"],
)
def test_from_doc_wrong_types_raise_wrel_format_error(field, value):
    doc = {"dom": [], "cod": [], "entries": []}
    doc[field] = value
    with pytest.raises(WRelFormatError):
        wrel_from_doc(NAT, doc)


def _arrow_doc(entries):
    """An arrow document over two unlabelled two-element sets."""
    return {
        "dom": [{"name": "X", "size": 2}],
        "cod": [{"name": "Y", "size": 2}],
        "entries": entries,
    }


def test_from_doc_parses_each_value_label_once():
    parsed = []

    def parse(label, _parse=QPLUS.parse):
        parsed.append(label)
        return _parse(label)

    sr = dataclasses.replace(QPLUS, parse=parse)
    entries = [[[x], [y], "3/2"] for x in "01" for y in "01"]
    f = wrel_from_doc(sr, _arrow_doc(entries))
    assert parsed == ["3/2"]
    assert {v for _, h in f.rows for _, v in h.entries} == {Fraction(3, 2)}
    parsed.clear()
    entries[3][2] = "1/3"
    f = wrel_from_doc(sr, _arrow_doc(entries))
    assert parsed == ["3/2", "1/3"]
    assert f.value(sr, (1,), (1,)) == Fraction(1, 3) and f.value(sr, (0,), (1,)) == Fraction(3, 2)


@pytest.mark.parametrize(
    "label, message",
    [("x", "invalid literal for int() with base 10: 'x'"), ("-1", "nat label is negative: '-1'")],
    ids=["not-a-number", "negative"],
)
def test_from_doc_bad_value_label_keeps_its_message(label, message):
    # the bad label follows a repeated good one, and raises where it first occurs
    entries = [[["0"], [y], "2"] for y in "01"] + [[["1"], [y], label] for y in "01"]
    with pytest.raises(WRelFormatError, match=f"^{re.escape(message)}$"):
        wrel_from_doc(NAT, _arrow_doc(entries))


@pytest.mark.parametrize(
    "entry",
    [
        [["0"], ["0"], 2],
        [["0"], ["0"], 2.5],
        [[0], ["0"], "1"],
        [["0"], [False], "1"],
        [["0"], [None], "1"],
        [["0"], [["0"]], "1"],
    ],
    ids=["int-value", "float-value", "int-row", "bool-col", "null-col", "list-col"],
)
def test_from_doc_labels_must_be_strings(entry):
    with pytest.raises(WRelFormatError, match="is not a string"):
        wrel_from_doc(QPLUS, _arrow_doc([entry]))


def test_from_doc_label_memo_keeps_index_of_results():
    """Each label means what index_of says, however often it repeats."""
    seen = [[["0"], ["0"], "1"], [["1"], ["1"], "1"]]
    for bad in ([0], ["0"]), (["0"], [["0"]]), (["1"], [True]):
        with pytest.raises(WRelFormatError, match="is not a string"):
            wrel_from_doc(NAT, _arrow_doc(seen + [[*bad, "1"]]))
    f = wrel_from_doc(
        NAT, _arrow_doc([[["1"], ["0"], "2"], [["1"], ["1"], "3"], [["0"], ["1"], "4"]])
    )
    assert f.value(NAT, (1,), (0,)) == 2 and f.value(NAT, (1,), (1,)) == 3
    assert f.value(NAT, (0,), (1,)) == 4
    with pytest.raises(WRelFormatError, match="duplicate entry"):
        wrel_from_doc(NAT, _arrow_doc([[["1"], ["0"], "2"], [["1"], ["0"], "3"]]))
    # "01" is not element 1's label, however warm the memo of "1" is
    with pytest.raises(WRelFormatError, match="^X: unknown label '01'; element 1 is labelled '1'$"):
        wrel_from_doc(NAT, _arrow_doc([[["1"], ["0"], "2"], [["01"], ["1"], "3"]]))
    with pytest.raises(WRelFormatError, match="^X: label '2' out of range$"):
        wrel_from_doc(NAT, _arrow_doc([[["1"], ["0"], "2"], [["2"], ["0"], "3"]]))


def test_from_doc_sort_labels_must_be_strings():
    doc = _arrow_doc([])
    doc["dom"][0]["labels"] = [0, 1]
    with pytest.raises(WRelFormatError, match="labels must be a list of strings"):
        wrel_from_doc(NAT, doc)


# Key checks: WRel(...) and wrel_from_doc check every key where it enters;
# the builders below make keys that are word elements by construction.


def test_builders_on_checked_arrows_check_no_key(monkeypatch):
    calls = []
    real = gsrel.wrel.word_contains

    def counting(word, key):
        calls.append(key)
        return real(word, key)

    monkeypatch.setattr(gsrel.wrel, "word_contains", counting)
    f = wrel_make(NAT, X, Y, {(0,): {(0,): 2, (1,): 1}, (1,): {(1,): 3}})
    g = wrel_make(NAT, Y, Z, {(0,): {(1,): 1}, (1,): {(0,): 5, (1,): 1}})
    s = wrel_make(NAT, X, I, {(0,): {(): 2}, (1,): {(): 3}})
    assert calls, "the public constructor checks its keys"
    calls.clear()

    st = Structure(NAT)
    built = [
        wrel_compose(NAT, f, g),
        wrel_tensor(NAT, f, g),
        wrel_id(NAT, X + Y),
        wrel_copy(NAT, X),
        wrel_del(NAT, X),
        wrel_swap(NAT, X, Y),
        st.dom(f),
        st.mass(f),
        hom_scalar_mul(NAT, s, s),
        canonical_semigroup_mul(NAT, X),
        *enumerate_arrows(BOOL, X, Y, "Md"),
        *sample_arrows(NAT, X, Y, "M", seed=11, n=12),
    ]
    wrel_classify(NAT, f)
    assert calls == []
    # each equals its rebuild through the checked constructor
    assert all(h == WRel(h.dom, h.cod, dict(h.rows)) for h in built)

    doc = {
        "semiring": "nat",
        "sorts": {"A": 2, "B": {"size": 2, "labels": ["p", "q"]}},
        "generators": {"f": {"dom": ["A"], "cod": ["B"], "entries": [[["0"], ["p"], "2"]]}},
    }
    interp = load_interpretation(doc)
    calls.clear()
    for _, lhs, rhs in gsm_axiom_pairs("A", "B"):
        report = check_term_equality(parse_term(lhs), parse_term(rhs), interp)
        assert report.status != "counterexample"
    # over nat, a weight-2 entry makes dom(f) ; f differ from f
    report = check_term_equality(parse_term("dom(f) ; f"), parse_term("f"), interp)
    assert report.status == "counterexample"
    assert calls == []


GF2 = load_semiring("gf(2)")
# Z/4: 2 * 2 = 0, so products of nonzero weights vanish
Z4 = load_table_semiring({
    "name": "z4",
    "elements": ["0", "1", "2", "3"],
    "zero": "0",
    "one": "1",
    "plus": [[str((a + b) % 4) for b in range(4)] for a in range(4)],
    "times": [[str(a * b % 4) for b in range(4)] for a in range(4)],
})
U = (FinSet("U", 1),)


def _canonical_and_checked(f):
    return all(len(h) for _, h in f.rows) and f == WRel(f.dom, f.cod, dict(f.rows))


@pytest.mark.parametrize("sr", [GF2, Z4], ids=["gf2", "z4"])
def test_results_stay_canonical_where_values_vanish(sr):
    ins, outs = enumerate_arrows(sr, U, X), enumerate_arrows(sr, X, U)
    for f in ins:
        for g in outs:
            assert _canonical_and_checked(wrel_compose(sr, f, g))
            assert _canonical_and_checked(wrel_compose(sr, g, f))
        for g in ins:
            assert _canonical_and_checked(wrel_tensor(sr, f, g))
    # sums and products that vanish leave no empty row
    two = sr.add(sr.one, sr.one)
    if sr is GF2:
        one = sr.one
        f = wrel_make(sr, U, X, {(0,): {(0,): one, (1,): one}})
        g = wrel_make(sr, X, U, {(0,): {(0,): one}, (1,): {(0,): one}})
        vanishing = [wrel_compose(sr, f, g)]
    else:
        f = wrel_make(sr, U, X, {(0,): {(0,): two, (1,): two}})
        g = wrel_make(sr, X, U, {(0,): {(0,): two}, (1,): {(0,): two}})
        vanishing = [wrel_compose(sr, f, g), wrel_compose(sr, g, f), wrel_tensor(sr, f, f)]
    for h in vanishing:
        assert h.rows == () and h == WRel(h.dom, h.cod, {})
        assert _canonical_and_checked(h)


# The integer kernels.  Over nat and nonneg-rational, wrel_compose packs rows
# into big integers and wrel_tensor scales rational rows to integers, and
# neither calls add or mul.  The reference is the generic loop, written
# densely with the semiring's own add and mul, so it holds for every
# carrier; fuzzy-max-times has Fraction values too, but max for add, so a
# kernel chosen by value type instead of plain_type fails.  Values are
# compared by repr, so an int where a Fraction belongs differs.

FMT = load_semiring("fuzzy-max-times")
# the last three are pairwise coprime and large
DENOMINATORS = (1, 2, 3, 4, 6, 9, 10**9 + 7, 998_244_353, 2**61 - 1)
# bit sizes of the largest nat value of an arrow: the cells of a compose
# then fill slots of 1, 2, 4 and 8 bytes, and wider ones up to 2**70 squared
NAT_BITS = (1, 2, 3, 6, 12, 28, 31, 33, 70)


def _dense_compose(sr, f, g):
    return wrel_make(sr, f.dom, g.cod, {
        x: {
            z: sr.sum(sr.mul(f.value(sr, x, y), g.value(sr, y, z)) for y in word_elements(f.cod))
            for z in word_elements(g.cod)
        }
        for x in word_elements(f.dom)
    })


def _dense_tensor(sr, f, g):
    return wrel_make(sr, f.dom + g.dom, f.cod + g.cod, {
        xf + xg: {
            yf + yg: sr.mul(f.value(sr, xf, yf), g.value(sr, xg, yg))
            for yf in word_elements(f.cod)
            for yg in word_elements(g.cod)
        }
        for xf in word_elements(f.dom)
        for xg in word_elements(g.dom)
    })


def _exact(f):
    """The arrow with each value by repr, so an int where a Fraction
    belongs differs."""
    return f.dom, f.cod, [(x, [(y, repr(v)) for y, v in h.entries]) for x, h in f.rows]


def _arrow(rng, sr, dom, cod):
    """A sparse arrow: a quarter of the rows zero, half the cells zero, and
    one nonzero cell in ten the carrier's one."""
    top = 2 ** rng.choice(NAT_BITS)
    rows = {}
    for x in word_elements(dom):
        if rng.random() < 0.75:
            rows[x] = {}
            for y in word_elements(cod):
                if rng.random() < 0.5:
                    if rng.random() < 0.1:
                        rows[x][y] = sr.one
                    elif sr is NAT:
                        rows[x][y] = rng.randint(1, top)
                    else:
                        d = rng.choice(DENOMINATORS)
                        rows[x][y] = Fraction(rng.randint(1, d if sr is FMT else 10**12), d)
    return wrel_make(sr, dom, cod, rows)


@st.composite
def _kernel_cases(draw):
    """(sr, f, g, h) with f: X -> Y, g: Y -> Z and h: Z -> X, each word of
    up to two sorts of size 0 to 3; () is the unit word."""
    rng = draw(st.randoms(use_true_random=False))
    sr = rng.choice([NAT, QPLUS, FMT])
    x, y, z = (
        tuple(FinSet(f"S{n}", n) for n in (rng.randint(0, 3) for _ in range(rng.randint(0, 2))))
        for _ in range(3)
    )
    return sr, _arrow(rng, sr, x, y), _arrow(rng, sr, y, z), _arrow(rng, sr, z, x)


# Explicit cases: coprime denominators, a zero row x1 in _XY, a zero
# column x0 in the I -> X arrow, the unit word I and the size-0 sort E;
# over nat, weight-one and other single-entry rows into rows of 2**70, and
# an empty row; last, a row of two terms that fuzzy-max-times takes the
# max of.
_P, _Q = Fraction(1, 10**9 + 7), Fraction(3, 998_244_353)
_XY = wrel_make(QPLUS, X, Y, {(0,): {(0,): _P, (1,): _Q}})
_YI = wrel_make(QPLUS, Y, I, {(0,): {(): Fraction(5, 2**61 - 1)}, (1,): {(): _Q}})
_HALF = {(): Fraction(1, 2)}
_NAT_YX = wrel_make(NAT, Y, X, {(0,): {(0,): 2**70, (1,): 3}, (1,): {(1,): 2**70 - 1}})


@given(_kernel_cases())
@example((QPLUS, _XY, _YI, wrel_make(QPLUS, I, X, {(): {(1,): _P}})))
@example((QPLUS, wrel_make(QPLUS, E, Y, {}), _YI, wrel_make(QPLUS, I, E, {})))
@example((
    NAT,
    wrel_make(NAT, X, Y, {(0,): {(0,): 1}, (1,): {(1,): 5}}),
    _NAT_YX,
    wrel_make(NAT, X, X, {(0,): {(0,): 1, (1,): 2**70}, (1,): {}}),
))
@example((
    NAT,
    wrel_make(NAT, I, Y, {(): {(0,): 1, (1,): 1}}),
    wrel_make(NAT, Y, E, {}),
    wrel_make(NAT, E, I, {}),
))
@example((
    FMT,
    wrel_make(FMT, X, Y, {(0,): {(0,): Fraction(1, 2), (1,): Fraction(1, 3)}}),
    wrel_make(FMT, Y, I, {(0,): _HALF, (1,): _HALF}),
    wrel_make(FMT, I, X, {}),
))
@settings(max_examples=400, deadline=None)
def test_integer_kernels_give_the_generic_result(case):
    sr, f, g, h = case
    generic = dataclasses.replace(sr, plain_type=None)
    for op, dense, left, right in (
        (wrel_compose, _dense_compose, f, g),
        (wrel_compose, _dense_compose, g, h),
        (wrel_tensor, _dense_tensor, f, g),
        (wrel_tensor, _dense_tensor, h, f),
    ):
        got = _exact(op(sr, left, right))
        assert got == _exact(dense(sr, left, right))
        assert got == _exact(op(generic, left, right))


@pytest.mark.parametrize("cell", [2**8 - 1, 2**8, 2**16, 2**32 - 1, 2**64 - 1, 2**64, 2**70])
@pytest.mark.parametrize("sr", [NAT, QPLUS])
def test_compose_cells_at_each_slot_edge(sr, cell):
    # f's row (1, cell - 1) reads two rows of g of all ones: two adjacent
    # cells of exactly `cell`, the largest value of a slot width or the
    # smallest of the next, so a slot one byte short carries into the other
    num = sr.plain_type
    f = wrel_make(sr, I, X, {(): {(0,): num(1), (1,): num(cell - 1)}})
    g = wrel_make(sr, X, X, {y: {z: num(1) for z in word_elements(X)} for y in word_elements(X)})
    got = wrel_compose(sr, f, g)
    assert _exact(got) == _exact(wrel_make(sr, I, X, {(): {(0,): num(cell), (1,): num(cell)}}))
    assert _exact(got) == _exact(_dense_compose(sr, f, g))


def test_a_weight_one_entry_reads_the_row_of_g_itself():
    for sr in (NAT, QPLUS):
        f = wrel_make(sr, X, Y, {(0,): {(1,): sr.one}, (1,): {(0,): sr.one + sr.one}})
        g = wrel_make(sr, Y, X, {(0,): {(0,): sr.one}, (1,): {(0,): sr.one, (1,): sr.one}})
        got = wrel_compose(sr, f, g)
        assert got.row(sr, (0,)) is g.row(sr, (1,))
        assert _exact(got) == _exact(_dense_compose(sr, f, g))


@pytest.mark.parametrize("sr, minus", [(NAT, -1), (QPLUS, Fraction(-1, 2))])
def test_packing_refuses_a_negative_value(sr, minus):
    # the carriers refuse a negative label, but WeightMap(...) takes one.
    # Packed, f's row (-1, 2) against id would borrow from its neighbour's
    # slot: -1 + 2 * 2**8 reads as the cells (255, 1) in 1-byte slots
    neg = {(0,): minus, (1,): 2}
    pos = {(0,): 1, (1,): 2}
    cases = [
        (wrel_make(sr, I, X, {(): neg}), wrel_id(sr, X)),
        (wrel_make(sr, I, X, {(): pos}), wrel_make(sr, X, X, {(0,): neg, (1,): pos})),
    ]
    for f, g in cases:
        with pytest.raises(gsrel.weightmap.WeightMapError, match="negative"):
            wrel_compose(sr, f, g)


# The trusted path: over a positive carrier wrel_compose and wrel_tensor
# store their cells without the zero test.  A positive=False copy runs it,
# and the dense reference builds through the checked constructor; all three
# must agree, values compared by repr.

POSITIVE = [sr for sr in map(load_semiring, CATALOG) if sr.positive]


@st.composite
def _positive_cases(draw):
    """(sr, f, g) with f: X -> Y and g: Y -> Z over a positive carrier, each
    word of up to two sorts of size 0 to 3, a quarter of the rows and half
    the cells zero, the rest nonzero sample values."""
    rng = draw(st.randoms(use_true_random=False))
    sr = rng.choice(POSITIVE)
    values = [v for v in sr.sample_elements(rng) if v != sr.zero] + [sr.one]
    x, y, z = (
        tuple(FinSet(f"S{n}", n) for n in (rng.randint(0, 3) for _ in range(rng.randint(0, 2))))
        for _ in range(3)
    )

    def arrow(dom, cod):
        return wrel_make(sr, dom, cod, {
            a: {b: rng.choice(values) for b in word_elements(cod) if rng.random() < 0.5}
            for a in word_elements(dom)
            if rng.random() < 0.75
        })

    return sr, arrow(x, y), arrow(y, z)


@given(_positive_cases())
@settings(max_examples=300, deadline=None)
def test_trusted_compose_and_tensor_give_the_checked_result(case):
    sr, f, g = case
    checked = dataclasses.replace(sr, positive=False)
    for op, dense, left, right in (
        (wrel_compose, _dense_compose, f, g),
        (wrel_tensor, _dense_tensor, f, g),
        (wrel_tensor, _dense_tensor, g, f),
    ):
        got = _exact(op(sr, left, right))
        assert got == _exact(op(checked, left, right))
        assert got == _exact(dense(sr, left, right))


def test_gf2_compose_still_drops_a_sum_of_two_ones():
    one = GF2.one
    f = wrel_make(GF2, U, X, {(0,): {(0,): one, (1,): one}})
    g = wrel_make(GF2, X, Y, {(0,): {(0,): one, (1,): one}, (1,): {(0,): one}})
    # y0 gets 1 * 1 + 1 * 1 = 0 and is dropped; y1 gets 1 * 1
    assert wrel_compose(GF2, f, g) == wrel_make(GF2, U, Y, {(0,): {(1,): one}})


# outside input keeps the checked constructor: a zero label is dropped
# over every carrier, positive or not, and over a table whose zero is "z"
Z_TABLE = {
    "elements": ["z", "u"],
    "plus": [["z", "u"], ["u", "u"]],
    "times": [["z", "z"], ["z", "u"]],
    "zero": "z",
    "one": "u",
}


@pytest.mark.parametrize(
    "semiring, zero, one",
    [
        ("bool", "0", "1"),
        ("nat", "0", "3"),
        ("nonneg-rational", "0/3", "1/2"),
        ("fuzzy-max-min", "0", "1/2"),
        ("fuzzy-max-times", "0.0", "1"),
        ("gf(2)", "0", "1"),
        (Z_TABLE, "z", "u"),
    ],
)
def test_a_zero_label_in_an_interpretation_is_dropped(semiring, zero, one):
    interp = load_interpretation({
        "semiring": semiring,
        "sorts": {"A": 2, "B": 2},
        "generators": {
            "f": {
                "dom": ["A"],
                "cod": ["B"],
                "entries": [[["0"], ["0"], zero], [["0"], ["1"], one], [["1"], ["1"], zero]],
            }
        },
    })
    sr, v = interp.semiring, interp.semiring.parse(one)
    f = interp.generators["f"]
    assert f.rows == (((0,), wm_make(sr, {(1,): v})),)
    assert evaluate_term(parse_term("f"), interp) == f
    # dom(f) ; f weighs the one entry by its row total, v
    assert evaluate_term(parse_term("dom(f) ; f"), interp) == wrel_make(
        sr, f.dom, f.cod, {(0,): {(1,): sr.mul(v, v)}}
    )


# Each row of a tensor is wm_psi of its two rows.  wrel_tensor builds its
# rows without calling wm_psi, so wm_psi row by row, over every pair of
# domain elements (rows f and g do not store are empty), is an independent
# reference.  The carriers include ones where a product of nonzero values
# vanishes: gf(2) and gf(3) have none, Z/4 has 2 * 2 = 0.

TENSOR_CARRIERS = [BOOL, NAT, FMT, GF2, load_semiring("gf(3)"), Z4]


def _rowwise_psi(sr, f, g):
    return WRel(f.dom + g.dom, f.cod + g.cod, [
        (xf + xg, wm_psi(sr, f.row(sr, xf), g.row(sr, xg)))
        for xf in word_elements(f.dom)
        for xg in word_elements(g.dom)
    ])


@st.composite
def _tensor_cases(draw):
    """(sr, f, g) with f: W -> X and g: Y -> Z, each word of up to two sorts
    of size 0 to 3 or the unit word, a quarter of the rows and half the
    cells empty, the rest carrier samples, zero included."""
    rng = draw(st.randoms(use_true_random=False))
    sr = rng.choice(TENSOR_CARRIERS)
    values = sr.sample_elements(rng) + [sr.zero, sr.one]
    w, x, y, z = (
        tuple(FinSet(f"S{n}", n) for n in (rng.randint(0, 3) for _ in range(rng.randint(0, 2))))
        for _ in range(4)
    )

    def arrow(dom, cod):
        return wrel_make(sr, dom, cod, {
            a: {b: rng.choice(values) for b in word_elements(cod) if rng.random() < 0.5}
            for a in word_elements(dom)
            if rng.random() < 0.75
        })

    return sr, arrow(w, x), arrow(y, z)


_TWO = Z4.parse("2")


@given(_tensor_cases())
@example((Z4, wrel_make(Z4, I, X, {(): {(0,): _TWO}}), wrel_make(Z4, X, I, {(1,): {(): _TWO}})))
@example((GF2, wrel_make(GF2, X, I, {}), wrel_make(GF2, I, I, {(): {(): GF2.one}})))
@example((NAT, wrel_make(NAT, I, I, {(): {(): 3}}), wrel_make(NAT, I, I, {(): {(): 5}})))
@settings(max_examples=300, deadline=None)
def test_each_tensor_row_is_psi_of_its_two_rows(case):
    sr, f, g = case
    assert _exact(wrel_tensor(sr, f, g)) == _exact(_rowwise_psi(sr, f, g))
    assert _exact(wrel_tensor(sr, g, f)) == _exact(_rowwise_psi(sr, g, f))


# dom(f) is its defining composite copy ; (id x mass(f)).  Structure.dom
# builds only the rows (x, x) of the tensor that copy reads; the composite
# written out from the public builders, and the closed form, are references.

DOM_CARRIERS = [
    BOOL, NAT, QPLUS, load_semiring("fuzzy-max-min"), GF2, load_semiring("gf(3)"), Z4
]


@st.composite
def _dom_cases(draw):
    """(sr, f) with f: X -> Y, each word of up to two sorts of size 0 to 3
    or the unit word, a quarter of the rows and half the cells empty, the
    rest carrier samples, zero included."""
    rng = draw(st.randoms(use_true_random=False))
    sr = rng.choice(DOM_CARRIERS)
    values = sr.sample_elements(rng) + [sr.zero, sr.one]
    x, y = (
        tuple(FinSet(f"S{n}", n) for n in (rng.randint(0, 3) for _ in range(rng.randint(0, 2))))
        for _ in range(2)
    )
    return sr, wrel_make(sr, x, y, {
        a: {b: rng.choice(values) for b in word_elements(y) if rng.random() < 0.5}
        for a in word_elements(x)
        if rng.random() < 0.75
    })


def _dom_composite(sr, f):
    x, y = f.dom, f.cod
    mass = wrel_compose(sr, f, wrel_del(sr, y))
    return wrel_compose(sr, wrel_copy(sr, x), wrel_tensor(sr, wrel_id(sr, x), mass))


AB = (FinSet("A", 2), FinSet("B", 3))


@given(_dom_cases())
@example((NAT, wrel_make(NAT, I, I, {(): {(): 3}})))
@example((NAT, wrel_make(NAT, I, X, {})))
@example((QPLUS, wrel_make(QPLUS, AB, X, {(0, 2): {(1,): Fraction(1, 3)}, (1, 0): {(0,): 2}})))
@example((Z4, wrel_make(Z4, X, AB, {(0,): {(0, 0): _TWO, (1, 1): _TWO}, (1,): {(0, 1): _TWO}})))
@example((GF2, wrel_make(GF2, AB, I, {(0, 0): {(): GF2.one}})))
@settings(max_examples=300, deadline=None)
def test_dom_is_its_defining_composite(case):
    sr, f = case
    dom = Structure(sr).dom(f)
    assert _exact(dom) == _exact(_dom_composite(sr, f))
    assert _exact(dom) == _exact(wrel_dom_closed(sr, f))


@pytest.mark.parametrize("sr", [NAT, QPLUS], ids=["nat", "nonneg-rational"])
def test_dom_builds_only_the_tensor_rows_copy_reads(monkeypatch, sr):
    """A dense arrow on an 8 x 6 domain: copy reads 48 of the 48 * 48 rows
    of id x mass(f), and only those 48 are built."""
    built = []

    def counted(sr, pairs, _rows=gsrel.wrel._tensor_rows):
        rows = _rows(sr, pairs)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(gsrel.wrel, "_tensor_rows", counted)
    x, y = (FinSet("A", 8), FinSet("B", 6)), (FinSet("B", 6),)
    f = wrel_make(sr, x, y, {
        a: {b: sr.parse(str(1 + (3 * a[0] + a[1] + b[0]) % 4)) for b in word_elements(y)}
        for a in word_elements(x)
    })
    assert _exact(wrel_dom(sr, f)) == _exact(wrel_dom_closed(sr, f))
    assert sum(built) <= 48
    # the whole tensor, as the composite written out builds it, has 2,304
    built.clear()
    _dom_composite(sr, f)
    assert built == [48 * 48]


def _reference_sample_arrows(sr, dom, cod, variant, seed, n, tag="arrows"):
    """sample_arrows as written before its rows were drawn on first read:
    the whole public sample_maps row pool first, then the products over its
    first three rows and the seeded random draws over all of it."""
    if _enumerable(sr, word_size(dom) * word_size(cod)):
        return enumerate_arrows(sr, dom, cod, variant)[:n]
    keys = list(word_elements(dom))
    row_pool = sample_maps(sr, cod, variant, seed, max(6, n // 4), tag=f"{tag}-rows")
    if not row_pool:
        return []
    out = []
    seen = set()
    for assignment in itertools.product(row_pool[:3], repeat=len(keys)):
        arrow = WRel(dom, cod, dict(zip(keys, assignment)))
        if arrow not in seen:
            seen.add(arrow)
            out.append(arrow)
        if len(out) >= n:
            return out
    if not keys:
        return out
    rng = derive_rng(seed, "sample-arrows", sr.name, variant, tag, len(keys), n)
    while len(out) < n:
        arrow = WRel(dom, cod, {k: rng.choice(row_pool) for k in keys})
        if arrow not in seen:
            seen.add(arrow)
            out.append(arrow)
        elif len(row_pool) ** max(1, len(keys)) <= len(out):
            break
    return out


def _xs(size):
    return (FinSet("X", size),)


def _ys(size):
    return (FinSet("Y", size),)


@pytest.mark.parametrize(
    "name", ["nat", "nonneg-rational", "fuzzy-max-min", "fuzzy-max-times", "gf(101)"]
)
def test_sample_arrows_match_the_whole_pool_reference(name):
    """Rows drawn on first read give the arrows, in the order, of the whole
    pool drawn first; gf(101) takes the enumerable branch where dom x cod
    has at most one cell."""
    sr = load_semiring(name)
    for variant, d, c, n, seed in itertools.product(
        VARIANTS, range(3), range(3), (1, 2, 3, 24), (11, 5)
    ):
        got = sample_arrows(sr, _xs(d), _ys(c), variant, seed, n)
        assert got == _reference_sample_arrows(sr, _xs(d), _ys(c), variant, seed, n), (
            variant, d, c, n, seed,
        )


@pytest.mark.parametrize(
    "variant, cod_size, members", [("Ma", 1, 1), ("Mr", 2, 3), ("Ma", 0, 0)]
)
def test_sample_arrows_over_small_row_families(variant, cod_size, members):
    """Families with fewer than three rows, or fewer than the pool asks
    for: the products and the random draws read the rows there are."""
    for n in (1, 2, 3, 24):
        pool = sample_maps(NAT, _ys(cod_size), variant, 11, max(6, n // 4), tag="arrows-rows")
        assert len(pool) == members
        for d in range(3):
            got = sample_arrows(NAT, _xs(d), _ys(cod_size), variant, 11, n)
            assert got == _reference_sample_arrows(NAT, _xs(d), _ys(cod_size), variant, 11, n)
            assert len(got) == (min(n, members ** d) if members else 0)


@pytest.mark.parametrize("sr", [BOOL, NAT], ids=["bool", "nat"])
@pytest.mark.parametrize("n", [0, -1, -7])
def test_a_sample_of_no_more_than_zero_is_empty(sr, n):
    """Every branch, enumerated or sampled, on an empty or a full domain,
    gives no arrow and no map for an n of 0 or less."""
    for variant, d, c in itertools.product(VARIANTS, (0, 1, 3), (0, 2, 5)):
        assert sample_arrows(sr, _xs(d), _ys(c), variant, 11, n) == [], (variant, d, c)
        assert sample_maps(sr, _ys(c), variant, 11, n) == [], (variant, c)
        assert sample_maps(sr, _ys(4) + _xs(4), variant, 11, n) == [], variant


@pytest.mark.parametrize("dom_size, rows_read", [(1, 2), (0, 1)])
def test_sample_arrows_draw_no_row_past_the_last_read(monkeypatch, dom_size, rows_read):
    """nat/Mr over Y2 has three members, found only by running the row
    stream dry; two arrows on X1 read two rows, and the one arrow on X0
    reads one row, to tell the family is not empty."""
    pulled = []

    def recorded(*args, _stream=gsrel.weightmap._sample_stream):
        for h in _stream(*args):
            pulled.append(h)
            yield h

    monkeypatch.setattr(gsrel.weightmap, "_sample_stream", recorded)
    arrows = sample_arrows(NAT, _xs(dom_size), _ys(2), "Mr", seed=11, n=2)
    members = [h for h in dict.fromkeys(pulled) if in_variant(NAT, h, "Mr")]
    assert len(members) == rows_read
    assert pulled[-1] == members[-1]
    if dom_size:
        assert [f.row(NAT, (0,)) for f in arrows] == members
    else:
        assert arrows == [WRel(_xs(0), _ys(2), {})]


def test_an_empty_domain_enumerates_no_row(monkeypatch):
    """X0 -> Y3 over gf(101) has the one empty arrow for every variant, as
    the product over no rows gives, and none of the 101 ** 3 rows is built;
    an infinite carrier is still refused."""
    gf101 = load_semiring("gf(101)")
    for variant in VARIANTS:
        assert enumerate_arrows(gf101, _xs(0), _ys(3), variant) == [WRel(_xs(0), _ys(3), {})]
    calls = []
    monkeypatch.setattr(gsrel.wrel, "enumerate_maps", lambda *args: calls.append(args))
    assert sample_arrows(gf101, _xs(0), _ys(3), "Ma", seed=11, n=4) == [WRel(_xs(0), _ys(3), {})]
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match="carrier is not enumerable"):
        enumerate_arrows(NAT, _xs(0), _ys(2))
