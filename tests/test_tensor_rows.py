"""A composite into a tensor builds only the rows it reads, and is exact.

`f ; (a * b)` is evaluated by building the rows of `a * b` at the column
keys of f alone, with the row kernel of wrel_tensor, and composing f with
the arrow of those rows.  A row of f ; g reads only the rows of g at the
keys of its entries, so the result is wrel_compose(f, wrel_tensor(a, b))
over every semiring; the carriers here include gf(2), where sums vanish,
and Z/4, where products of nonzero weights vanish and a built row can be
empty.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gsrel import (
    FinSet,
    Interpretation,
    Seq,
    Structure,
    Tensor,
    check_term_equality,
    evaluate_term,
    load_semiring,
    load_table_semiring,
    parse_term,
    wrel_compose,
    wrel_make,
    wrel_tensor,
    word_elements,
)
from gsrel.diagram import _LawCase

# Z/4: 2 * 2 = 0, so products of nonzero weights vanish
Z4 = load_table_semiring({
    "name": "z4",
    "elements": ["0", "1", "2", "3"],
    "zero": "0",
    "one": "1",
    "plus": [[str((a + b) % 4) for b in range(4)] for a in range(4)],
    "times": [[str(a * b % 4) for b in range(4)] for a in range(4)],
})
CARRIERS = (load_semiring("nat"), load_semiring("nonneg-rational"), load_semiring("gf(2)"), Z4)
SORTS = "ABCDEF"
# generator -> (dom, cod) over the sorts, an empty dom standing for X: f
# and f2 compose into a * b, g into (a * b) * c and h into a * (b * c)
GENERATORS = {
    "a": ("A", "B"),
    "b": ("C", "D"),
    "c": ("E", "F"),
    "f": ("", "AC"),
    "f2": ("", "AC"),
    "g": ("", "ACE"),
    "h": ("", "ACE"),
}
TERMS = [
    "f ; (a * b)",
    "g ; ((a * b) * c)",
    "h ; (a * (b * c))",
    "f ; (a * b) ; (del[B] * id[D])",
]


def _value(rng, sr):
    """A weight, zero one time in three."""
    if rng.random() < 1 / 3:
        return sr.zero
    if sr.elements is not None:
        return rng.choice(sr.elements)
    if sr.plain_type is Fraction:
        return Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4)))
    return rng.randint(1, 5)


def _arrow(rng, sr, dom, cod):
    return wrel_make(sr, dom, cod, {
        x: {y: _value(rng, sr) for y in word_elements(cod)}
        for x in word_elements(dom)
        if rng.random() < 0.8
    })


@st.composite
def interpretations(draw):
    """An interpretation of GENERATORS over one carrier, with sorts of
    size 0 to 3 and a generator X -> ... whose domain is a sort X."""
    rng = draw(st.randoms(use_true_random=False))
    sr = rng.choice(CARRIERS)
    sorts = {name: FinSet(name, rng.randint(0, 3)) for name in SORTS + "X"}
    gen_sig = {
        name: (tuple(dom or "X"), tuple(cod)) for name, (dom, cod) in GENERATORS.items()
    }
    generators = {
        name: _arrow(rng, sr, *(tuple(sorts[s] for s in word) for word in words))
        for name, words in gen_sig.items()
    }
    return Interpretation(sr, sorts, generators, gen_sig)


def _whole(term, interp):
    """The term's arrow with every tensor built whole by wrel_tensor."""
    sr = interp.semiring
    if isinstance(term, Seq):
        return wrel_compose(sr, _whole(term.left, interp), _whole(term.right, interp))
    if isinstance(term, Tensor):
        return wrel_tensor(sr, _whole(term.left, interp), _whole(term.right, interp))
    return evaluate_term(term, interp)


def _case(interp):
    sorts = {name: (s,) for name, s in interp.sorts.items()}
    return _LawCase(Structure(interp.semiring), sorts, interp.generators)


@settings(max_examples=150, deadline=None)
@given(interpretations())
def test_a_composite_into_a_tensor_is_the_composite_with_the_whole_tensor(interp):
    for text in TERMS:
        term = parse_term(text)
        assert evaluate_term(term, interp) == _whole(term, interp), text


@settings(max_examples=60, deadline=None)
@given(interpretations())
def test_a_tensor_the_memo_holds_whole_is_composed_as_it_is(interp):
    case = _case(interp)
    tensor, composite = parse_term("a * b"), parse_term("f ; (a * b)")
    whole = case.eval(tensor)
    assert case.eval(composite) == wrel_compose(interp.semiring, interp.generators["f"], whole)
    assert tensor not in case.rows


@settings(max_examples=100, deadline=None)
@given(interpretations())
def test_both_sides_of_an_equation_share_the_rows_of_one_tensor(interp):
    sr, gens = interp.semiring, interp.generators
    left, right = parse_term("f ; (a * b)"), parse_term("f2 ; (a * b)")
    whole = wrel_tensor(sr, gens["a"], gens["b"])
    lhs, rhs = wrel_compose(sr, gens["f"], whole), wrel_compose(sr, gens["f2"], whole)
    rep = check_term_equality(left, right, interp)
    assert rep.passed == (lhs == rhs)
    if not rep.passed:
        x, y = (tuple(int(label) for label in rep.witness[k]) for k in ("row", "col"))
        assert (rep.witness["left"], rep.witness["right"]) == (
            sr.label(lhs.value(sr, x, y)),
            sr.label(rhs.value(sr, x, y)),
        )
    # one row memo for the tensor, holding the rows the two sides read
    case = _case(interp)
    case.eval(left), case.eval(right)
    reached = {y for f in (gens["f"], gens["f2"]) for _x, h in f.rows for y, _v in h.entries}
    assert set(case.rows[parse_term("a * b")]) <= reached
    assert {k: h for k, h in case.rows[parse_term("a * b")].items() if h.entries} == {
        k: h for k, h in whole.rows if k in reached
    }
