"""gsrel's eval arrows and eq verdicts against an independent evaluator.

perfbench/reference.py has its own parser and evaluates a term as dense
exact matrices: products, Kronecker products, and the diagonal and column
of row totals for dom and mass.  It is imported here and not changed.  The
queries are small random terms over random interpretations on nat and
nonneg-rational.  The eq pairs are a term against an unrelated term of its
boundary, mostly unequal, or against a rewriting of itself by a unit or
counit law, always equal.
"""
import random
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gsrel import check_term_equality, evaluate_term, load_interpretation, parse_term

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402

SORTS = ("A", "B")
# generator -> (dom, cod); the constants u and v make every boundary
# reachable: del[w] ; (u * v ...) is an arrow from w to any word
GENERATORS = {
    "f": (("A",), ("B",)),
    "g": (("B",), ("A", "B")),
    "h": (("A", "B"), ("A",)),
    "k": (("B",), ()),
    "u": ((), ("A",)),
    "v": ((), ("B",)),
}
CONSTANTS = {("A",): "u", ("B",): "v"}
DEPTH = 4


def _word(word) -> str:
    return ",".join(word)


def _value(rng, semiring: str) -> str:
    if semiring == "nat":
        return str(rng.choice((0, 1, 1, 2, 3)))
    return f"{rng.randint(0, 5)}/{rng.choice((1, 2, 3))}"


def _interpretation(rng, semiring: str) -> dict:
    sizes = {s: rng.randint(1, 3) for s in SORTS}

    def elements(word):
        out = [()]
        for s in word:
            out = [x + (str(i),) for x in out for i in range(sizes[s])]
        return out

    generators = {}
    for name, (dom, cod) in GENERATORS.items():
        entries = [
            [list(x), list(y), _value(rng, semiring)]
            for x in elements(dom)
            for y in elements(cod)
            if rng.random() < 0.7
        ]
        generators[name] = {"dom": list(dom), "cod": list(cod), "entries": entries}
    return {"semiring": semiring, "sorts": sizes, "generators": generators}


def _any_word(rng) -> tuple:
    return tuple(rng.choice(SORTS) for _ in range(rng.randint(0, 2)))


def _fallback(dom: tuple, cod: tuple) -> str:
    """An arrow dom -> cod built from del and the constants."""
    if not cod:
        return f"del[{_word(dom)}]"
    return f"del[{_word(dom)}] ; ({' * '.join(CONSTANTS[(s,)] for s in cod)})"


def _term(rng, dom: tuple, cod: tuple, depth: int) -> str:
    """A random term dom -> cod, its sub-terms in parentheses."""
    atoms = [name for name, boundary in GENERATORS.items() if boundary == (dom, cod)]
    if dom == cod:
        atoms += [f"id[{_word(dom)}]", f"dom({_term(rng, dom, _any_word(rng), depth - 1)})"]
    if cod == dom + dom:
        atoms.append(f"copy[{_word(dom)}]")
    if not cod:
        atoms += [f"del[{_word(dom)}]", f"mass({_term(rng, dom, _any_word(rng), depth - 1)})"]
    for cut in range(1, len(dom)):
        if cod == dom[cut:] + dom[:cut]:
            atoms.append(f"swap[{_word(dom[:cut])};{_word(dom[cut:])}]")
    if depth <= 0:
        return rng.choice(atoms) if atoms else _fallback(dom, cod)
    cuts = range(1, len(dom))
    choice = rng.choice([";", ";", "*", "*", *atoms, *(["swap"] if cuts else [])])
    if choice == "swap":
        cut = rng.choice(cuts)
        rest = _term(rng, dom[cut:] + dom[:cut], cod, depth - 1)
        return f"swap[{_word(dom[:cut])};{_word(dom[cut:])}] ; ({rest})"
    if choice == ";":
        mid = _any_word(rng)
        return f"({_term(rng, dom, mid, depth - 1)}) ; ({_term(rng, mid, cod, depth - 1)})"
    if choice == "*":
        i, j = rng.randint(0, len(dom)), rng.randint(0, len(cod))
        left = _term(rng, dom[:i], cod[:j], depth - 1)
        return f"({left}) * ({_term(rng, dom[i:], cod[j:], depth - 1)})"
    return choice


def _rewritten(rng, text: str, dom: tuple, cod: tuple) -> str:
    """The term by a unit or counit law: equal to it in every semiring."""
    d, c = _word(dom), _word(cod)
    return rng.choice((
        f"id[{d}] ; ({text})",
        f"({text}) ; id[{c}]",
        f"copy[{d}] ; (({text}) * del[{d}])",
        f"({text}) ; copy[{c}] ; (del[{c}] * id[{c}])",
    ))


def query(rng) -> tuple:
    """(interpretation document, left term, right term, whether the right
    term was rewritten from the left)."""
    doc = _interpretation(rng, rng.choice(("nat", "nonneg-rational")))
    dom, cod = _any_word(rng), _any_word(rng)
    left = _term(rng, dom, cod, DEPTH)
    rewritten = rng.random() < 0.5
    right = _rewritten(rng, left, dom, cod) if rewritten else _term(rng, dom, cod, DEPTH)
    return doc, left, right, rewritten


def as_matrix(arrow, ref: reference.Interp) -> reference.Matrix:
    """The arrow as the reference's dense matrix."""
    dom, cod = [s.name for s in arrow.dom], [s.name for s in arrow.cod]
    m = reference.zeros(ref.size(dom), ref.size(cod))
    for x, row in arrow.rows:
        for y, v in row.entries:
            m.data[ref.index(dom, x)][ref.index(cod, y)] = v
    return m


def mismatch(doc, left: str, right: str, rewritten: bool):
    """None when gsrel's eval arrows and eq verdict agree with the
    reference's, else what differs."""
    interp, ref = load_interpretation(doc), reference.Interp(doc)
    expected = [reference.evaluate(text, ref)[0] for text in (left, right)]
    for text, want in zip((left, right), expected):
        if as_matrix(evaluate_term(parse_term(text), interp), ref) != want:
            return f"eval {text}"
    equal = expected[0] == expected[1]
    if rewritten and not equal:
        return "the reference refutes a unit or counit law"
    if check_term_equality(parse_term(left), parse_term(right), interp).passed != equal:
        return f"eq {left} = {right}"
    return None


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_eval_and_eq_agree_with_the_reference_evaluator(rng):
    q = query(random.Random(rng.random()))
    assert mismatch(*q) is None, q
