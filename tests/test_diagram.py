"""Term language: parsing, printing, typechecking, evaluation."""
import pytest
from hypothesis import given, settings, strategies as st

import gsrel.diagram as diagram
from gsrel import (
    Copy,
    Del,
    Dom,
    Gen,
    Id,
    InterpFormatError,
    Interpretation,
    Mass,
    ParseError,
    Seq,
    Signature,
    Swap,
    Tensor,
    TypecheckError,
    UnknownGeneratorError,
    check_term_equality,
    classify_kleisli,
    derive_rng,
    evaluate_term,
    gsm_axiom_pairs,
    load_interpretation,
    load_semiring,
    parse_term,
    parse_term_file,
    print_term,
    sample_arrows,
    typecheck_term,
    wrel_compose,
    wrel_copy,
    wrel_del,
    wrel_dom,
    wrel_eq,
    wrel_id,
    wrel_mass,
    wrel_swap,
    wrel_tensor,
    wrel_to_doc,
)

NAT = load_semiring("nat")

INTERP_DOC = {
    "semiring": "nat",
    "sorts": {"A": {"size": 2, "labels": ["a0", "a1"]}, "B": 3, "C": {"size": 2}},
    "generators": {
        "f": {"dom": ["A"], "cod": ["B"], "entries": [[["a0"], ["0"], "2"], [["a1"], ["1"], "1"]]},
        "g": {"dom": ["B"], "cod": ["C"], "entries": [[["0"], ["0"], "3"], [["1"], ["1"], "1"]]},
        "h": {"dom": ["A", "B"], "cod": [], "entries": [[["a0", "0"], [], "1"]]},
    },
}
INTERP = load_interpretation(INTERP_DOC)
SIG = INTERP.signature()


# parsing and printing


def test_parse_atoms():
    assert parse_term("id[A]") == Id(("A",))
    assert parse_term("id[]") == Id(())
    assert parse_term("copy[A,B]") == Copy(("A", "B"))
    assert parse_term("del[A]") == Del(("A",))
    assert parse_term("swap[A;B]") == Swap(("A",), ("B",))
    assert parse_term("swap[A,B;C]") == Swap(("A", "B"), ("C",))
    assert parse_term("f") == Gen("f")


def test_precedence_seq_binds_looser_than_tensor():
    t = parse_term("f ; g * h")
    assert t == Seq(Gen("f"), Tensor(Gen("g"), Gen("h")))
    t = parse_term("(f ; g) * h")
    assert t == Tensor(Seq(Gen("f"), Gen("g")), Gen("h"))


def test_seq_and_tensor_associate_left():
    assert parse_term("f ; g ; h") == Seq(Seq(Gen("f"), Gen("g")), Gen("h"))
    assert parse_term("f * g * h") == Tensor(Tensor(Gen("f"), Gen("g")), Gen("h"))


def test_dom_mass_and_comments():
    t = parse_term("dom(f) ; f  # trailing comment")
    assert t == Seq(Dom(Gen("f")), Gen("f"))
    t = parse_term("mass(f ; g)")
    assert t == Mass(Seq(Gen("f"), Gen("g")))


def test_parse_error_location():
    with pytest.raises(ParseError) as exc:
        parse_term("f ;; g")
    assert "1:" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_term("f ;\n  * g")
    assert "2:" in str(exc.value)
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_term("f @ g")
    with pytest.raises(ParseError):
        parse_term("(f ; g")


def test_print_parse_round_trip_handwritten():
    samples = [
        "f ; g * h",
        "(f ; g) * h",
        "dom(f ; g) ; mass(h)",
        "copy[A] ; (id[A] * del[A])",
        "swap[A;B] ; swap[B;A]",
        "id[]",
        "copy[A,B] ; (del[A,B] * copy[A,B])",
    ]
    for text in samples:
        t = parse_term(text)
        assert parse_term(print_term(t)) == t


SORTS = st.sampled_from([("A",), ("B",), ("A", "B"), ()])


def terms(depth=3):
    leaf = st.one_of(
        SORTS.map(Id),
        SORTS.map(Copy),
        SORTS.map(Del),
        st.tuples(SORTS, SORTS).map(lambda p: Swap(*p)),
        st.sampled_from(["f", "g", "h"]).map(Gen),
    )
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: Seq(*p)),
            st.tuples(kids, kids).map(lambda p: Tensor(*p)),
            kids.map(Dom),
            kids.map(Mass),
        ),
        max_leaves=12,
    )


@given(terms())
@settings(max_examples=200)
def test_print_parse_round_trip_random(t):
    assert parse_term(print_term(t)) == t


# term files


def test_term_file_bare_term_is_main():
    assert parse_term_file("f ; g") == {"main": parse_term("f ; g")}


def test_term_file_let_bindings():
    text = """
# two bindings
let lhs = dom(f) ; f
let rhs = f
"""
    out = parse_term_file(text)
    assert set(out) == {"lhs", "rhs"}
    assert out["lhs"] == Seq(Dom(Gen("f")), Gen("f"))


def test_term_file_errors():
    with pytest.raises(ParseError, match="duplicate"):
        parse_term_file("let a = f\nlet a = g")
    with pytest.raises(ParseError, match="reserved"):
        parse_term_file("let dom = f")
    with pytest.raises(ParseError, match="empty"):
        parse_term_file("  # only a comment\n")


BARE_TERM_ERRORS = [
    ("f ;; g", "1:4: expected a term, found ';'"),
    ("f ;\n  * g", "2:3: expected a term, found '*'"),
    ("f @ g", "1:3: unexpected character '@'"),
    ("(f ; g", "1:7: expected ')', found 'end of input'"),
    ("f g", "1:3: trailing input starting at 'g'"),
    ("swap[A]", "1:7: expected ';', found ']'"),
    ("dom f", "1:5: expected '(', found 'f'"),
]
LET_FILE_ERRORS = [
    ("let a = f ;; g", "1:12: expected a term, found ';'"),
    ("let a = f\n  g", "2:3: expected 'let', found 'g'"),
    ("let a = (f", "1:11: expected ')', found 'end of input'"),
    ("let a f", "1:7: expected '=', found 'f'"),
    ("let = f", "1:5: expected 'name', found '='"),
    ("\n\nlet a = f @ g", "3:11: unexpected character '@'"),
]


@pytest.mark.parametrize("text, message", BARE_TERM_ERRORS)
def test_a_bare_term_file_fails_as_its_term_does(text, message):
    for parse in (parse_term, parse_term_file):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("text, message", LET_FILE_ERRORS)
def test_let_file_errors_keep_their_location(text, message):
    with pytest.raises(ParseError) as exc:
        parse_term_file(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text", ["f ; g", "let a = f\nlet b = g", "f g", "let a = f g", "  # only a comment\n"]
)
def test_a_term_file_is_tokenized_once(monkeypatch, text):
    calls = []
    tokenize = diagram.tokenize

    def counting(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(diagram, "tokenize", counting)
    try:
        parse_term_file(text)
    except ParseError:
        pass
    assert calls == [text]


# typechecking


def test_typecheck_boundaries():
    assert typecheck_term(parse_term("f ; g"), SIG) == (("A",), ("C",))
    assert typecheck_term(parse_term("f * g"), SIG) == (("A", "B"), ("B", "C"))
    assert typecheck_term(parse_term("dom(f)"), SIG) == (("A",), ("A",))
    assert typecheck_term(parse_term("mass(f)"), SIG) == (("A",), ())
    assert typecheck_term(parse_term("copy[A]"), SIG) == (("A",), ("A", "A"))
    assert typecheck_term(parse_term("swap[A;B]"), SIG) == (("A", "B"), ("B", "A"))


def test_typecheck_mismatch_names_both_words():
    with pytest.raises(TypecheckError) as exc:
        typecheck_term(parse_term("f ; f"), SIG)
    msg = str(exc.value)
    assert "[B]" in msg and "[A]" in msg


@pytest.mark.parametrize("term", [42, "f", Seq(Gen("f"), None), Dom(("f",))])
def test_print_and_typecheck_refuse_what_is_not_a_term(term):
    with pytest.raises(TypeError, match="^not a term: "):
        print_term(term)
    with pytest.raises(TypeError, match="^not a term: "):
        typecheck_term(term, SIG)


def test_typecheck_unknown_generator_and_sort():
    with pytest.raises(UnknownGeneratorError):
        typecheck_term(parse_term("nope"), SIG)
    assert issubclass(UnknownGeneratorError, TypecheckError)
    with pytest.raises(TypecheckError):
        typecheck_term(parse_term("id[Z]"), SIG)


# evaluation


def test_evaluate_structural_atoms():
    A = INTERP.word(("A",))
    B = INTERP.word(("B",))
    assert evaluate_term(parse_term("id[A]"), INTERP) == wrel_id(NAT, A)
    assert evaluate_term(parse_term("copy[A]"), INTERP) == wrel_copy(NAT, A)
    assert evaluate_term(parse_term("del[A,B]"), INTERP) == wrel_del(NAT, A + B)
    assert evaluate_term(parse_term("swap[A;B]"), INTERP) == wrel_swap(NAT, A, B)
    assert evaluate_term(parse_term("f"), INTERP) == INTERP.generators["f"]


def test_evaluate_is_functorial():
    f = INTERP.generators["f"]
    g = INTERP.generators["g"]
    assert evaluate_term(parse_term("f ; g"), INTERP) == wrel_compose(NAT, f, g)
    assert evaluate_term(parse_term("f * g"), INTERP) == wrel_tensor(NAT, f, g)
    assert evaluate_term(parse_term("dom(f)"), INTERP) == wrel_dom(NAT, f)
    assert evaluate_term(parse_term("mass(f)"), INTERP) == wrel_mass(NAT, f)


def test_evaluate_rejects_ill_typed():
    with pytest.raises(TypecheckError):
        evaluate_term(parse_term("f ; f"), INTERP)


def test_dom_then_f_differs_over_nat_here():
    lhs = evaluate_term(parse_term("dom(f) ; f"), INTERP)
    rhs = evaluate_term(parse_term("f"), INTERP)
    # row a0 has weight 2, so dom(f);f scales it to 4
    assert lhs.value(NAT, (0,), (0,)) == 4
    assert rhs.value(NAT, (0,), (0,)) == 2


def test_check_term_equality_pass_and_witness():
    rep = check_term_equality(
        parse_term("copy[A] ; (id[A] * del[A])"), parse_term("id[A]"), INTERP
    )
    assert rep.passed and rep.status == "exhaustive_pass"
    assert rep.checks_performed == 2

    rep = check_term_equality(parse_term("dom(f) ; f"), parse_term("f"), INTERP)
    assert not rep.passed
    assert rep.witness == {"row": ["a0"], "col": ["0"], "left": "4", "right": "2"}


def test_check_term_equality_boundary_mismatch():
    with pytest.raises(TypecheckError, match="different boundaries"):
        check_term_equality(parse_term("f"), parse_term("g"), INTERP)


def test_check_term_equality_builds_shared_sub_terms_once(monkeypatch):
    # P ; L ; S against P ; R ; S, where L = R is copy-cocomm: P = dom(f) ; f
    # and S = g * g are built once, though each side holds both
    p, s = "(dom(f) ; f)", "(g * g)"
    t1 = parse_term(f"{p} ; (copy[B] ; swap[B;B]) ; {s}")
    t2 = parse_term(f"{p} ; copy[B] ; {s}")
    built = []
    for name in ("wrel_compose", "wrel_tensor"):
        def counted(sr, f, g, _name=name, _op=getattr(diagram, name)):
            built.append((_name, f, g))
            return _op(sr, f, g)

        monkeypatch.setattr(diagram, name, counted)
    separate = [evaluate_term(t1, INTERP), evaluate_term(t2, INTERP)]
    calls_separate = len(built)
    built.clear()
    rep = check_term_equality(t1, t2, INTERP)
    f, g = INTERP.generators["f"], INTERP.generators["g"]
    dom_f = wrel_dom(NAT, f)
    assert [c[0] for c in built].count("wrel_tensor") == 1
    assert [(c[1], c[2]) for c in built].count((dom_f, f)) == 1
    assert [(c[1], c[2]) for c in built if c[0] == "wrel_tensor"] == [(g, g)]
    assert len(built) == calls_separate - 2

    # the report is the one two separate evaluations give
    left, right = separate
    keys = {(x, y) for arrow in separate for x, h in arrow.rows for y, _ in h.entries}
    assert wrel_eq(left, right)
    assert rep.passed and rep.status == "exhaustive_pass"
    assert rep.checks_performed == len(keys)


def test_check_term_equality_witness_matches_separate_evaluations():
    # the sides share g * g and differ only in P: dom(f) ; f scales row a0
    t1 = parse_term("(dom(f) ; f) ; copy[B] ; (g * g)")
    t2 = parse_term("f ; copy[B] ; (g * g)")
    rep = check_term_equality(t1, t2, INTERP)
    left, right = evaluate_term(t1, INTERP), evaluate_term(t2, INTERP)
    keys = sorted({(x, y) for arrow in (left, right) for x, h in arrow.rows for y, _ in h.entries})
    first = next(
        i for i, (x, y) in enumerate(keys) if left.value(NAT, x, y) != right.value(NAT, x, y)
    )
    x, y = keys[first]
    assert not rep.passed
    assert rep.checks_performed == first + 1
    assert rep.witness == {
        "row": ["a0"],
        "col": [str(c) for c in y],
        "left": str(left.value(NAT, x, y)),
        "right": str(right.value(NAT, x, y)),
    }


def test_evaluate_term_builds_a_repeated_sub_term_once(monkeypatch):
    calls = []

    def counted(sr, f, g, _op=diagram.wrel_compose):
        calls.append((f, g))
        return _op(sr, f, g)

    monkeypatch.setattr(diagram, "wrel_compose", counted)
    arrow = evaluate_term(parse_term("(f ; g) * (f ; g)"), INTERP)
    fg = wrel_compose(NAT, INTERP.generators["f"], INTERP.generators["g"])
    assert len(calls) == 1
    assert arrow == wrel_tensor(NAT, fg, fg)


def _chain(levels: int):
    """A left-nested `id[A] ; id[A] ; ...` syntax tree `levels` levels high."""
    term = Id(("A",))
    for _ in range(levels - 1):
        term = Seq(term, Id(("A",)))
    return term


def _dom_tower(levels: int):
    """`dom(dom(... f))`, `levels` levels high."""
    term = Gen("f")
    for _ in range(levels - 1):
        term = Dom(term)
    return term


@pytest.mark.parametrize("shape", [_chain, _dom_tower])
def test_too_deep_syntax_trees_raise_a_diagram_error(shape):
    # trees built in Python never pass through the parser's depth limit
    deep, shallow = shape(1200), shape(1)
    limit = f"more than {diagram.MAX_TERM_DEPTH} levels"
    with pytest.raises(diagram.TermDepthError, match=limit):
        evaluate_term(deep, INTERP)
    for t1, t2 in ((deep, shallow), (shallow, deep)):
        with pytest.raises(diagram.TermDepthError, match=limit):
            check_term_equality(t1, t2, INTERP)
    assert issubclass(diagram.TermDepthError, diagram.DiagramError)


def test_syntax_trees_at_the_depth_limit_evaluate():
    chain = _chain(diagram.MAX_TERM_DEPTH)
    assert evaluate_term(chain, INTERP) == wrel_id(NAT, INTERP.word(("A",)))
    assert check_term_equality(chain, Id(("A",)), INTERP).passed
    tower = _dom_tower(diagram.MAX_TERM_DEPTH)
    assert evaluate_term(tower, INTERP) == evaluate_term(Dom(Gen("f")), INTERP)


def random_interpretation(sr_name, seed, a=2, b=2):
    """Two sorts and three generators with sampled entry tables."""
    sr = load_semiring(sr_name)
    from gsrel import FinSet

    A = (FinSet("A", a),)
    B = (FinSet("B", b),)
    arrows = {
        "f": sample_arrows(sr, A, B, "M", seed=seed, n=1, tag="f")[0],
        "g": sample_arrows(sr, B, A, "M", seed=seed, n=1, tag="g")[0],
        "h": sample_arrows(sr, A + B, (), "M", seed=seed, n=1, tag="h")[0],
    }
    doc = {
        "semiring": sr_name,
        "sorts": {"A": a, "B": b},
        "generators": {
            name: {
                "dom": ["A"] if name == "f" else (["B"] if name == "g" else ["A", "B"]),
                "cod": ["B"] if name == "f" else (["A"] if name == "g" else []),
                "entries": wrel_to_doc(sr, arrow)["entries"],
            }
            for name, arrow in arrows.items()
        },
    }
    return load_interpretation(doc)


def test_gsm_axioms_hold_in_every_catalog_semiring():
    for sr_name in ("bool", "nat", "q+", "fuzzy-max-min", "fuzzy-max-times", "gf(2)"):
        interp = random_interpretation(sr_name, seed=0)
        for name, lhs, rhs in gsm_axiom_pairs("A", "B"):
            rep = check_term_equality(parse_term(lhs), parse_term(rhs), interp, law=name)
            assert rep.passed, (sr_name, name, rep.witness)


# the law table

GSM_AXIOM_PAIRS = [
    ("copy-coassoc", "copy[A] ; (copy[A] * id[A])", "copy[A] ; (id[A] * copy[A])"),
    ("copy-cocomm", "copy[A] ; swap[A;A]", "copy[A]"),
    ("copy-counit-right", "copy[A] ; (id[A] * del[A])", "id[A]"),
    ("copy-counit-left", "copy[A] ; (del[A] * id[A])", "id[A]"),
    ("copy-tensor-mult", "copy[A,B]", "(copy[A] * copy[B]) ; (id[A] * swap[A;B] * id[B])"),
    ("del-tensor-mult", "del[A,B]", "del[A] * del[B]"),
    ("unit-object", "copy[] * del[]", "id[]"),
]


def test_gsm_axiom_pairs_print_the_seven_schemas():
    assert gsm_axiom_pairs("A", "B") == GSM_AXIOM_PAIRS
    assert gsm_axiom_pairs("B", "A")[4] == (
        "copy-tensor-mult", "copy[B,A]", "(copy[B] * copy[A]) ; (id[B] * swap[B;A] * id[A])"
    )


def test_law_table_sides_typecheck_to_one_boundary():
    for law, generators, pairs in diagram.LAW_TABLE:
        sig = Signature(("A", "B", "X", "Y"), generators)
        assert pairs, law
        for lhs, rhs in pairs:
            left = typecheck_term(parse_term(lhs), sig)
            assert left == typecheck_term(parse_term(rhs), sig), (law, lhs, rhs)


def test_law_table_ids_are_report_rows(catalog_suite):
    """Every row is a row of the catalog report, but the per-arrow kleisli/
    equations, which decide the Kleisli flags and are reports of
    classify_kleisli."""
    table = {law for law, _generators, _pairs in diagram.LAW_TABLE}
    assert len(table) == len(diagram.LAW_TABLE)
    flags = classify_kleisli("M", "bool", sizes=(0, 1)).reports.values()
    kleisli = {report.law for report in flags}
    assert table - {entry.law for entry in catalog_suite} == kleisli


# interpretation loading errors


def test_load_interpretation_errors():
    with pytest.raises(InterpFormatError, match="missing field"):
        load_interpretation({"semiring": "bool", "sorts": {}})
    bad = {
        "semiring": "bool",
        "sorts": {"A": {"wrong": 1}},
        "generators": {},
    }
    with pytest.raises(InterpFormatError, match="bad sort spec"):
        load_interpretation(bad)
    bad = {
        "semiring": "bool",
        "sorts": {"A": 2},
        "generators": {"f": {"dom": ["A"], "cod": ["Z"]}},
    }
    with pytest.raises(InterpFormatError, match="undeclared sort"):
        load_interpretation(bad)
    bad = {
        "semiring": "bool",
        "sorts": {"A": 2},
        "generators": {"f": {"dom": ["A"]}},
    }
    with pytest.raises(InterpFormatError, match="needs 'dom' and 'cod'"):
        load_interpretation(bad)
    bad = {
        "semiring": "bool",
        "sorts": {"A": 2},
        "generators": {"f": {"dom": ["A"], "cod": ["A"], "entries": [[["9"], ["0"], "1"]]}},
    }
    with pytest.raises(InterpFormatError, match="generator 'f'"):
        load_interpretation(bad)


def test_interpretation_refuses_a_generator_off_its_sorts_and_an_unknown_sort():
    f = INTERP.generators["f"]
    with pytest.raises(
        InterpFormatError, match=r"^generator 'f': arrow boundary does not match declared sorts$"
    ):
        Interpretation(NAT, INTERP.sorts, {"f": f}, {"f": (("B",), ("B",))})
    with pytest.raises(TypecheckError, match=r"^unknown sort 'Z'$"):
        Interpretation(NAT, INTERP.sorts, {"f": f}, {"f": (("A",), ("Z",))})
    with pytest.raises(TypecheckError, match=r"^unknown sort 'Z'$"):
        INTERP.word(("A", "Z", "Y"))


def test_labels_must_be_distinct():
    bad = {
        "semiring": "bool",
        "sorts": {"A": {"size": 2, "labels": ["x", "x"]}},
        "generators": {},
    }
    with pytest.raises(InterpFormatError, match="not distinct"):
        load_interpretation(bad)
