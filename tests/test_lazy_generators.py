"""An interpretation checks every generator but builds only those read.

load_interpretation runs the checks of wrel_from_doc on every entry of
every generator, so a malformed generator is refused, with its message and
exit code 2, even where no term names it.  The arrow of a generator is
built the first time evaluation reads it, and only then.
"""
import json

import pytest

import gsrel.diagram as diagram
from gsrel import (
    InterpFormatError,
    check_term_equality,
    evaluate_term,
    finset_to_doc,
    load_interpretation,
    parse_term,
    wrel_from_doc,
    wrel_make,
)
from gsrel.cli import main


def _doc(unused_entries=None):
    """Four generators over nat; the query terms below name f and g only."""
    generators = {
        name: {"dom": ["A"], "cod": ["B"], "entries": [[["a0"], ["0"], "2"], [["a1"], ["1"], w]]}
        for name, w in (("f", "1"), ("g", "3"), ("h", "4"), ("k", "5"))
    }
    if unused_entries is not None:
        generators["k"]["entries"] = [[["a1"], ["0"], "1"], *unused_entries]
    return {
        "semiring": "nat",
        "sorts": {"A": {"size": 2, "labels": ["a0", "a1"]}, "B": 2},
        "generators": generators,
    }


# one entry of each malformed class, planted in k, and the message the
# checks give it
MALFORMED = {
    "not-a-3-list": ([[["a0"], ["0"]]], "bad entry [['a0'], ['0']]"),
    "labels-not-lists": ([["a0", ["0"], "1"]], "entry labels must be lists: ['a0', ['0'], '1']"),
    "wrong-arity": (
        [[["a0", "a1"], ["0"], "1"]],
        "entry shape does not match the boundary words: [['a0', 'a1'], ['0'], '1']",
    ),
    "value-not-a-string": ([[["a0"], ["0"], 1]], "value label 1 is not a string"),
    "unknown-label": ([[["a2"], ["0"], "1"]], "A: unknown label 'a2'"),
    "unparseable-value": ([[["a0"], ["0"], "x"]], "invalid literal for int() with base 10: 'x'"),
    "duplicate-entry": (
        [[["a0"], ["1"], "1"], [["a0"], ["1"], "2"]],
        "duplicate entry at ['a0'] ['1']",
    ),
}
CASES = [pytest.param(entries, f"generator 'k': {message}", id=name)
         for name, (entries, message) in MALFORMED.items()]


@pytest.mark.parametrize("entries, message", CASES)
def test_an_unused_malformed_generator_fails_the_load(entries, message):
    with pytest.raises(InterpFormatError) as raised:
        load_interpretation(_doc(entries))
    assert str(raised.value) == message


@pytest.mark.parametrize("command", ["eval", "eq"])
@pytest.mark.parametrize("entries, message", CASES)
def test_an_unused_malformed_generator_exits_2(tmp_path, capsys, command, entries, message):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps(_doc(entries)))
    left, right = tmp_path / "left.gsd", tmp_path / "right.gsd"
    left.write_text("f ; copy[B]\n")
    right.write_text("copy[A] ; (f * f)\n")
    files = [left] if command == "eval" else [left, right]
    assert main([command, *map(str, files), str(interp)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.fixture
def built(monkeypatch):
    """The checked documents built into arrows, in order."""
    calls = []

    def counted(sr, checked, _build=diagram._build_arrow):
        calls.append(checked)
        return _build(sr, checked)

    monkeypatch.setattr(diagram, "_build_arrow", counted)
    return calls


def test_eval_builds_only_the_generator_it_names(built):
    interp = load_interpretation(_doc())
    assert built == []
    arrow = evaluate_term(parse_term("dom(f) ; f ; id[B]"), interp)
    assert [c.rows for c in built] == [{(0,): {(0,): 2}, (1,): {(1,): 1}}]
    # a second read, and a second query on the interpretation, build nothing
    f = interp.generators["f"]
    assert interp.generators["f"] is f
    evaluate_term(parse_term("f * f"), interp)
    assert len(built) == 1
    assert arrow == wrel_make(interp.semiring, f.dom, f.cod, {(0,): {(0,): 4}, (1,): {(1,): 1}})


def test_eq_builds_a_shared_generator_once(built):
    interp = load_interpretation(_doc())
    report = check_term_equality(parse_term("f ; id[B]"), parse_term("id[A] ; f"), interp)
    assert report.passed and report.checks_performed == 2
    assert len(built) == 1
    # f is built already; g is new
    assert not check_term_equality(parse_term("f"), parse_term("g"), interp).passed
    assert len(built) == 2


def test_the_cli_builds_only_the_named_generator(tmp_path, capsys, built):
    interp, term = tmp_path / "interp.json", tmp_path / "t.gsd"
    interp.write_text(json.dumps(_doc()))
    term.write_text("g ; del[B]\n")
    assert main(["eval", str(term), str(interp), "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["arrow"]["entries"] == [
        [["a0"], [], "2"], [["a1"], [], "3"]
    ]
    assert len(built) == 1


def test_every_generator_is_still_there_to_read():
    doc = _doc()
    interp = load_interpretation(doc)
    assert list(interp.generators) == ["f", "g", "h", "k"]
    for name, arrow in interp.generators.items():
        body = doc["generators"][name]
        assert arrow == wrel_from_doc(interp.semiring, {
            "dom": [finset_to_doc(interp.sorts[s]) for s in body["dom"]],
            "cod": [finset_to_doc(interp.sorts[s]) for s in body["cod"]],
            "entries": body["entries"],
        })


# The checking pass memoizes label tuples and value labels; a warm memo must
# not change what an entry is refused with.  Each planted entry follows two
# valid entries that share its row labels, column labels and value label.


def _warm_doc(name, planted):
    doc = _doc()
    shared = [[["a0"], ["1"], "1"], [["a1"], ["0"], "1"]]
    if name == "duplicate-entry":
        shared = [[["a0"], ["0"], "1"], [["a1"], ["1"], "1"]]
    doc["generators"]["k"]["entries"] = shared + planted
    return doc


@pytest.mark.parametrize("name", MALFORMED)
def test_a_warm_memo_keeps_every_message(name):
    planted, message = MALFORMED[name]
    with pytest.raises(InterpFormatError) as raised:
        load_interpretation(_warm_doc(name, planted))
    assert str(raised.value) == f"generator 'k': {message}"


class Label(str):
    pass


@pytest.mark.parametrize(
    "col, message",
    [
        ([0], "B: label 0 is not a string"),
        ([True], "B: label True is not a string"),
        ([["0"]], "B: label ['0'] is not a string"),
    ],
    ids=["int-beside-string", "true", "nested-list"],
)
def test_a_warm_memo_refuses_a_label_that_is_not_a_string(col, message):
    with pytest.raises(InterpFormatError) as raised:
        load_interpretation(_warm_doc("label", [[["a0"], col, "1"]]))
    assert str(raised.value) == f"generator 'k': {message}"


def test_a_warm_memo_takes_a_str_subclass_label_as_index_of_does():
    sorts = load_interpretation(_doc()).sorts
    assert sorts["A"].index_of(Label("a1")) == 1 and sorts["B"].index_of(Label("1")) == 1
    entry = [[Label("a1")], [Label("1")], Label("7")]
    cold = _doc()
    cold["generators"]["k"]["entries"] = [entry]
    for doc in (cold, _warm_doc("label", [entry])):
        interp = load_interpretation(doc)
        assert interp.generators["k"].value(interp.semiring, (1,), (1,)) == 7
    # in a cell a warm entry filled, it is that entry's duplicate
    with pytest.raises(InterpFormatError) as raised:
        load_interpretation(_warm_doc("label", [[[Label("a1")], [Label("0")], "2"]]))
    assert str(raised.value) == "generator 'k': duplicate entry at ['a1'] ['0']"
