"""The bytes the CLI writes: help and usage texts are those of the parser
with every subcommand, and --format structured writes exactly
json.dumps(doc, indent=2)."""
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from gsrel import cli
from gsrel.cli import _indented_json, build_parser, main

COMMANDS = ("check-semiring", "classify", "eval", "eq", "taxonomy")
# the positionals each command takes, filled with placeholder names
POSITIONALS = {
    "check-semiring": ["nat"],
    "classify": ["nat"],
    "eval": ["t.gsd", "i.json"],
    "eq": ["l.gsd", "r.gsd", "i.json"],
    "taxonomy": [],
}
FULL_USAGE = "usage: gsrel [-h] {check-semiring,classify,eval,eq,taxonomy} ..."


def _outcome(parse, argv, capsys):
    """The exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


HELP_AND_USAGE = [
    [],
    ["--help"],
    ["-h"],
    ["no-such-command"],
    ["--format", "structured"],
    *([cmd, "--help"] for cmd in COMMANDS),
    *([cmd, *POSITIONALS[cmd][:-1]] for cmd in COMMANDS if POSITIONALS[cmd]),
    *([cmd, *POSITIONALS[cmd], "--format", "xml"] for cmd in COMMANDS),
    *([cmd, *POSITIONALS[cmd], "extra"] for cmd in COMMANDS),
    ["eval", "t.gsd", "i.json", "--budget", "3"],
    ["eq", "l.gsd", "--left-term"],
]


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=" ".join)
def test_help_and_usage_are_the_full_trees(argv, capsys):
    expected = _outcome(build_parser().parse_args, argv, capsys)
    assert _outcome(main, argv, capsys) == expected
    assert expected[1] or expected[2]


@pytest.mark.parametrize("cmd", COMMANDS)
def test_an_extra_positional_lists_every_command(cmd, capsys):
    code, out, err = _outcome(main, [cmd, *POSITIONALS[cmd], "extra"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == FULL_USAGE
    assert err.splitlines()[-1] == "gsrel: error: unrecognized arguments: extra"


def test_a_run_builds_only_its_own_subparser(monkeypatch, capsys):
    built = []

    def recorded(command=None, _build=cli.build_parser):
        built.append(command)
        return _build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    assert main(["check-semiring", "bool", "--budget", "3"]) == 0
    assert built == ["check-semiring"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the emitter

TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\n\t\x00\x1f\x7f'),
    max_size=8,
)
SCALARS = (
    st.none()
    | st.booleans()
    | TEXT
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64), min_value=-(2**200))
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


def _wrap(value, keys):
    """value nested once per key: a list for None, else a dict under it."""
    for key in keys:
        value = [value] if key is None else {key: value}
    return value


DEEP_VALUES = st.builds(_wrap, VALUES, st.lists(st.none() | TEXT, min_size=4, max_size=6))


@settings(max_examples=300, deadline=None)
@given(DEEP_VALUES)
@example([[[[[]]]], {}, "", 0, -1, 2**64, True, False, None, {"": {}}])
@example({"é\"\\\x01\U0001f600": [" ", "a\nb"], "k": [1, "s", [2]]})
def test_the_emitter_writes_json_dumps_indent_2(value):
    assert _indented_json(value) == json.dumps(value, indent=2)


# values the documents never hold go to json.dumps itself
@pytest.mark.parametrize(
    "value",
    [
        [1.5, float("nan"), float("-inf")],
        {"a": (1, "b", (2,))},
        {1: "int key", None: [], True: {}, 2.5: "x"},
        [["a", 1], ["b", ["c"]]],
    ],
)
def test_other_values_go_to_json_dumps(value):
    assert _indented_json([[value]]) == json.dumps([[value]], indent=2)


def test_an_int_too_long_to_print_raises_on_both_sides():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter prints ints of any length")
    value = {"a": [10 ** (limit + 1)]}
    with pytest.raises(ValueError) as ours:
        _indented_json(value)
    with pytest.raises(ValueError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


@pytest.fixture(scope="module")
def query_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("bytes")
    (d / "domf.gsd").write_text("let main = dom(f) ; f\n")
    (d / "f.gsd").write_text("let main = f\n")
    for name, weight in (("bool", "1"), ("nat", "2")):
        interp = {
            "semiring": name,
            "sorts": {
                "A": {"size": 2, "labels": ["a", "ä\"\\"]},
                "C": {"size": 3, "labels": ["c", "d", "é"]},
            },
            "generators": {
                "f": {
                    "dom": ["A"],
                    "cod": ["C"],
                    "entries": [
                        [["a"], ["c"], weight],
                        [["a"], ["é"], weight],
                        [["ä\"\\"], ["d"], "1"],
                    ],
                }
            },
        }
        (d / f"interp_{name}.json").write_text(json.dumps(interp))
    return d


# argvs whose file arguments are names in query_files; eq exits 1 when unequal
DOCUMENT_RUNS = {
    "check-semiring nat": (["check-semiring", "nat"], 0),
    "check-semiring gf(2)": (["check-semiring", "gf(2)"], 0),
    "classify": (["classify", "gf(2)", "--variant", "Md", "--sizes", "0,1"], 0),
    "eval": (["eval", "domf.gsd", "interp_nat.json"], 0),
    "eq equal": (["eq", "domf.gsd", "f.gsd", "interp_bool.json"], 0),
    "eq unequal": (["eq", "domf.gsd", "f.gsd", "interp_nat.json"], 1),
}


@pytest.mark.parametrize("name", DOCUMENT_RUNS)
def test_structured_output_is_json_dumps_of_the_document(name, query_files, monkeypatch, capsys):
    docs = []

    def recorded(doc, *pad):
        if not pad:  # the whole document, not a nested value
            docs.append(doc)
        return _indented_json(doc, *pad)

    monkeypatch.setattr(cli, "_indented_json", recorded)
    argv, code = DOCUMENT_RUNS[name]
    argv = [str(query_files / a) if a.endswith((".gsd", ".json")) else a for a in argv]
    assert main([*argv, "--format", "structured"]) == code
    [doc] = docs
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
