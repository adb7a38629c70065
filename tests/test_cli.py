"""CLI surface: exit codes, output formats, determinism."""
import hashlib
import json
import sys

import pytest

from gsrel import (
    MonadOps,
    entries_to_jsonl,
    run_theorem_suite,
    wm_eta,
    wm_make,
    wm_psi,
    wm_pushforward,
)
from gsrel import cli
from gsrel.cli import main
from gsrel.diagram import MAX_TERM_DEPTH

BROKEN_TABLE = {
    "name": "broken",
    "elements": ["0", "1", "2"],
    "zero": "0",
    "one": "1",
    "plus": [["0", "1", "2"], ["1", "2", "0"], ["2", "1", "0"]],
    "times": [["0", "0", "0"], ["0", "1", "2"], ["0", "2", "1"]],
}


def mu_drop_outer(sr, H):
    out = {}
    for h, _w in H.entries:
        for k, v in h.entries:
            out[k] = sr.add(out.get(k, sr.zero), v)
    return wm_make(sr, out)


BROKEN_OPS = MonadOps(wm_eta, mu_drop_outer, wm_psi, wm_pushforward)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "domf.gsd").write_text("let main = dom(f) ; f\n")
    (d / "f.gsd").write_text("let main = f\n")
    (d / "two.gsd").write_text("let alpha = f\nlet beta = dom(f)\n")
    (d / "one.gsd").write_text("let alpha = f\n")
    (d / "counit.gsd").write_text("copy[A] ; (id[A] * del[A])\n")
    (d / "bad.gsd").write_text("main = f\n")
    for name, weight in (("bool", "1"), ("nat", "2")):
        interp = {
            "semiring": name,
            "sorts": {"A": {"size": 2, "labels": ["a", "b"]}, "C": {"size": 2, "labels": ["c", "d"]}},
            "generators": {
                "f": {"dom": ["A"], "cod": ["C"], "entries": [[["a"], ["c"], weight]]}
            },
        }
        (d / f"interp_{name}.json").write_text(json.dumps(interp))
    (d / "broken_table.json").write_text(json.dumps(BROKEN_TABLE))
    (d / "not_json.json").write_text("{nope")
    return d


def run(argv, **kw):
    return main([str(a) for a in argv], **kw)


# check-semiring


def test_check_semiring_bool_passes(files, capsys):
    assert run(["check-semiring", "bool"]) == 0
    out = capsys.readouterr().out
    assert "add-assoc" in out and "exhaustive_pass" in out


def test_check_semiring_nat_profile_counterexamples_do_not_fail(files, capsys):
    assert run(["check-semiring", "nat"]) == 0
    out = capsys.readouterr().out
    assert "mult_idempotent" in out


def test_check_semiring_structured(files, capsys):
    assert run(["check-semiring", "q+", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["semiring"] == "nonneg-rational"
    assert {r["law"] for r in doc["laws"]} >= {"semiring/add-assoc", "semiring/annihilation"}
    assert doc["profile"]["semifield"]["value"] is True


def test_check_semiring_broken_table_exits_1(files, capsys):
    assert run(["check-semiring", files / "broken_table.json"]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_check_semiring_bad_inputs_exit_2(files, capsys):
    assert run(["check-semiring", "no-such-semiring"]) == 2
    assert run(["check-semiring", files / "not_json.json"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


# a prime whose trial division does not finish, and a modulus int() refuses
@pytest.mark.parametrize("modulus", ["1009", "1000000000000000003", "9" * 5000])
def test_gf_modulus_above_the_cap_exits_2(modulus, capsys):
    assert run(["check-semiring", f"gf({modulus})"]) == 2
    assert capsys.readouterr().err == "error: gf(p): modulus above 1000 is not supported\n"


def test_check_semiring_finite_profile_exhaustive_at_small_budget(files, capsys):
    assert run(["check-semiring", "bool", "--budget", "3", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {p["status"] for p in doc["profile"].values()} == {"exhaustive_pass"}
    assert run(["check-semiring", "bool", "--budget", "3"]) == 0
    assert "sampled_pass]" not in capsys.readouterr().out


def _latin1(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("let main = f \xe9\n".encode("latin-1"))
    return path


def _table(tmp_path, field, value):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({**BROKEN_TABLE, field: value}))
    return path


# each builds an argv from the fixture directory and a scratch directory
BAD_INPUTS = {
    "semiring-file-is-a-directory": lambda d, t: ["check-semiring", d],
    "term-file-not-utf8": lambda d, t: ["eval", _latin1(t), d / "interp_bool.json"],
    "interpretation-not-utf8": lambda d, t: ["eval", d / "f.gsd", _latin1(t)],
    "table-elements-not-a-list": lambda d, t: ["check-semiring", _table(t, "elements", 5)],
    "table-plus-row-not-a-list": lambda d, t: ["check-semiring", _table(t, "plus", [5, 5, 5])],
    "table-zero-not-a-label": lambda d, t: ["check-semiring", _table(t, "zero", ["a"])],
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_unreadable_or_malformed_input_files_exit_2(files, tmp_path, capsys, name):
    assert run(BAD_INPUTS[name](files, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# each builds an argv whose --out path cannot be written, and its error
BAD_OUTPUTS = {
    "check-semiring-out-is-a-directory": lambda t: (
        ["check-semiring", "bool", "--out", t], f"{t}: Is a directory"
    ),
    "taxonomy-out-in-missing-directory": lambda t: (
        ["taxonomy", "--semiring", "bool", "--sizes", "1", "--out", t / "missing" / "x.jsonl"],
        f"{t / 'missing' / 'x.jsonl'}: No such file or directory",
    ),
}


@pytest.mark.parametrize("name", BAD_OUTPUTS)
def test_unwritable_out_path_exits_2(tmp_path, capsys, name):
    argv, error = BAD_OUTPUTS[name](tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


# classify


def test_classify_bool_m(files, capsys):
    assert run(["classify", "bool", "--variant", "M"]) == 0
    out = capsys.readouterr().out
    assert "domain_preserving" in out and "markov" in out


def test_classify_mi_nat_disagreement_exits_1(files, capsys):
    assert run(["classify", "nat", "--variant", "Mi"]) == 1
    out = capsys.readouterr().out
    assert "ORACLE DISAGREEMENT" in out
    assert "not well-posed" in out


def test_classify_structured_fields(files, capsys):
    assert run(["classify", "q+", "--variant", "Mi", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "Mi"
    assert doc["monad_flags"]["weakly_affine"]["value"] is True
    assert doc["kleisli_flags"]["weakly_markov"] is True
    assert doc["oracle_disagreements"] == []


def test_classify_bad_variant_exits_2(files, capsys):
    assert run(["classify", "bool", "--variant", "Mz"]) == 2
    assert capsys.readouterr() == ("", "error: unknown variant 'Mz'\n")


def test_classify_repeated_variant_runs_once(capsys):
    argv = ["classify", "bool", "--sizes", "0,1", "--format", "structured"]
    assert run(argv + ["--variant", "Md"]) == 0
    once = capsys.readouterr()
    assert json.loads(once.out)["variant"] == "Md"
    assert run(argv + ["--variant", "Md", "--variant", "Md"]) == 0
    assert capsys.readouterr() == once


def test_classify_two_variants_exit_2(capsys):
    assert run(["classify", "bool", "--variant", "M", "--variant", "Md", "--sizes", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: classify takes one --variant; got M, Md\n"


# eval


def test_eval_human(files, capsys):
    assert run(["eval", files / "counit.gsd", files / "interp_bool.json"]) == 0
    out = capsys.readouterr().out
    assert "(a) -> (a)" in out and "(b) -> (b)" in out


def test_eval_structured_round_trips(files, capsys):
    assert run([
        "eval", files / "f.gsd", files / "interp_nat.json", "--format", "structured",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["semiring"] == "nat"
    assert doc["arrow"]["entries"] == [[["a"], ["c"], "2"]]


def test_eval_term_selection(files, capsys):
    assert run(["eval", files / "two.gsd", files / "interp_bool.json", "--term", "beta"]) == 0
    assert run(["eval", files / "two.gsd", files / "interp_bool.json"]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err and "beta" in err  # lists what is available
    assert run(["eval", files / "two.gsd", files / "interp_bool.json", "--term", "gamma"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {files / 'two.gsd'}: no term named 'gamma'; available: alpha, beta\n"
    # a file whose one binding is not main evaluates that binding
    assert run(["eval", files / "one.gsd", files / "interp_bool.json"]) == 0
    assert "(a) -> (c)" in capsys.readouterr().out


def test_eval_human_prints_a_zero_arrow(files, tmp_path, capsys):
    path = tmp_path / "interp.json"
    path.write_text(json.dumps(_one_entry_interp("bool", [])))
    assert run(["eval", files / "f.gsd", path]) == 0
    assert capsys.readouterr() == ("term: f\nboundary: [A] -> [A]\n  (zero arrow)\n", "")


def test_eval_parse_error_exits_2_with_location(files, capsys):
    assert run(["eval", files / "bad.gsd", files / "interp_bool.json"]) == 2
    assert "1:" in capsys.readouterr().err


def _one_entry_interp(semiring, entries):
    """One sort A of size 1 and one generator f: A -> A with these entries."""
    return {
        "semiring": semiring,
        "sorts": {"A": 1},
        "generators": {"f": {"dom": ["A"], "cod": ["A"], "entries": entries}},
    }


FUZZY_ABOVE_ONE = _one_entry_interp("fuzzy-max-min", [[["0"], ["0"], "3/2"]])


@pytest.mark.parametrize(
    "term, interp, message",
    [
        ("f", FUZZY_ABOVE_ONE, "generator 'f': label outside [0,1]: '3/2'"),
        ("f", [FUZZY_ABOVE_ONE], "interpretation document must be an object"),
        ("let a = f\nlet b = (let)", None, "2:10: 'let' is only allowed at the top of a term file"),
        ("id[copy]", None, "1:4: 'copy' is reserved and cannot name a sort"),
        (
            "f",
            _one_entry_interp("bool", [[["0"], ["0"], "2"]]),
            "generator 'f': bool label out of range: '2'",
        ),
        (
            "f",
            _one_entry_interp("gf(2)", [[["0"], ["0"], "5"]]),
            "generator 'f': gf(2) label out of range: '5'",
        ),
        (
            "f",
            _one_entry_interp("nonneg-rational", [[["0"], ["0"], "-1/2"]]),
            "generator 'f': nonneg-rational label is negative: '-1/2'",
        ),
        (
            "f",
            _one_entry_interp("bool", [["0", "0", "1"]]),
            "generator 'f': entry labels must be lists: ['0', '0', '1']",
        ),
        (
            "f",
            _one_entry_interp("nonneg-rational", [[["0"], ["0"], "1e10000000"]]),
            "generator 'f': label exponent is beyond +-4300: '1e10000000'",
        ),
    ],
    ids=[
        "fuzzy-label-above-one",
        "interpretation-is-an-array",
        "nested-let",
        "copy-as-sort",
        "bool-label-out-of-range",
        "gf2-label-out-of-range",
        "rational-label-negative",
        "entry-labels-not-lists",
        "rational-label-exponent",
    ],
)
def test_eval_error_names_the_fault(files, tmp_path, capsys, term, interp, message):
    # a term that fails to parse is read against a well-formed interpretation
    path = files / "interp_bool.json"
    if interp is not None:
        path = tmp_path / "interp.json"
        path.write_text(json.dumps(interp))
    (tmp_path / "t.gsd").write_text(term + "\n")
    assert run(["eval", tmp_path / "t.gsd", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# int() takes each of these texts, but none is the label of an element
@pytest.mark.parametrize("label", [" 1", "+3", "1_0", "\u0663", "01"])
@pytest.mark.parametrize("cmd", ["eval", "eq"])
def test_a_label_int_reads_but_no_element_has_exits_2(tmp_path, capsys, cmd, label):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({
        "semiring": "nat",
        "sorts": {"A": 11},
        "generators": {"f": {"dom": ["A"], "cod": ["A"], "entries": [[["2"], [label], "5"]]}},
    }))
    (tmp_path / "t.gsd").write_text("f\n")
    assert run([cmd, *[tmp_path / "t.gsd"] * (1 if cmd == "eval" else 2), interp]) == 2
    i = int(label)
    assert capsys.readouterr() == (
        "", f"error: generator 'f': A: unknown label {label!r}; element {i} is labelled '{i}'\n"
    )


# f ; f squares the one entry, to 6,000 digits: more than str() prints
TOO_LONG_TO_PRINT = {
    "nat": _one_entry_interp("nat", [[["0"], ["0"], "9" * 3000]]),
    "nonneg-rational": _one_entry_interp("nonneg-rational", [[["0"], ["0"], "1e3000"]]),
}


@pytest.mark.parametrize("semiring", TOO_LONG_TO_PRINT)
@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("cmd", ["eval", "eq"])
def test_a_value_too_long_to_print_exits_2(tmp_path, capsys, semiring, fmt, cmd):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps(TOO_LONG_TO_PRINT[semiring]))
    (tmp_path / "ff.gsd").write_text("f ; f\n")
    (tmp_path / "f.gsd").write_text("f\n")
    # eval prints the arrow; eq prints the witness, the entry where f ; f != f
    terms = [tmp_path / "ff.gsd"] + ([tmp_path / "f.gsd"] if cmd == "eq" else [])
    assert run([cmd, *terms, interp, "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: a {semiring} value has an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, Python's limit for printing one\n"
    )


# eq


def test_eq_bool_equal(files, capsys):
    code = run(["eq", files / "domf.gsd", files / "f.gsd", files / "interp_bool.json"])
    assert code == 0
    assert "equal" in capsys.readouterr().out


def test_eq_nat_not_equal(files, capsys):
    code = run(["eq", files / "domf.gsd", files / "f.gsd", files / "interp_nat.json"])
    assert code == 1
    out = capsys.readouterr().out
    assert "NOT EQUAL" in out
    assert "left=4" in out and "right=2" in out


@pytest.mark.parametrize(
    "interp, code, status, witness",
    [
        ("interp_bool.json", 0, "exhaustive_pass", None),
        (
            "interp_nat.json",
            1,
            "counterexample",
            {"row": ["a"], "col": ["c"], "left": "4", "right": "2"},
        ),
    ],
)
def test_eq_structured_document(files, capsys, interp, code, status, witness):
    argv = ["eq", files / "domf.gsd", files / "f.gsd", files / interp, "--format", "structured"]
    assert run(argv) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["left"] == "dom(f) ; f" and doc["right"] == "f"
    assert doc["status"] == status
    assert doc["witness"] == witness
    assert doc["checks_performed"] == 1


def test_eq_boundary_mismatch_exits_2(files, capsys):
    code = run(["eq", files / "f.gsd", files / "counit.gsd", files / "interp_bool.json"])
    assert code == 2
    assert "boundaries" in capsys.readouterr().err


# exact human text: the whole output of one small input per subcommand

BOOL_LAWS = """\
semiring: bool
  semiring/add-assoc: exhaustive_pass (8 checks)
  semiring/add-comm: exhaustive_pass (4 checks)
  semiring/add-unit: exhaustive_pass (2 checks)
  semiring/mul-assoc: exhaustive_pass (8 checks)
  semiring/mul-unit: exhaustive_pass (2 checks)
  semiring/distrib-left: exhaustive_pass (8 checks)
  semiring/distrib-right: exhaustive_pass (8 checks)
  semiring/annihilation: exhaustive_pass (2 checks)
profile:
  mult_idempotent: true [exhaustive_pass]
  absorptive: true [exhaustive_pass]
  distributive_lattice: true [exhaustive_pass]
  semifield: true [exhaustive_pass]
"""

BROKEN_LAWS = """\
semiring: broken
  semiring/add-assoc: counterexample (14 checks) witness=['1', '1', '1']
  semiring/add-comm: counterexample (6 checks) witness=['1', '2']
  semiring/add-unit: exhaustive_pass (3 checks)
  semiring/mul-assoc: exhaustive_pass (27 checks)
  semiring/mul-unit: exhaustive_pass (3 checks)
  semiring/distrib-left: counterexample (23 checks) witness=['2', '1', '1']
  semiring/distrib-right: counterexample (15 checks) witness=['1', '1', '2']
  semiring/annihilation: exhaustive_pass (3 checks)
profile:
  mult_idempotent: false [counterexample]  witness: ['2']
  absorptive: false [counterexample]  witness: ['1', '1']
  distributive_lattice: false [counterexample]  witness: ['1', '0']
  semifield: true [exhaustive_pass]
"""

BOOL_MA = """\
semiring: bool
variant: Ma
monad flags:
  affine: true [pointwise=true diagram=true]
  relevant: true [pointwise=true diagram=true]
  domain_preserving: true [pointwise=true diagram=true]
  mass_preserving: true [pointwise=true diagram=true]
  unital_domain_preserving: true [pointwise=true diagram=true]
  weakly_affine: true [pointwise=true diagram=true]
closure:
  eta: exhaustive_pass
  psi: exhaustive_pass
  pushforward: exhaustive_pass
  mu: exhaustive_pass
kleisli flags:
  gsm_axioms: true
  markov: true
  restriction: true
  domain_category: true
  mass_category: true
  weakly_markov: true
"""

GF2_M = """\
semiring: gf(2)
variant: M
monad flags:
  affine: false [pointwise=false diagram=false]
  relevant: true [pointwise=true diagram=true]
  domain_preserving: true [pointwise=true diagram=true]
  mass_preserving: true [pointwise=true diagram=true]
  unital_domain_preserving: true [pointwise=true diagram=true]
  weakly_affine: false [pointwise=false diagram=false]
closure:
  eta: exhaustive_pass
  psi: exhaustive_pass
  pushforward: exhaustive_pass
  mu: exhaustive_pass
kleisli flags:
  gsm_axioms: true
  markov: false
    witness: {'equation': 'total', 'sizes': [1, 0], 'arrow': {'dom': [{'name': 'X', 'size': 1}], \
'cod': [{'name': 'Y', 'size': 0}], 'entries': []}}
  restriction: true
  domain_category: true
  mass_category: true
  weakly_markov: false
    witness: {'dom_size': 1, 'arrow': {'dom': [{'name': 'Y', 'size': 1}], 'cod': [], \
'entries': []}, 'reason': 'no inverse under the scalar multiplication'}
"""


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["check-semiring", "bool"], 0, BOOL_LAWS),
        (["check-semiring", "{files}/broken_table.json"], 1, BROKEN_LAWS),
        (["classify", "bool", "--variant", "Ma", "--sizes", "0,1"], 0, BOOL_MA),
        (["classify", "gf(2)", "--variant", "M", "--sizes", "0,1"], 0, GF2_M),
        (
            ["eval", "{files}/counit.gsd", "{files}/interp_bool.json"],
            0,
            "term: copy[A] ; id[A] * del[A]\nboundary: [A] -> [A]\n"
            "  (a) -> (a) : 1\n  (b) -> (b) : 1\n",
        ),
        (
            ["eq", "{files}/domf.gsd", "{files}/f.gsd", "{files}/interp_bool.json"],
            0,
            "left:  dom(f) ; f\nright: f\nequal (exhaustive_pass, 1 entries compared)\n",
        ),
        (
            ["eq", "{files}/domf.gsd", "{files}/f.gsd", "{files}/interp_nat.json"],
            1,
            "left:  dom(f) ; f\nright: f\nNOT EQUAL at row ['a'], column ['c']: left=4 right=2\n",
        ),
    ],
    ids=["check-semiring", "check-semiring-witnesses", "classify", "classify-witnesses",
         "eval", "eq-equal", "eq-not-equal"],
)
def test_human_text_is_pinned(files, capsys, argv, code, text):
    assert run([a.format(files=files) for a in argv]) == code
    assert capsys.readouterr() == (text, "")


# taxonomy


def test_taxonomy_restricted_green(files, capsys):
    code = run(["taxonomy", "--semiring", "bool", "--semiring", "gf(2)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "theorem/markov-decomposition" in out
    assert "monad/mu-assoc" in out


def test_taxonomy_jsonl_deterministic(files, tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (a, b):
        code = run([
            "taxonomy", "--semiring", "gf(2)", "--seed", "7",
            "--format", "structured", "--out", target,
        ])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert all(
        list(r) == ["law", "variant", "semiring", "status", "witness", "checks_performed"]
        for r in rows
    )
    # monad laws are folded in alongside the theorem rows
    assert any(r["law"] == "monad/mu-assoc" for r in rows)
    assert any(r["law"].startswith("theorem/") for r in rows)


def test_taxonomy_planted_bug_exits_1(files, capsys):
    code = run(
        ["taxonomy", "--semiring", "nat", "--variant", "M"],
        _ops_override=BROKEN_OPS,
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_taxonomy_samples_reach_the_law_suites(capsys):
    def unit_left_checks(extra):
        argv = ["taxonomy", "--semiring", "nat", "--variant", "M", "--sizes", "1"]
        assert run(argv + extra + ["--format", "structured"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        return next(r for r in rows if r["law"] == "monad/mu-unit-left")["checks_performed"]

    assert unit_left_checks(["--samples", "5"]) == 5
    assert unit_left_checks([]) == 24


def test_taxonomy_unknown_filter_exits_2(files, capsys):
    assert run(["taxonomy", "--semiring", "bool", "--variant", "Mz"]) == 2
    assert capsys.readouterr() == ("", "error: unknown variant 'Mz'\n")


def test_a_suite_value_error_of_another_kind_is_not_bad_input(monkeypatch):
    # only the suite's own argument errors are bad input: any other
    # ValueError is a fault of the program, and must not read as exit 2
    def broken(*args, **kwargs):
        raise ValueError("not an argument error")

    monkeypatch.setattr(cli, "run_theorem_suite", broken)
    with pytest.raises(ValueError, match="not an argument error"):
        run(["taxonomy", "--semiring", "bool", "--sizes", "0"])


@pytest.mark.parametrize("sizes", ["0", "0,0"])
def test_taxonomy_with_no_positive_size_exits_2(capsys, sizes):
    # the monad flags read the unit word's maps, but the Kleisli flags over
    # arrows from X0 alone hold vacuously: the theorem rows would compare
    # the two and report refutations that are not there
    assert run(["taxonomy", "--sizes", sizes]) == 2
    assert capsys.readouterr() == ("", "error: sizes must include a positive size\n")


def test_taxonomy_repeated_variant_runs_once(capsys):
    argv = ["taxonomy", "--semiring", "bool", "--sizes", "0,1", "--format", "structured"]
    assert run(argv + ["--variant", "M"]) == 0
    once = capsys.readouterr().out
    assert run(argv + ["--variant", "M", "--variant", "M"]) == 0
    assert capsys.readouterr().out == once
    assert len(once.splitlines()) == 51


def test_taxonomy_semiring_named_twice_exits_2(capsys):
    # "boolean" is an alias of bool: the rows of the two could not be told apart
    assert run(["taxonomy", "--semiring", "bool", "--semiring", "boolean", "--sizes", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: semiring 'bool' is given twice\n"


# sha256 of this report, pinned so that a change to the report bytes is seen.
# It has sampled and exhaustive passes and one counterexample row.  A change
# that alters the bytes on purpose re-pins the digest and says why.
GOLDEN_ARGV = [
    "taxonomy", "--semiring", "nat", "--semiring", "gf(2)",
    "--sizes", "0,1", "--seed", "11", "--format", "structured",
]
GOLDEN_SHA256 = "6ed4368082a0bf395aa3836e417144fdb1133769ec274028d50024ab324be32f"


def test_taxonomy_golden_digest(tmp_path):
    out = tmp_path / "golden.jsonl"
    assert run(GOLDEN_ARGV + ["--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256


def test_api_suite_matches_cli_golden_digest():
    # the library suite and `gsrel taxonomy` emit the same rows
    entries = run_theorem_suite(["nat", "gf(2)"], sizes=(0, 1), seed=11)
    assert hashlib.sha256(entries_to_jsonl(entries).encode()).hexdigest() == GOLDEN_SHA256


# shared option handling


def test_eval_and_eq_read_no_environment(files, monkeypatch):
    monkeypatch.setenv("GSREL_BUDGET", "lots")
    assert run(["eval", files / "f.gsd", files / "interp_bool.json"]) == 0
    assert run(["eq", files / "domf.gsd", files / "f.gsd", files / "interp_bool.json"]) == 0


# Deep terms: the parser refuses a term past MAX_TERM_DEPTH with exit 2, so
# the recursive walks after it never run out of stack.


def deep_terms(depth):
    """A chain of compositions, parentheses nested around the group of
    dom(id[A]), and compositions into tensors, id[A] ; (t * id[]) around f,
    whose levels alternate ';' and '*'; each `depth` levels deep, and each
    evaluates to f."""
    alternating = "f" if depth % 2 else "id[A] ; f"
    for _ in range((depth - 1) // 2):
        alternating = f"id[A] ; ({alternating} * id[])"
    return {
        "chain": " ; ".join(["id[A]"] * (depth - 1) + ["f"]),
        "parens": "(" * (depth - 1) + "dom(id[A]) ; f" + ")" * (depth - 1),
        "alternating": alternating,
    }


def deep_argv(cmd, term_file, files):
    interp = files / "interp_nat.json"
    if cmd == "eval":
        return ["eval", term_file, interp]
    return ["eq", term_file, files / "f.gsd", interp]


@pytest.mark.parametrize("cmd", ["eval", "eq"])
@pytest.mark.parametrize("shape", ["chain", "parens", "alternating"])
@pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 601, 3000])
def test_too_deep_terms_exit_2(files, tmp_path, capsys, cmd, shape, depth):
    path = tmp_path / "deep.gsd"
    path.write_text(deep_terms(depth)[shape])
    assert run(deep_argv(cmd, path, files)) == 2
    err = capsys.readouterr().err
    assert f"more than {MAX_TERM_DEPTH} levels deep" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["eval", "eq"])
@pytest.mark.parametrize("shape", ["chain", "parens", "alternating"])
def test_terms_at_the_depth_limit_evaluate(files, tmp_path, capsys, cmd, shape):
    path = tmp_path / "deep.gsd"
    path.write_text(deep_terms(MAX_TERM_DEPTH)[shape])
    assert run(deep_argv(cmd, path, files)) == 0
    if cmd == "eval":
        # every shape evaluates to f
        assert capsys.readouterr().out.splitlines()[1:] == [
            "boundary: [A] -> [C]",
            "  (a) -> (c) : 2",
        ]
    # both sides equally deep: equal sub-terms are compared, not only hashed
    assert run(["eq", path, path, files / "interp_nat.json"]) == 0


def test_bad_sizes_exit_2(files):
    assert run(["classify", "bool", "--variant", "M", "--sizes", "1,-2"]) == 2
    assert run(["classify", "bool", "--variant", "M", "--sizes", "a,b"]) == 2


@pytest.mark.parametrize("sizes", ["", ",", " , "])
def test_empty_sizes_exit_2(sizes, capsys):
    assert run(["classify", "bool", "--sizes", sizes]) == 2
    assert f"error: --sizes is an empty list, got {sizes!r}" in capsys.readouterr().err


OVERSIZED = 99999999999999999999  # above sys.maxsize, so no range() can index it


@pytest.mark.parametrize("cmd", ["eq", "eval", "sizes"])
def test_oversized_sizes_exit_2(files, tmp_path, capsys, cmd):
    """A set size no C integer holds is bad input, not a refutation."""
    interp = tmp_path / "huge.json"
    interp.write_text(json.dumps({"semiring": "nat", "sorts": {"A": OVERSIZED}, "generators": {}}))
    (tmp_path / "t1.gsd").write_text("id[A]\n")
    (tmp_path / "t2.gsd").write_text("copy[A] ; (id[A] * del[A])\n")
    argv = {
        "eq": ["eq", tmp_path / "t1.gsd", tmp_path / "t2.gsd", interp],
        "eval": ["eval", tmp_path / "t1.gsd", interp],
        "sizes": ["taxonomy", "--semiring", "bool", "--variant", "M", "--sizes", str(OVERSIZED)],
    }[cmd]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(OVERSIZED) in err
    assert "Traceback" not in err


def test_budget_must_be_positive(files):
    assert run(["check-semiring", "bool", "--budget", "0"]) == 2


def test_samples_must_be_positive(files, capsys):
    for samples in ("0", "-3"):
        assert run(["taxonomy", "--semiring", "bool", "--samples", samples]) == 2
    assert "--samples must be positive" in capsys.readouterr().err


GOOD_SORTS = {"A": {"size": 2, "labels": ["a", "b"]}}
GOOD_GENERATORS = {"f": {"dom": ["A"], "cod": ["A"], "entries": [[["a"], ["b"], "1"]]}}


def entry_doc(semiring, entry, sort=2):
    """An interpretation whose one generator A -> A has the single entry."""
    return {
        "semiring": semiring,
        "sorts": {"A": sort},
        "generators": {"f": {"dom": ["A"], "cod": ["A"], "entries": [entry]}},
    }


@pytest.mark.parametrize(
    "doc",
    [
        {"semiring": "gf(4)", "sorts": GOOD_SORTS, "generators": GOOD_GENERATORS},
        {"semiring": "bool", "sorts": {"A": {"size": "x"}}, "generators": {}},
        {
            "semiring": "bool",
            "sorts": GOOD_SORTS,
            "generators": {"f": {"dom": ["A"], "cod": ["A"], "entries": [5]}},
        },
        {"semiring": "bool", "sorts": ["X"], "generators": {}},
        {
            "semiring": "nat",
            "sorts": GOOD_SORTS,
            "generators": {"f": {"dom": ["A"], "cod": ["A"], "entries": [[["a"], ["b"], [1]]]}},
        },
        {"semiring": "bool", "sorts": GOOD_SORTS, "generators": {"f": {"dom": 5, "cod": ["A"]}}},
        # labels are JSON strings: each of these loaded silently before
        entry_doc("nat", [[2.7], ["0"], "1"], 3),
        entry_doc("nat", [[True], ["0"], "1"]),
        entry_doc("nat", [["0"], ["0"], 2.7]),
        entry_doc("nonneg-rational", [["0"], ["0"], 2.7]),
        entry_doc("nat", [[1], [0], "1"], {"size": 2, "labels": [0, 1]}),
        # an unhashable sort name raised TypeError out of the loader
        {"semiring": "bool", "sorts": GOOD_SORTS, "generators": {"f": {"dom": [["A"]], "cod": []}}},
        {"semiring": "bool", "sorts": GOOD_SORTS, "generators": {"f": {"dom": [], "cod": [{}]}}},
    ],
    ids=[
        "unknown-semiring",
        "sort-size-not-int",
        "entry-not-a-list",
        "sorts-not-an-object",
        "value-not-a-label",
        "dom-not-a-list",
        "float-row-label",
        "true-row-label",
        "float-value-nat",
        "float-value-rational",
        "int-sort-labels",
        "list-sort-name",
        "object-sort-name",
    ],
)
def test_eval_malformed_interpretation_exits_2(files, tmp_path, capsys, doc):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps(doc))
    assert run(["eval", files / "f.gsd", interp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "spec, code",
    [
        (1, 0),
        ({"size": 1}, 0),
        ({"size": 1.7}, 2),
        (1.7, 2),
        (True, 2),
        ({"size": True}, 2),
        ({"size": "2"}, 2),
    ],
    ids=["bare-int", "int", "float", "bare-float", "bare-true", "true", "string"],
)
def test_sort_size_must_be_a_json_integer(files, tmp_path, capsys, spec, code):
    # the generator is well formed at any size >= 1, so only the size decides
    doc = {
        "semiring": "bool",
        "sorts": {"A": spec},
        "generators": {"f": {"dom": ["A"], "cod": ["A"], "entries": [[["0"], ["0"], "1"]]}},
    }
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps(doc))
    assert run(["eval", files / "f.gsd", interp]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

