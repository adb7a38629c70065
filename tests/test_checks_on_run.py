"""Every law row over a run's pools is checked through _Run.check.

taxonomy names the report checkers (check_cases and check_laws) only in
_Run.check, which decides from taxonomy._READS_VARIANT and the cases'
completeness whether a row shares the run's memos, and in _gsm_reports and
_word_reports, whose rows range over words and read no run.  Importing a
checker is not a use of it.
"""
import ast
from pathlib import Path

import pytest

TAXONOMY = Path(__file__).resolve().parent.parent / "src" / "gsrel" / "taxonomy.py"

CHECKERS = {"check_cases", "check_laws"}
ALLOWED = {"_Run.check", "_gsm_reports", "_word_reports"}


def _definitions(tree):
    """(name, node) of each top-level statement, a class's methods named
    Class.method."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield f"{top.name}.{getattr(node, 'name', '')}", node
        else:
            yield getattr(top, "name", None), top


def checker_uses(source: str) -> list:
    """(definition, name) of each checker named in code."""
    return [
        (owner, name)
        for owner, top in _definitions(ast.parse(source))
        for node in ast.walk(top)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and name in CHECKERS
    ]


def uses_outside(source: str) -> list:
    return [use for use in checker_uses(source) if use[0] not in ALLOWED]


@pytest.mark.parametrize(
    "source",
    [
        "def f(run):\n    return check_cases('closure/eta', cases, holds, str, cases.complete)",
        "x = report.check_laws(laws, cases, holds_for, str)",
        "class _Run:\n    def check_cases(self, law):\n        return check_cases(law, c, h, d)",
        "class Other:\n    def check(self):\n        return check_laws(laws, c, h, d)",
        "def _classify_monad(run):\n    def _word_reports():\n        return check_laws(l, c, h, d)",
        "checker = check_cases",
    ],
)
def test_pattern_catches_checkers_outside_run_check(source):
    assert uses_outside(source)


@pytest.mark.parametrize(
    "source",
    [
        "from .report import check_cases, check_laws",
        "class _Run:\n    def check(self, laws):\n        return check_laws(laws, c, h, d)",
        "def _gsm_reports(st, words, pairs):\n    return check_laws(laws, pairs, h, d)",
        "# check_cases in a comment",
        "doc = 'check_laws'",
        "reports = run.check(laws, cases, holds_for, describe)",
    ],
)
def test_pattern_passes_imports_and_allowed_definitions(source):
    assert not uses_outside(source)


def test_taxonomy_checks_rows_only_through_run_check():
    source = TAXONOMY.read_text(encoding="utf-8")
    assert uses_outside(source) == []
    uses = checker_uses(source)
    assert {owner for owner, _ in uses} == ALLOWED
    assert {name for _, name in uses} == {"check_laws"}
