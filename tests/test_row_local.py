"""Every law declared row-local holds on a case exactly when it holds on
each one-row case cut from it.

taxonomy._ROW_LOCAL names the laws that _Run.check decides row by row.  A
case is an arrow or a tuple of arrows; it is cut at each key of its first
arrow's domain, every arrow over that domain becoming the one-row arrow
X1 -> its codomain of its row at the key, and the other arrows kept whole.
The property runs the suite's own predicates, as each law family hands
them to _Run.check, on random multi-row arrows over every catalog carrier
and over Z/4, where products of nonzero weights vanish.  Rows are drawn
from a few maps per codomain, so arrows share rows and the run's verdict
memo is read as well as filled.  Each whole case's verdict must be the
AND of the verdicts of its one-row cases, and each report _Run.check
gives must be the report of the plain walk over whole cases.  A planted
equation that mixes rows fails the property.
"""
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from gsrel import (
    CATALOG,
    FinSet,
    Structure,
    WRel,
    load_semiring,
    load_table_semiring,
    parse_term,
    taxonomy,
    word_elements,
    wrel_make,
    wrel_to_doc,
)
from gsrel.diagram import _LawCase
from gsrel.report import DEFAULT_BUDGET, check_laws
from gsrel.taxonomy import (
    _ROW_LOCAL,
    _classify_kleisli,
    _crosscheck,
    _hom_monoid_reports,
    _Pool,
    _Run,
    _structural_reports,
)

# Z/4: 2 * 2 = 0, so products of nonzero weights vanish
Z4 = load_table_semiring({
    "name": "z4",
    "elements": ["0", "1", "2", "3"],
    "zero": "0",
    "one": "1",
    "plus": [[str((a + b) % 4) for b in range(4)] for a in range(4)],
    "times": [[str(a * b % 4) for b in range(4)] for a in range(4)],
})
CARRIERS = [load_semiring(name) for name in CATALOG] + [Z4]


def one_row_cases(sr, case):
    """The case cut at each key of its first arrow's domain."""
    arrows = case if isinstance(case, tuple) else (case,)
    dom = arrows[0].dom
    one = tuple(FinSet(s.name, 1) for s in dom)
    for x in word_elements(dom):
        cut = tuple(
            WRel(one, a.cod, {(0,) * len(one): a.row(sr, x)}) if a.dom == dom else a
            for a in arrows
        )
        yield cut if isinstance(case, tuple) else cut[0]


def assert_row_local(sr, law, holds_for, case):
    rows = [holds_for(c)(law) for c in one_row_cases(sr, case)]
    assert holds_for(case)(law) == all(rows), (law, case, rows)


class _RandomArrows(_Run):
    """A run over random arrow pools whose check asserts the row-local
    property of every row-local law on every case, and compares its
    reports with the plain walk over whole cases."""

    def __init__(self, sr, rng, sizes):
        super().__init__(["Md"], sr, sizes, DEFAULT_BUDGET, 11, 8)
        self.rng = rng
        self.rows_over = {}
        self.decided = set()

    def row(self, cod):
        """One of a few maps over cod, zero one time in four."""
        if cod not in self.rows_over:
            values = self.sr.sample_elements(self.rng)
            self.rows_over[cod] = [
                {y: self.rng.choice(values) for y in word_elements(cod)} for _ in range(3)
            ]
        return self.rng.choice(self.rows_over[cod]) if self.rng.random() < 0.75 else {}

    def arrows(self, variant, dom, cod, n, tag):
        return _Pool(
            [
                wrel_make(self.sr, dom, cod, {x: self.row(cod) for x in word_elements(dom)})
                for _ in range(4)
            ],
            False,
        )

    def check(self, laws, cases, holds_for, describe):
        laws = tuple(laws)
        if holds_for is not None:
            for law in laws:
                if law.startswith(_ROW_LOCAL):
                    self.decided.add(law)
                    for case in cases:
                        assert_row_local(self.sr, law, holds_for, case)
        got = super().check(laws, cases, holds_for, describe)
        if holds_for is not None:
            assert got == check_laws(laws, cases, holds_for, describe, cases.complete)
        return got


def _families(run):
    """Every family whose rows are row-local, under Md: composition closure
    reads the variant, and under M its cases hold unread."""
    kc = _classify_kleisli(run, "Md")
    _structural_reports(run, "Md", kc.flags["domain_category"])
    _crosscheck(run, "Md")
    _hom_monoid_reports(run, "Md")


# no shrinking: a failing example runs every family again for each step,
# and a random arrow pool does not get smaller by it
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    rng=st.randoms(use_true_random=False),
    sr=st.sampled_from(CARRIERS),
    sizes=st.sets(st.integers(0, 3), min_size=1, max_size=3),
)
def test_row_local_laws_hold_on_an_arrow_iff_on_each_of_its_rows(rng, sr, sizes):
    run = _RandomArrows(sr, rng, sizes)
    _families(run)
    # every declared law, or id prefix, was checked
    assert all(any(law.startswith(entry) for law in run.decided) for entry in _ROW_LOCAL)


def test_laws_outside_the_declaration_are_checked_on_whole_arrows(monkeypatch):
    cut = []
    monkeypatch.setattr(taxonomy, "_cut", lambda case, empty: cut.append(case))
    run = _Run(["Md"], "nat", (1, 2), DEFAULT_BUDGET, 11, 8)
    taxonomy._weakly_markov_report(run, "Md")
    taxonomy._monad_laws(run, "Md")
    assert cut == []


# equations over f: X -> Y whose row (x1, x2) reads f's rows at x1 and x2:
# each holds on a one-row arrow and fails where f has two different rows
PLANTED = {
    "planted/del-tensor": ("del[X] * f", "f * del[X]"),
    "planted/swap": ("swap[X;X] ; (f * del[X])", "f * del[X]"),
}


@pytest.mark.parametrize("law", sorted(PLANTED))
def test_a_row_mixing_equation_fails_the_property(monkeypatch, law):
    monkeypatch.setattr(taxonomy, "_ROW_LOCAL", _ROW_LOCAL + ("planted/",))
    sr = load_semiring("nat")
    structure = Structure(sr)
    lhs, rhs = map(parse_term, PLANTED[law])

    def holds_for(f):
        case = _LawCase(structure, {"X": f.dom, "Y": f.cod}, {"f": f})
        return lambda _: case.eval(lhs) == case.eval(rhs)

    x2, y1 = (FinSet("X", 2),), (FinSet("Y", 1),)
    f = wrel_make(sr, x2, y1, {(0,): {(0,): 1}, (1,): {(0,): 2}})
    with pytest.raises(AssertionError, match=law):
        assert_row_local(sr, law, holds_for, f)
    # decided by rows, the equation would pass where the whole arrow fails
    run = _RandomArrows(sr, random.Random(0), (2,))
    with pytest.raises(AssertionError, match=law):
        run.check([law], _Pool([f], True), holds_for, lambda f: wrel_to_doc(sr, f))
    [report] = _Run(["M"], sr, (2,), DEFAULT_BUDGET, 11, 8).check(
        [law], _Pool([f], True), holds_for, lambda f: wrel_to_doc(sr, f)
    )
    assert report.passed
    assert not holds_for(f)(law)
