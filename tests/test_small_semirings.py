"""Every commutative semiring with 0 != 1 of order 2 and 3, checked exhaustively.

The paper's mass- and domain-preserving monads are claimed for semiring-
weighted relations in general, not only for the catalog.  Small carriers
are enumerated outright, so the theorem suite runs on every one of them.
Over the catalog and order 3, the survey's three correspondences between
monad and Kleisli flags hold on every (semiring, variant) pair, and each
implication the suite asserts is strict.
"""
from itertools import permutations, product

import pytest

from gsrel import CATALOG, VARIANTS, check_semiring_laws, load_table_semiring, run_theorem_suite
from gsrel.report import COUNTEREXAMPLE, DEFAULT_BUDGET
from gsrel.taxonomy import _IMPLICATIONS, _classify_kleisli, _classify_monad, _Run


def _tables(n: int, op_free_cells, fixed):
    """Every commutative table over 0..n-1 whose cells outside fixed() are
    drawn from the carrier, one value per unordered pair."""
    for values in product(range(n), repeat=len(op_free_cells)):
        t = [[fixed(a, b) for b in range(n)] for a in range(n)]
        for (a, b), v in zip(op_free_cells, values):
            t[a][b] = t[b][a] = v
        yield t


def _associative(t, n: int) -> bool:
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n))


def _canonical(plus, times, n: int) -> tuple:
    """Smallest relabelling of the two tables under permutations fixing 0 and 1."""
    forms = []
    for rest in permutations(range(2, n)):
        p = (0, 1, *rest)
        inv = {v: i for i, v in enumerate(p)}
        forms.append(tuple(
            tuple(inv[t[p[a]][p[b]]] for a in range(n) for b in range(n)) for t in (plus, times)
        ))
    return min(forms)


def small_semirings(n: int) -> list[tuple]:
    """Commutative semirings on 0..n-1 with zero 0 and one 1, up to isomorphism.

    0 is the additive identity and absorbs under multiplication; 1 is the
    multiplicative unit.  Each result is a (plus, times) pair of tables.
    """
    pairs = [(a, b) for a in range(1, n) for b in range(a, n)]
    plus_free = pairs
    times_free = [(a, b) for a, b in pairs if a >= 2]

    def plus_fixed(a, b):
        return b if a == 0 else a if b == 0 else None

    def times_fixed(a, b):
        return 0 if 0 in (a, b) else b if a == 1 else a if b == 1 else None

    pluses = [t for t in _tables(n, plus_free, plus_fixed) if _associative(t, n)]
    timeses = [t for t in _tables(n, times_free, times_fixed) if _associative(t, n)]
    found = {}
    for plus, times in product(pluses, timeses):
        if all(
            times[a][plus[b][c]] == plus[times[a][b]][times[a][c]]
            for a in range(n) for b in range(n) for c in range(n)
        ):
            found.setdefault(_canonical(plus, times, n), (plus, times))
    return [found[k] for k in sorted(found)]


def table_doc(plus, times, name: str) -> dict:
    labels = [str(i) for i in range(len(plus))]
    return {
        "name": name,
        "elements": labels,
        "zero": "0",
        "one": "1",
        "plus": [[labels[v] for v in row] for row in plus],
        "times": [[labels[v] for v in row] for row in times],
    }


SEMIRINGS = [
    load_table_semiring(table_doc(plus, times, f"s{n}-{i}"))
    for n in (2, 3)
    for i, (plus, times) in enumerate(small_semirings(n))
]


def test_counts_up_to_isomorphism():
    assert len(small_semirings(2)) == 2
    assert len(small_semirings(3)) == 6
    assert len(small_semirings(4)) == 36


def test_order_two_are_bool_and_gf2():
    sums = sorted(plus[1][1] for plus, _ in small_semirings(2))
    assert sums == [0, 1]  # 1 + 1 = 0 is gf(2), 1 + 1 = 1 is bool


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda sr: sr.name)
def test_semiring_laws_hold(sr):
    reports = check_semiring_laws(sr)
    assert reports and all(r.status != COUNTEREXAMPLE for r in reports)


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda sr: sr.name)
def test_theorem_suite_has_no_blocking_row(sr):
    entries = run_theorem_suite([sr], sizes=(0, 1), seed=11)
    assert entries
    assert [e.to_doc() for e in entries if e.blocking] == []


@pytest.fixture(scope="module")
def flags():
    """Per (semiring, variant) over the catalog and order 3: the suite's
    monad and Kleisli flags at sizes 0,1,2, seed 11, samples 24, and
    whether every closure row passes."""
    out = {}
    for sr in [*CATALOG, *(sr for sr in SEMIRINGS if sr.name.startswith("s3-"))]:
        run = _Run(VARIANTS, sr, (0, 1, 2), DEFAULT_BUDGET, 11, 24)
        for variant in VARIANTS:
            mc, kc = _classify_monad(run, variant), _classify_kleisli(run, variant)
            closed = all(r.passed for r in mc.closure.values()) and kc.composition_closure.passed
            out[run.sr.name, variant] = {**mc.flag_values(), **kc.flag_values()}, closed
    return out


def test_the_surveys_flag_correspondences_hold_on_every_pair(flags):
    # affine monad iff Markov (every arrow total), relevant iff every arrow
    # copyable, weakly affine iff weakly Markov; closed pairs or not
    assert len(flags) == 72
    for pair, (f, _) in flags.items():
        for monad, kleisli in (
            ("affine", "markov"),
            ("relevant", "restriction"),
            ("weakly_affine", "weakly_markov"),
        ):
            assert f[monad] == f[kleisli], (pair, monad, kleisli)


# One pair per implication where the consequent holds and the antecedent
# fails, and whether that pair passes every closure row.
SEPARATING = {
    "markov-implies-domain-category": (("bool", "M"), True),
    "restriction-implies-domain-category": (("bool", "M"), True),
    "domain-implies-mass": (("gf(2)", "M"), True),
    # the only separating pair fails closure: on a closed pair the theorems
    # mass-preserving-vs-mass-category and unital-vs-mass-category force the
    # converse
    "mass-implies-unital": (("nat", "Mi"), False),
    "affine-implies-domain-preserving": (("bool", "M"), True),
    "relevant-implies-domain-preserving": (("bool", "M"), True),
}


def test_each_implication_is_strict(flags):
    assert set(SEPARATING) == {law for law, *_ in _IMPLICATIONS}
    for law, antecedent, consequent in _IMPLICATIONS:
        pair, closed = SEPARATING[law]
        f, pair_closed = flags[pair]
        assert f[consequent] and not f[antecedent], law
        assert pair_closed == closed, law
    separating = [
        pair
        for pair, (f, _) in flags.items()
        if f["unital_domain_preserving"] and not f["mass_preserving"]
    ]
    assert separating == [("nat", "Mi")]
