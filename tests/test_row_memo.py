"""One run checks each enumerated law row once and replays it for the rest.

A _Run keeps a memo of report rows keyed by the law and by the pools that
generate the row's cases.  A variant whose pools equal an earlier
variant's gets a copy of the earlier row: the same status, count and
witness it would get from a run of its own.  Sampled rows are checked for
every variant over its own draws.  Every row over the run's pools goes
through _Run.check, which shares no memo with the laws that
taxonomy._READS_VARIANT declares: those are checked for every variant,
every case asked afresh.  A run whose check and pools keep nothing gives
the same report bytes as a run with its memos.
"""
from collections import Counter

import pytest

from gsrel import (
    CATALOG,
    DEFAULT_OPS,
    VARIANTS,
    MonadOps,
    WeightMap,
    entries_to_jsonl,
    run_theorem_suite,
    taxonomy,
    wm_psi,
)
from gsrel.report import DEFAULT_BUDGET, check_laws
from gsrel.taxonomy import (
    _classify_kleisli,
    _classify_monad,
    _crosscheck,
    _hom_monoid_reports,
    _monad_laws,
    _Pool,
    _Run,
    _structural_reports,
)


def first_entry_psi(sr, h, k):
    """Planted bug: the pairing keeps only its first entry."""
    return WeightMap(sr, dict(wm_psi(sr, h, k).entries[:1]))


FIRST_ENTRY_OPS = MonadOps(
    DEFAULT_OPS.eta, DEFAULT_OPS.mu, first_entry_psi, DEFAULT_OPS.pushforward
)


def _reports(run, variant):
    """Every family checked through _Run.check, in the suite's order."""
    mc = _classify_monad(run, variant)
    kc = _classify_kleisli(run, variant)
    return {
        "flags": mc.flags,
        "closure": mc.closure,
        "kleisli": kc.reports,
        "composition": kc.composition_closure,
        "monad": _monad_laws(run, variant),
        "homm": _hom_monoid_reports(run, variant),
        "structural": _structural_reports(run, variant, kc.flags["domain_category"]),
        "crosscheck": _crosscheck(run, variant),
    }


@pytest.fixture
def computed(monkeypatch):
    """The laws that report.check_laws ran, in order."""
    laws = []

    def spy_laws(names, *args, _check=taxonomy.check_laws):
        laws.extend(names)
        return _check(names, *args)

    monkeypatch.setattr(taxonomy, "check_laws", spy_laws)
    return laws


@pytest.mark.parametrize("ops", [DEFAULT_OPS, FIRST_ENTRY_OPS], ids=["sound", "first-entry-psi"])
@pytest.mark.parametrize("sr", ["bool", "gf(2)", "nat", "fuzzy-max-min"])
def test_a_shared_run_gives_every_variant_its_own_reports(sr, ops, computed):
    # bool and gf(2) pools are enumerated, nat and fuzzy-max-min pools sampled
    shared = _Run(VARIANTS, sr, (0, 1, 2), DEFAULT_BUDGET, 11, 24, ops)
    got = {v: _reports(shared, v) for v in VARIANTS}
    in_shared = len(computed)
    for variant in VARIANTS:
        alone = _Run([variant], sr, (0, 1, 2), DEFAULT_BUDGET, 11, 24, ops)
        assert got[variant] == _reports(alone, variant), variant
    # the shared run replayed rows that the runs of their own checked
    assert in_shared < len(computed) - in_shared
    if ops is FIRST_ENTRY_OPS:
        # over bool, Md's failing rows are M's, replayed; over the sampled
        # carriers Mi, checked last, fails on its own draws
        later = "Md" if sr in ("bool", "gf(2)") else "Mi"
        failed = [r for r in got[later]["monad"] if not r.passed]
        assert failed and all(r.witness is not None for r in failed)


class _MapsOfM(_Run):
    """A run whose map pools hold M's nonempty maps under every variant, so
    that one variant's cases lie outside another's sub-family."""

    def maps(self, variant, words, tag):
        pools = super().maps("M", words, tag)
        return {w: _Pool([h for h in p if len(h)], p.complete) for w, p in pools.items()}


class _MemoFree(_Run):
    """A run that keeps no row, row verdict or pool: check is plain
    report.check_laws, and every pool is built afresh."""

    def check(self, laws, cases, holds_for, describe):
        holds_for = holds_for or (lambda _: lambda _: True)
        return check_laws(tuple(laws), cases, holds_for, describe, cases.complete)

    def _kept(self, variant, key, build):
        return build()


@pytest.mark.parametrize(
    "semirings, variants, sizes, ops",
    [
        (CATALOG, VARIANTS, (0, 1, 2), DEFAULT_OPS),
        (CATALOG, VARIANTS, (0, 1, 2), FIRST_ENTRY_OPS),
        (["bool"], ["M", "Md"], (0, 1, 3), DEFAULT_OPS),
        (["nat", "gf(2)"], VARIANTS, (0, 1), DEFAULT_OPS),
        (["gf(3)"], VARIANTS, (0, 1, 2), DEFAULT_OPS),
        (["gf(3)"], VARIANTS, (0, 1, 2), FIRST_ENTRY_OPS),
    ],
    ids=[
        "catalog",
        "catalog-first-entry-psi",
        "finite-sizes013",
        "golden-nat-gf2",
        "gf3",
        "gf3-first-entry-psi",
    ],
)
def test_the_run_memos_move_no_report_byte(monkeypatch, semirings, variants, sizes, ops):
    def report():
        return entries_to_jsonl(run_theorem_suite(semirings, variants, sizes, seed=11, ops=ops))

    with_memos = report()
    monkeypatch.setattr(taxonomy, "_Run", _MemoFree)
    assert report() == with_memos


def test_rows_that_read_the_variant_keep_their_verdicts_per_variant():
    # over nonneg-rational the inverse of {(): 2} is {(): 1/2}, in M but
    # not in Md: on that case the weakly-affine rows hold under M and fail
    # under Md, which a verdict shared across variants would hide.  (The
    # empty map, which fails under every variant, would end each walk first.)
    shared = _MapsOfM(VARIANTS, "nonneg-rational", (0, 1), DEFAULT_BUDGET, 11, 24)
    got = {v: _classify_monad(shared, v) for v in VARIANTS}
    for variant in VARIANTS:
        alone = _MapsOfM([variant], "nonneg-rational", (0, 1), DEFAULT_BUDGET, 11, 24)
        assert got[variant] == _classify_monad(alone, variant), variant
    for side in ("pointwise", "diagram"):
        verdicts = {getattr(got[v].flags["weakly_affine"], side).passed for v in VARIANTS}
        assert verdicts == {True, False}, side


def test_a_replayed_row_is_a_copy():
    run = _Run(["M", "Md"], "bool", (0, 1), DEFAULT_BUDGET, 11, 24)
    first = _structural_reports(run, "M", False)
    assert first[-1].law == "gated/dom-before-copy"
    again = _structural_reports(run, "Md", True)
    assert again[-1].law == "structural/dom-before-copy"
    assert [r.checks_performed for r in again] == [r.checks_performed for r in first]
    closed_form = _crosscheck(run, "M")[0]
    closed_form.law, closed_form.witness = "renamed", {"wrapped": None}
    alone = _Run(["Md"], "bool", (0, 1), DEFAULT_BUDGET, 11, 24)
    assert _crosscheck(run, "Md")[0] == _crosscheck(alone, "Md")[0]


def test_pools_are_keyed_by_their_members():
    run = _Run(["M", "Ma"], "bool", (2,), DEFAULT_BUDGET, 11, 24)
    [inner] = run.maps("M", run.words(), "t").values()
    a, b, c = inner[:3]
    assert _Pool([a, b], True).key == (a, b) != _Pool([a, c], True).key
    assert _Pool([a, b], False).key is None
    # a pool that nested filters from candidates is keyed by its inner
    # pool, its support bound and the candidates it kept: equal keys for
    # equal pools however often they are built
    built = [run.nested(v, inner, 8, "t", max_support=3) for v in ("M", "M", "Ma")]
    keys = [pool.key for pool in built]
    assert built[0] == built[1] != built[2]
    assert keys[0] == keys[1] != keys[2]
    assert keys[0][:2] == (inner.key, 3)


class CountingOps:
    """DEFAULT_OPS that count their calls by operation name."""

    def __init__(self):
        self.calls = Counter()

        def counted(name, op):
            def call(*args):
                self.calls[name] += 1
                return op(*args)

            return call

        names = ("eta", "mu", "psi", "pushforward")
        self.ops = MonadOps(*(counted(name, getattr(DEFAULT_OPS, name)) for name in names))


def test_psi_natural_under_md_after_m_calls_no_operation(computed):
    counting = CountingOps()
    run = _Run(["M", "Md"], "bool", (0, 1, 2), DEFAULT_BUDGET, 11, 24, counting.ops)
    m_reports = _monad_laws(run, "M")
    assert counting.calls["psi"] and counting.calls["pushforward"]
    counting.calls.clear()
    del computed[:]
    md_reports = _monad_laws(run, "Md")
    # every pool of Md equals M's over bool, and every row is enumerated
    assert computed == []
    assert counting.calls["psi"] == counting.calls["pushforward"] == 0
    assert md_reports == m_reports
    psi_natural = next(r for r in md_reports if r.law == "monad/psi-natural")
    assert psi_natural.exhaustive and psi_natural.checks_performed > 0


def test_sampled_rows_draw_their_own_cases(computed):
    # nat pools are sampled, so Md checks its own draws of every row
    counting = CountingOps()
    run = _Run(["M", "Md"], "nat", (0, 1), DEFAULT_BUDGET, 11, 24, counting.ops)
    _monad_laws(run, "M")
    counting.calls.clear()
    del computed[:]
    md_reports = _monad_laws(run, "Md")
    assert "monad/psi-natural" in computed
    assert counting.calls["psi"] and counting.calls["pushforward"]
    alone = _Run(["Md"], "nat", (0, 1), DEFAULT_BUDGET, 11, 24)
    assert md_reports == _monad_laws(alone, "Md")


def test_rows_that_read_the_variant_ask_every_sampled_case(monkeypatch):
    asked = []  # (law, sampled, predicate calls, checks_performed), one per row

    def spy(laws, cases, holds_for, describe, exhaustive=True, _check=taxonomy.check_laws):
        calls = Counter()

        def counted(case):
            holds = holds_for(case)

            def ask(law):
                calls[law] += 1
                return holds(law)

            return ask

        reports = _check(laws, cases, counted, describe, exhaustive)
        asked.extend((r.law, not exhaustive, calls[r.law], r.checks_performed) for r in reports)
        return reports

    monkeypatch.setattr(taxonomy, "check_laws", spy)
    run = _Run(VARIANTS, "nat", (0, 1), DEFAULT_BUDGET, 11, 24)
    for variant in VARIANTS:
        _classify_monad(run, variant)
        _classify_kleisli(run, variant)
    reading = {
        "closure/eta",
        "closure/psi",
        "closure/pushforward",
        "closure/mu",
        "closure/composition",
        "kleisli/weakly-markov",
        "monadflag/weakly-affine-pointwise",
        "monadflag/weakly-affine-diagram",
    }
    rows = [row for row in asked if row[0] in reading]
    assert Counter(law for law, *_ in rows) == {law: len(VARIANTS) for law in reading}
    assert {law for law, sampled, *_ in rows if sampled} >= {"closure/psi", "closure/mu"}
    # each row asks its own predicate on every case it walks
    assert all(calls == checks for *_, calls, checks in rows)


def test_a_row_sampled_over_equal_complete_pools_draws_per_variant(computed):
    # over bool the 32 arrows Y5 -> I of M and Md are enumerated and equal;
    # their 32,768 cubes are past the case cap, so mul-assoc is sampled
    run = _Run(["M", "Md"], "bool", (5,), DEFAULT_BUDGET, 11, 24)
    for variant in ("M", "Md"):
        _hom_monoid_reports(run, variant)
    counts = Counter(computed)
    assert counts["homm/mul-assoc"] == 2
    assert counts["homm/mul-comm"] == counts["homm/mul-unit"] == 1


def test_rows_that_read_the_variant_are_checked_for_every_variant(computed):
    run = _Run(["M", "Md"], "bool", (0, 1), DEFAULT_BUDGET, 11, 24)
    for variant in ("M", "Md"):
        _classify_monad(run, variant)
        _classify_kleisli(run, variant)
    counts = Counter(computed)
    for law in (
        "closure/eta",
        "closure/psi",
        "closure/pushforward",
        "closure/mu",
        "closure/composition",
        "kleisli/weakly-markov",
        "monadflag/weakly-affine-diagram",
    ):
        assert counts[law] == 2, law
    # the per-arrow flags of Md are M's
    assert counts["kleisli/markov"] == 1


@pytest.mark.parametrize("sizes", [(0, 1), (0, 1, 2)])
def test_replay_is_decided_by_reads_variant_alone(sizes, computed):
    # over bool every pool of Md equals M's and every row is enumerated, so
    # after M's families Md checks only the rows that read the variant
    run = _Run(["M", "Md"], "bool", sizes, DEFAULT_BUDGET, 11, 24)
    _reports(run, "M")
    del computed[:]
    _reports(run, "Md")
    assert computed
    assert [law for law in computed if not law.startswith(taxonomy._READS_VARIANT)] == []


def test_a_row_key_holds_each_group_suffix(computed):
    run = _Run(["M"], "bool", (1,), DEFAULT_BUDGET, 11, 24)
    [pool] = run.maps("M", run.words(), "t").values()

    def cases(suffix):
        return run.grouped_cases([([pool], "t", ("w",), suffix)], 1)

    first, second = cases((0,)), cases((1,))
    assert first.complete and second.complete and first.key != second.key

    def holds(case):
        return lambda _: case[-1] == 0

    [a] = run.check(["law"], first, holds, lambda c: c[-1])
    [b] = run.check(["law"], second, holds, lambda c: c[-1])
    # the second row is checked, not replayed from the first
    assert computed == ["law", "law"]
    assert a.passed and not b.passed and b.witness == 1


def test_grouped_cases_build_no_case_before_they_are_read(monkeypatch):
    groups_built = []

    def spy(pools, samples, seed, tag, *targeted, _cases=taxonomy._cases):
        groups_built.append(tag)
        return _cases(pools, samples, seed, tag, *targeted)

    monkeypatch.setattr(taxonomy, "_cases", spy)
    run = _Run(["M"], "bool", (2,), DEFAULT_BUDGET, 11, 24)
    full, big = _Pool("ab", True), _Pool(range(200), True)
    cases = run.grouped_cases(
        [([full], "a", (0,), ()), ([full, full], "b", (), ()), ([big, big], "c", (), ())], 1
    )
    # completeness is read off the pools: the last group is past the cap
    assert not cases.complete
    assert groups_built == []
    stream = iter(cases)
    assert next(stream) == (0, "a")
    assert groups_built == ["a"]
    # the last group draws its share of the 24 samples: 24 // 3
    assert len(list(stream)) == 1 + 4 + 8
    assert groups_built == ["a", "b", "c"]
