"""Classification oracles, law suite wiring, and the planted-bug check."""
import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from gsrel import (
    CATALOG,
    DEFAULT_OPS,
    MONAD_FLAGS,
    VARIANTS,
    MonadOps,
    SuiteEntry,
    check_monad_laws,
    classify_kleisli,
    classify_monad,
    crosscheck_dom_paths,
    entries_to_jsonl,
    entries_to_table,
    in_variant,
    load_semiring,
    run_theorem_suite,
    suite_failures,
    variant_closure_reports,
    wm_eta,
    wm_make,
    wm_mu,
    wm_psi,
    wm_pushforward,
    wrel_from_doc,
    wrel_compose,
    wrel_dom,
)
from gsrel import FinSet, diagram, taxonomy, wrel
from gsrel.report import DEFAULT_BUDGET, EXHAUSTIVE_PASS, SAMPLED_PASS, check_cases, check_laws
from gsrel.taxonomy import (
    _classify_kleisli,
    _classify_monad,
    _coincidence_entry,
    _functions,
    _hom_monoid_reports,
    _memo,
    _Pool,
    _Run,
)

BOOL = load_semiring("bool")
NAT = load_semiring("nat")
QPLUS = load_semiring("q+")
GF2 = load_semiring("gf(2)")


def mu_drop_outer(sr, H):
    """Planted bug: forgets to scale inner weights by the outer ones."""
    out = {}
    for h, _w in H.entries:
        for k, v in h.entries:
            out[k] = sr.add(out.get(k, sr.zero), v)
    return wm_make(sr, out)


def broken_ops():
    from gsrel import wm_eta as e, wm_psi as p, wm_pushforward as pf

    return MonadOps(e, mu_drop_outer, p, pf)


# monad laws


def test_monad_laws_bool_all_exhaustive():
    closure = variant_closure_reports("M", BOOL, sizes=(1, 2), samples=160)
    reports = check_monad_laws("M", BOOL) + [
        closure[name] for name in ("eta", "psi", "mu", "pushforward")
    ]
    laws = [r.law for r in reports]
    assert laws == [
        "monad/mu-unit-left", "monad/mu-unit-right", "monad/mu-assoc",
        "monad/eta-natural", "monad/mu-natural", "monad/psi-natural",
        "monad/lax-assoc", "monad/lax-unit-left", "monad/lax-unit-right",
        "monad/symmetry", "monad/commutative-1", "monad/commutative-2",
        "closure/eta", "closure/psi", "closure/mu", "closure/pushforward",
    ]
    for r in reports:
        assert r.status == "exhaustive_pass", (r.law, r.witness)


def test_monad_laws_infinite_carriers_sampled_green():
    for sr in (NAT, QPLUS):
        for r in check_monad_laws("M", sr):
            assert r.passed, (sr.name, r.law, r.witness)


def test_planted_mu_bug_is_invisible_over_bool():
    # idempotent addition absorbs the missing scaling when all weights are 1
    reports = check_monad_laws("M", BOOL, ops=broken_ops())
    assert all(r.passed for r in reports)


def test_planted_mu_bug_caught_over_nat():
    reports = {r.law: r for r in check_monad_laws("M", NAT, ops=broken_ops())}
    failing = {law for law, r in reports.items() if not r.passed}
    assert "monad/mu-unit-right" in failing
    assert "monad/commutative-2" in failing
    # the witness re-runs: correct mu weights the inner map, broken mu does not
    w = reports["monad/mu-unit-right"].witness
    assert w is not None


def test_mu_unit_right_failure_is_real():
    # independent replay of the planted bug on the smallest collision case
    h1 = wm_make(NAT, {(0,): 1})
    h2 = wm_make(NAT, {(0,): 2})
    H = wm_make(NAT, {h1: 1, h2: 3})
    assert wm_mu(NAT, H).value(NAT, (0,)) == 1 + 3 * 2
    assert mu_drop_outer(NAT, H).value(NAT, (0,)) == 1 + 2


# kill matrix: one planted fault per MonadOps field, with the least number
# of failing monad/* rows on each carrier at seed 11.  A zero is correct
# behaviour where the fault is invisible (v*w*w = v*w when mul is
# idempotent); keep-first on fuzzy-max-min is wrong, yet no law sees it.
# KILL_DIGESTS pins all 12 rows per carrier, so a change to which cases run
# or how a law is evaluated cannot move which rows a fault breaks or the
# witness they show: the sha256 of the canonical JSON of each row's
# (law, status, checks_performed, witness), in carrier order.

KILL_CARRIERS = ("bool", "gf(2)", "nat", "nonneg-rational", "fuzzy-max-min")

_ALL_PASS = "59bf61e49c173c6357458598dbb62614dea3372fdd34bde8df465e5077e73b82"
KILL_DIGESTS = {
    "mu": (
        _ALL_PASS,
        _ALL_PASS,
        "5fc8b26052d9007562c03ea92462efe8504bf7bc8baf1fa91f38dbc7ec01c745",
        "6fd2f9a8592387ffe9cd1430bf009d42520ae4530d9b4e9a6b62f2ee659039fb",
        "eb4134d7ac1f4123b4c9f046fe62cbf561a35d8001ab942f795857fb1f2221db",
    ),
    "psi": (
        _ALL_PASS,
        _ALL_PASS,
        "6b785c8d8fc775ebf3b9f80c0872db8b20115f41bdd23ba07e3e8764773a8c3a",
        "befdde540b544bb5c106d7e62b4becf19273479e780b9754f6b072814be834d4",
        "da17e45ef6fe3ce4523e1c89776466afa01cb465a39793faa3df1a54e678bb85",
    ),
    "pushforward": (
        _ALL_PASS,
        "352a86584f7a1dc55eb0672e1bb3da924f90649d4dd792168d51c25600d904c4",
        "73c728641133914db15ebf84bc2e86be4b6ed524eba340b06543813e6081ecae",
        "73c728641133914db15ebf84bc2e86be4b6ed524eba340b06543813e6081ecae",
        "da17e45ef6fe3ce4523e1c89776466afa01cb465a39793faa3df1a54e678bb85",
    ),
    "eta": (
        _ALL_PASS,
        "f940b708cd304ef9b3a0879c4eb11a3a4e9a50f43e1eb8738d3d8118c3513d71",
        "da5ab605b52e150deb2405f50146fd6329bd7beae0f790865515ae35b5316790",
        "fe3c6833d38067d3b1f24053496344819f8de22473bc7ba2dd5074125d6793a0",
        "da17e45ef6fe3ce4523e1c89776466afa01cb465a39793faa3df1a54e678bb85",
    ),
}


def _rows_digest(reports):
    rows = [[r.law, r.status, r.checks_performed, r.witness] for r in reports]
    doc = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def psi_squares_right(sr, h, k):
    return wm_psi(sr, h, wm_make(sr, {y: sr.mul(w, w) for y, w in k.entries}))


def push_keep_first(sr, f, h):
    out = {}
    for k, v in h.entries:
        out.setdefault(f(k), v)
    return wm_make(sr, out)


def eta_two(sr, key):
    return wm_make(sr, {key: sr.add(sr.one, sr.one)})


@pytest.mark.parametrize(
    "field, fault, least_failing",
    [
        ("mu", mu_drop_outer, (0, 0, 2, 2, 1)),
        ("psi", psi_squares_right, (0, 0, 5, 5, 0)),
        ("pushforward", push_keep_first, (0, 2, 1, 1, 0)),
        ("eta", eta_two, (0, 2, 3, 3, 0)),
    ],
    ids=["mu-drops-outer", "psi-squares-right", "pushforward-keeps-first", "eta-two"],
)
def test_kill_matrix(field, fault, least_failing):
    ops = replace(DEFAULT_OPS, **{field: fault})
    for name, least, digest in zip(KILL_CARRIERS, least_failing, KILL_DIGESTS[field]):
        reports = check_monad_laws("M", load_semiring(name), seed=11, ops=ops)
        failing = [r.law for r in reports if not r.passed]
        assert len(failing) >= least, (name, failing)
        assert len(reports) == 12, (name, [r.law for r in reports])
        assert _rows_digest(reports) == digest, (name, reports)


# shared sub-terms: psi-natural evaluates each distinct psi(h, k) and
# pushforward of a pool map once per suite call, not once per case.  The op
# calls of check_monad_laws("M", bool, sizes=(0, 1, 3), seed=11) and of
# classify_monad("M", nat, seed=11) are pinned as ceilings, so a dropped
# memo shows as a failure, not as a slower run.

LAW_SUITE_CALLS = {"eta": 248, "mu": 8027, "psi": 3962, "pushforward": 70205}
FLAG_CALLS = {"eta": 2, "mu": 0, "psi": 13, "pushforward": 13}


def _counting_ops():
    calls = dict.fromkeys(("eta", "mu", "psi", "pushforward"), 0)

    def counted(field):
        op = getattr(DEFAULT_OPS, field)

        def call(*args):
            calls[field] += 1
            return op(*args)

        return call

    return calls, replace(DEFAULT_OPS, **{field: counted(field) for field in calls})


def _law_suite_calls():
    calls, ops = _counting_ops()
    reports = check_monad_laws("M", BOOL, sizes=(0, 1, 3), seed=11, ops=ops)
    return calls, {r.law: r for r in reports}


def test_psi_natural_shares_its_sub_terms():
    calls, by_law = _law_suite_calls()
    natural = by_law["monad/psi-natural"]
    assert natural.status == "exhaustive_pass"
    # evaluated afresh, psi-natural alone would take three psi a case
    assert natural.checks_performed > LAW_SUITE_CALLS["psi"]
    assert calls["psi"] <= LAW_SUITE_CALLS["psi"], calls
    assert calls["pushforward"] <= LAW_SUITE_CALLS["pushforward"], calls


def test_lax_assoc_shares_its_inner_pairings():
    calls, by_law = _law_suite_calls()
    lax = by_law["monad/lax-assoc"]
    assert lax.status == "exhaustive_pass"
    # four pairings a case when evaluated afresh; only the two outer ones are
    # not shared
    assert calls["psi"] <= LAW_SUITE_CALLS["psi"], (calls, lax.checks_performed)


def test_mu_natural_shares_its_mu_and_inner_pushforwards():
    calls, by_law = _law_suite_calls()
    natural = by_law["monad/mu-natural"]
    assert natural.status == "exhaustive_pass"
    # evaluated afresh, mu-natural alone takes two mu a case, and two
    # pushforwards plus one per inner map; shared, mu(H) is taken once per
    # distinct H and the inner images once per distinct (f, h)
    assert calls["mu"] <= LAW_SUITE_CALLS["mu"], (calls, natural.checks_performed)
    assert calls["pushforward"] <= LAW_SUITE_CALLS["pushforward"], calls


def test_monad_suites_make_at_most_the_pinned_op_calls():
    calls, _ = _law_suite_calls()
    assert all(calls[op] <= pin for op, pin in LAW_SUITE_CALLS.items()), calls
    calls, ops = _counting_ops()
    classify_monad("M", NAT, seed=11, ops=ops)
    assert all(calls[op] <= pin for op, pin in FLAG_CALLS.items()), calls


def test_structural_arrows_are_built_once_per_word(monkeypatch):
    built = []
    for name in ("wrel_copy", "wrel_id", "wrel_del"):
        def counted(sr, word, _name=name, _op=getattr(wrel, name)):
            built.append((_name, word))
            return _op(sr, word)

        monkeypatch.setattr(wrel, name, counted)
    xs = {(FinSet("X", n),) for n in (0, 1, 3)}
    ys = {(FinSet("Y", n),) for n in (0, 1, 3)}

    closed, monad_path = crosscheck_dom_paths(BOOL, "M", sizes=(0, 1, 3))
    assert closed.passed and monad_path.passed
    assert len(built) == len(set(built)), "an arrow was built twice"
    assert {w for name, w in built if name == "wrel_copy"} == xs
    assert {w for name, w in built if name == "wrel_id"} == xs
    assert {w for name, w in built if name == "wrel_del"} == ys

    built.clear()
    classify_kleisli("M", BOOL, sizes=(0, 1, 3))
    assert built and len(built) == len(set(built)), "an arrow was built twice"


def test_suite_shares_one_structure_and_one_gsm_check_per_semiring(monkeypatch):
    structures = []
    init = wrel.Structure.__init__

    def counted_init(self, sr):
        structures.append(sr.name)
        init(self, sr)

    monkeypatch.setattr(wrel.Structure, "__init__", counted_init)
    built = []
    for name in ("wrel_copy", "wrel_id", "wrel_del"):
        def counted(sr, word, _name=name, _op=getattr(wrel, name)):
            built.append((sr.name, _name, word))
            return _op(sr, word)

        monkeypatch.setattr(wrel, name, counted)
    evaluated = []
    holds = diagram._LawCase.holds

    def counted_holds(self, law):
        if law.startswith("gsm/"):
            evaluated.append((self.st.sr.name, law, tuple(self.sorts.values())))
        return holds(self, law)

    monkeypatch.setattr(diagram._LawCase, "holds", counted_holds)

    entries = run_theorem_suite(["bool", "nat"], ["M", "Md"], sizes=(0, 1))
    assert sorted(structures) == ["bool", "nat"]
    assert built and len(built) == len(set(built)), "an arrow was built twice"
    assert len(evaluated) == len(set(evaluated)), "a gsm/ law was evaluated twice"
    # per semiring: four unary laws at I, A0 and A1, two over the four (Ai, Bj)
    # pairs, and the unit object once
    for semiring in ("bool", "nat"):
        assert sum(e[0] == semiring for e in evaluated) == 4 * 3 + 2 * 4 + 1
        gsm = [e for e in entries if e.semiring == semiring and e.law.startswith("gsm/")]
        assert len(gsm) == 7 and all(e.status == "exhaustive_pass" for e in gsm)


def test_memo_runs_op_once_per_distinct_arguments():
    seen = []

    def op(sr, *args):
        seen.append(args)
        return list(args)

    memo = _memo(op)
    first = memo(NAT, 1, 2)
    assert memo(NAT, 1, 2) is first
    assert memo(NAT, 2, 1) == [2, 1]
    assert memo(NAT, 1) == [1]
    assert memo(NAT, 1, 2) is first
    assert seen == [(1, 2), (2, 1), (1,)]


# closure of the sub-families


def test_affine_family_closed_everywhere():
    for name in CATALOG:
        sr = load_semiring(name)
        reps = variant_closure_reports("Ma", sr)
        for key, r in reps.items():
            assert r.passed, (name, key, r.witness)


def test_closure_with_zero_samples_checks_at_least_one_case():
    zero = variant_closure_reports("Ma", NAT, samples=0)
    assert zero == variant_closure_reports("Ma", NAT, samples=1)
    for key, r in zero.items():
        assert r.checks_performed > 0, (key, r.status)


def test_known_closure_refutations():
    cases = {
        ("Mm", QPLUS): {"mu"},
        ("Md", QPLUS): {"mu"},
        ("Md", GF2): {"mu"},
        ("Mi", NAT): {"mu", "pushforward"},
        ("Mi", GF2): {"mu", "pushforward"},
    }
    for (variant, sr), broken in cases.items():
        reps = variant_closure_reports(variant, sr)
        got = {key for key, r in reps.items() if not r.passed}
        assert got == broken, (variant, sr.name, got)
        for key in broken:
            assert reps[key].witness is not None


def test_mm_mu_refutation_replayed_by_hand():
    # H weights two multiplicative-idempotent-total maps by 1/2 each;
    # H itself is in Mm but mu(H) has total 1/2, and (1/2)^2 != 1/2
    half = Fraction(1, 2)
    empty = wm_make(QPLUS, {})
    point = wm_eta(QPLUS, ())
    H = wm_make(QPLUS, {empty: half, point: half})
    assert in_variant(QPLUS, empty, "Mm")
    assert in_variant(QPLUS, point, "Mm")
    assert in_variant(QPLUS, H, "Mm")
    flat = wm_mu(QPLUS, H)
    assert not in_variant(QPLUS, flat, "Mm")


def test_mi_pushforward_refutation_replayed_by_hand():
    # collapsing two invertible weights adds them; 1+1=2 has no inverse in nat
    h = wm_make(NAT, {(0,): 1, (1,): 1})
    assert in_variant(NAT, h, "Mi")
    g = wm_pushforward(NAT, lambda k: (1,), h)
    assert not in_variant(NAT, g, "Mi")


# classification oracles


def test_monad_flags_bool():
    mc = classify_monad("M", BOOL)
    assert mc.flag_values() == {
        "affine": False,
        "relevant": False,
        "domain_preserving": True,
        "mass_preserving": True,
        "unital_domain_preserving": True,
        "weakly_affine": False,
    }
    assert mc.consistent
    for fv in mc.flags.values():
        assert fv.well_posed


def test_monad_flags_mi_qplus_weakly_affine():
    mc = classify_monad("Mi", QPLUS)
    assert mc.flag_values()["weakly_affine"] is True
    assert mc.flags["weakly_affine"].well_posed
    assert mc.consistent


def test_monad_flags_mi_nat_oracle_disagreement():
    # the pointwise reading of affineness passes but the diagram one fails;
    # the family is not closed under pushforward, so the check is flagged
    # as not well-posed rather than silently preferring one answer
    mc = classify_monad("Mi", NAT)
    fv = mc.flags["affine"]
    assert fv.pointwise.passed is True
    assert fv.diagram.passed is False
    assert not fv.well_posed
    assert not fv.consistent
    assert not mc.consistent


def test_kleisli_flags_frozen_table():
    expect = {
        ("M", BOOL): dict(markov=False, restriction=False, domain_category=True,
                          mass_category=True, weakly_markov=False),
        ("Ma", BOOL): dict(markov=True, restriction=False, domain_category=True,
                           mass_category=True, weakly_markov=True),
        ("Mr", BOOL): dict(markov=False, restriction=True, domain_category=True,
                           mass_category=True, weakly_markov=False),
        ("M", NAT): dict(markov=False, restriction=False, domain_category=False,
                         mass_category=False, weakly_markov=False),
        ("Mi", QPLUS): dict(markov=False, restriction=False, domain_category=False,
                            mass_category=False, weakly_markov=True),
    }
    for (variant, sr), want in expect.items():
        kc = classify_kleisli(variant, sr)
        got = kc.flag_values()
        assert list(got) == ["gsm_axioms", *kc.reports]
        assert all(got[name] is r.passed for name, r in kc.reports.items())
        assert got.pop("gsm_axioms") is True
        assert got == want, (variant, sr.name)


def test_failed_kleisli_flags_count_checks_to_their_first_failure():
    # every flag, weakly_markov included, stops at its first failing arrow
    want = {
        "nat": dict(markov=4, restriction=7, domain_category=7, mass_category=7, weakly_markov=2),
        "bool": dict(markov=4, restriction=10, domain_category=31, mass_category=31,
                     weakly_markov=2),
    }
    for name, counts in want.items():
        kc = classify_kleisli("M", name)
        assert {flag: r.checks_performed for flag, r in kc.reports.items()} == counts
        assert [r.passed for r in kc.reports.values()] == [
            name == "bool" and flag.endswith("category") for flag in counts
        ]


def test_check_laws_gives_each_law_its_check_cases_report():
    preds = {
        "even": lambda n: n % 2 == 0,
        "small": lambda n: n < 3,
        "always": lambda n: True,
        "never": lambda n: False,
    }
    asked = []

    def holds_for(n):
        return lambda law: asked.append((law, n)) or preds[law](n)

    for exhaustive in (True, False):
        got = check_laws(list(preds), iter(range(1, 8)), holds_for, lambda n: {"n": n}, exhaustive)
        assert got == [
            check_cases(law, range(1, 8), holds, lambda n: {"n": n}, exhaustive)
            for law, holds in preds.items()
        ]
    # a law is not asked again after its first failure
    assert ("small", 3) in asked and ("small", 4) not in asked
    assert ("never", 1) in asked and ("never", 2) not in asked
    # the walk ends once every law has failed
    assert check_laws(["even", "never"], range(1, 8), holds_for, str)[0].checks_performed == 1
    assert asked[-1] == ("never", 1)


def test_coincidence_row_names_an_arrow_missing_from_md():
    # nat is not a distributive lattice, so the suite never emits this row
    # there: the weight-2 arrow X1 -> Y1 is in M but not in Md, as 2 * 2 != 2
    run = _Run(["M", "Md"], "nat", (0, 1), DEFAULT_BUDGET, 11, 24)
    pairs = [(_classify_monad(run, v), _classify_kleisli(run, v)) for v in ("M", "Md")]
    entry = _coincidence_entry(run, *pairs)
    assert (entry.status, entry.checks_performed) == ("counterexample", 9)
    assert entry.witness == {
        "sizes": [1, 1],
        "missing_from": "Md",
        "arrow": {
            "dom": [{"name": "X", "size": 1}],
            "cod": [{"name": "Y", "size": 1}],
            "entries": [[["0"], ["0"], "2"]],
        },
    }


@pytest.mark.parametrize("swapped", ["monad", "kleisli"])
def test_coincidence_row_names_flags_that_differ(swapped):
    # bool is a distributive lattice, so every M arrow is in Md and back;
    # Ma's flags stand in for Md's, one classification at a time
    run = _Run(["M", "Md", "Ma"], "bool", (0, 1), DEFAULT_BUDGET, 11, 24)
    mc, kc = (
        {v: classify(run, v) for v in ("M", "Ma")}
        for classify in (_classify_monad, _classify_kleisli)
    )
    md_pair = (mc["Ma"], kc["M"]) if swapped == "monad" else (mc["M"], kc["Ma"])
    entry = _coincidence_entry(run, (mc["M"], kc["M"]), md_pair)
    assert (entry.status, entry.checks_performed) == ("counterexample", 12)
    flags = mc if swapped == "monad" else kc
    assert entry.witness == {
        f"{swapped}_flags_M": flags["M"].flag_values(),
        f"{swapped}_flags_Md": flags["Ma"].flag_values(),
    }
    assert entry.witness[f"{swapped}_flags_M"] != entry.witness[f"{swapped}_flags_Md"]


def test_nested_pool_over_a_sampled_inner_pool_is_sampled():
    # each enumerated branch: every map over the inner maps, maps of outer
    # support at most 3, and the one map over no inner maps
    run = _Run(["M"], "bool", (2,), DEFAULT_BUDGET, 11, 24)
    [inner] = run.maps("M", run.words(), "t").values()
    assert inner.complete
    for pool, max_support in ((inner, None), (inner, 3), (_Pool([], True), None)):
        enumerated = run.nested("M", pool, 8, "t", max_support)
        assert enumerated.complete
        sampled = run.nested("M", _Pool(pool, False), 8, "t", max_support)
        assert sampled == enumerated and not sampled.complete


def test_grouped_cases_are_complete_only_when_every_group_is_enumerated():
    run = _Run(["M"], "bool", (2,), DEFAULT_BUDGET, 11, 24)
    full, part, big = _Pool("ab", True), _Pool("ab", False), _Pool(range(200), True)
    both = run.grouped_cases([([full], "a", (0,), ()), ([full, full], "b", (), ("z",))], 1)
    assert both.complete
    assert both == [(0, "a"), (0, "b"), *[(x, y, "z") for x in "ab" for y in "ab"]]
    assert not run.grouped_cases([([full], "a", (), ()), ([part], "b", (), ())], 1).complete
    # complete pools whose product (40,000) is past the cap are sampled
    sampled = run.grouped_cases([([big, big], "c", (), ())], 1)
    assert not sampled.complete and len(sampled) == 24


def test_functions_are_a_complete_pool():
    X0, X2, Y0, Y3 = (FinSet("X", 0),), (FinSet("X", 2),), (FinSet("Y", 0),), (FinSet("Y", 3),)
    for dom, cod, count in ((X0, Y0, 1), (X0, Y3, 1), (X2, Y0, 0), (X2, Y3, 9), ((), Y3, 3)):
        fns = _functions(dom, cod)
        assert fns.complete and len(fns) == count
    # the empty table: the one function out of an empty set
    assert [fn.table for fn in _functions(X0, Y0)] == [{}]
    assert len({tuple(sorted(fn.table.items())) for fn in _functions(X2, Y3)}) == 9


def test_a_word_family_is_sampled_unless_every_word_is_enumerated():
    # gf(17) maps over X0 and X1 are enumerated, over X2 and X3 sampled.
    # The family is sampled as a whole; enumerating every word that can be
    # would run 872,208 psi-natural cases here instead of 3,600.
    reports = {r.law: r for r in check_monad_laws("M", "gf(17)", sizes=(0, 1, 2, 3), seed=11)}
    psi_natural = reports["monad/psi-natural"]
    assert (psi_natural.status, psi_natural.checks_performed) == (SAMPLED_PASS, 3600)


def test_unit_word_flag_rows_read_the_unit_pool_own_completeness():
    # Over gf(17) the unit word's 16 nonzero maps are all of them, though the
    # X2 and X3 pools are sampled: the unit rows are exhaustive.
    flag = classify_monad("Mi", "gf(17)", sizes=(0, 1, 2, 3), seed=11).flags["weakly_affine"]
    for report in (flag.pointwise, flag.diagram):
        assert (report.status, report.checks_performed) == (EXHAUSTIVE_PASS, 16)


def test_each_homm_row_reads_its_own_completeness():
    # The 1 + 17 + 289 arrows of the three Y-pools are enumerated, so
    # mul-unit is exhaustive; the squares and cubes of the 289-arrow pool
    # are past the case cap, so mul-comm and mul-assoc are sampled.
    run = _Run(["M"], "gf(17)", (0, 1, 2), DEFAULT_BUDGET, 11, 24)
    got = {r.law: (r.status, r.checks_performed) for r in _hom_monoid_reports(run, "M")}
    assert got == {
        "homm/mul-assoc": (SAMPLED_PASS, 4922),
        "homm/mul-comm": (SAMPLED_PASS, 298),
        "homm/mul-unit": (EXHAUSTIVE_PASS, 307),
    }


def test_a_failing_homm_row_names_its_arrows():
    # a semiring of order 4 whose multiplication is not commutative:
    # 2 * 3 = 0 but 3 * 2 = 3, so the scalars 2 and 3 on Y1 do not commute
    plus = [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 2], [3, 1, 2, 3]]
    times = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 3, 0]]
    sr = load_semiring({
        "name": "noncomm4",
        "elements": ["0", "1", "2", "3"],
        "zero": "0",
        "one": "1",
        "plus": [[str(v) for v in row] for row in plus],
        "times": [[str(v) for v in row] for row in times],
    })
    run = _Run(["M"], sr, (1,), DEFAULT_BUDGET, 11, 24)
    got = {r.law: r for r in _hom_monoid_reports(run, "M")}
    comm = got["homm/mul-comm"]
    assert (comm.status, comm.checks_performed) == ("counterexample", 12)
    assert comm.witness == [
        {"dom": [{"name": "Y", "size": 1}], "cod": [], "entries": [[["0"], [], label]]}
        for label in ("2", "3")
    ]
    assert got["homm/mul-assoc"].passed and got["homm/mul-unit"].passed


def test_weakly_markov_table_matches_builtin_gf17():
    p = 17
    labels = [str(i) for i in range(p)]
    table = load_semiring({
        "elements": labels,
        "plus": [[labels[(a + b) % p] for b in range(p)] for a in range(p)],
        "times": [[labels[a * b % p] for b in range(p)] for a in range(p)],
        "zero": "0",
        "one": "1",
    })
    gf17 = load_semiring("gf(17)")
    got, want = (classify_kleisli("M", sr, sizes=(3,)) for sr in (table, gf17))
    assert got.flags["weakly_markov"] is want.flags["weakly_markov"] is False
    for kc in (got, want):
        witness = kc.reports["weakly_markov"].witness
        assert list(witness) == ["dom_size", "arrow", "reason"]
        assert witness["reason"] == "no inverse under the scalar multiplication"
    assert got.reports["weakly_markov"].checks_performed == (
        want.reports["weakly_markov"].checks_performed
    )


EMPTY = "sizes must be nonempty"
UNKNOWN = "unknown variant 'Mx'"
BUDGET = "budget must be positive"


# every entry point checks its arguments in one place: empty sizes, an
# unknown variant and, where it takes one, a nonpositive budget
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: crosscheck_dom_paths("nat", sizes=()), EMPTY, id="crosscheck_dom_paths"
        ),
        pytest.param(
            lambda: check_monad_laws("M", "bool", sizes=()), EMPTY, id="check_monad_laws"
        ),
        pytest.param(
            lambda: variant_closure_reports("M", "nat", sizes=()),
            EMPTY,
            id="variant_closure_reports",
        ),
        pytest.param(lambda: classify_monad("M", "nat", sizes=()), EMPTY, id="classify_monad"),
        pytest.param(lambda: classify_kleisli("M", "nat", sizes=()), EMPTY, id="classify_kleisli"),
        pytest.param(
            lambda: run_theorem_suite(["bool"], ["M"], sizes=()), EMPTY, id="run_theorem_suite"
        ),
        pytest.param(lambda: crosscheck_dom_paths("nat", "Mx"), UNKNOWN, id="crosscheck-variant"),
        pytest.param(lambda: check_monad_laws("Mx", "bool"), UNKNOWN, id="laws-variant"),
        pytest.param(lambda: variant_closure_reports("Mx", "nat"), UNKNOWN, id="closure-variant"),
        pytest.param(lambda: classify_monad("Mx", "nat"), UNKNOWN, id="monad-variant"),
        pytest.param(lambda: classify_kleisli("Mx", "nat"), UNKNOWN, id="kleisli-variant"),
        pytest.param(lambda: run_theorem_suite(["bool"], ["M", "Mx"]), UNKNOWN, id="suite-variant"),
        pytest.param(lambda: check_monad_laws("M", "bool", budget=0), BUDGET, id="laws-budget"),
        pytest.param(lambda: classify_monad("M", "nat", budget=0), BUDGET, id="monad-budget"),
        pytest.param(lambda: classify_kleisli("M", "nat", budget=0), BUDGET, id="kleisli-budget"),
        pytest.param(
            lambda: run_theorem_suite(["bool"], ["M"], budget=0), BUDGET, id="suite-budget"
        ),
    ],
)
def test_law_suites_reject_empty_sizes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_nat_domain_category_witness_reevaluates():
    kc = classify_kleisli("M", NAT)
    rep = kc.reports["domain_category"]
    assert rep.status == "counterexample"
    w = rep.witness
    f = wrel_from_doc(NAT, w["arrow"])
    lhs = wrel_compose(NAT, wrel_dom(NAT, f), f)
    assert lhs != f


def test_crosscheck_dom_paths_all_semirings():
    for name in CATALOG:
        sr = load_semiring(name)
        closed, monad_path = crosscheck_dom_paths(sr)
        assert closed.passed, (name, closed.witness)
        assert monad_path.passed, (name, monad_path.witness)


# suite wiring


def test_suite_entry_blocking_rules():
    ce = "counterexample"
    assert SuiteEntry("kleisli/markov", "Ma", "bool", ce, None, 1).blocking
    assert SuiteEntry("monad/mu-assoc", "M", "nat", ce, None, 1).blocking
    assert not SuiteEntry("closure/mu", "Mi", "nat", ce, None, 1).blocking
    assert not SuiteEntry("gated/dom-before-copy", "M", "nat", ce, None, 1).blocking
    assert not SuiteEntry("kleisli/markov", "Ma", "bool", "sampled_pass", None, 1).blocking


def test_suite_entry_doc_field_order_and_fractions():
    e = SuiteEntry("x/y", "M", "q+", "sampled_pass", {"v": Fraction(1, 2)}, 7)
    doc = e.to_doc()
    assert list(doc) == ["law", "variant", "semiring", "status", "witness", "checks_performed"]
    assert doc["witness"] == {"v": "1/2"}


EXPECTED_INFORMATIONAL = {
    ("closure/mu", "Mm", "nonneg-rational"),
    ("closure/mu", "Md", "nonneg-rational"),
    ("closure/mu", "Mm", "fuzzy-max-times"),
    ("closure/mu", "Md", "fuzzy-max-times"),
    ("closure/mu", "Md", "gf(2)"),
    ("closure/mu", "Mi", "nat"),
    ("closure/mu", "Mi", "gf(2)"),
    ("closure/pushforward", "Mi", "nat"),
    ("closure/pushforward", "Mi", "gf(2)"),
    ("closure/composition", "Mi", "gf(2)"),
    ("gated/oracle-affine-agreement", "Mi", "nat"),
    ("gated/oracle-affine-agreement", "Mi", "gf(2)"),
    ("gated/unital-vs-mass-category", "Mi", "nat"),
    ("gated/weakly-affine-and-unital-vs-affine", "Mi", "nat"),
    ("gated/weakly-affine-and-unital-vs-affine", "Mi", "gf(2)"),
    ("gated/markov-decomposition", "Mi", "gf(2)"),
    ("gated/dom-before-copy", "M", "nat"),
    ("gated/dom-before-copy", "Mi", "nat"),
    ("gated/dom-before-copy", "M", "nonneg-rational"),
    ("gated/dom-before-copy", "Mi", "nonneg-rational"),
    ("gated/dom-before-copy", "M", "fuzzy-max-times"),
}


def test_full_suite_zero_blocking_and_expected_findings(catalog_suite):
    assert suite_failures(catalog_suite) == []
    found = {
        (e.law, e.variant, e.semiring)
        for e in catalog_suite
        if e.status == "counterexample"
    }
    assert found == EXPECTED_INFORMATIONAL


def test_suite_with_planted_bug_fails():
    entries = run_theorem_suite(semirings=("nat",), variants=("M",), ops=broken_ops())
    bad = suite_failures(entries)
    assert bad
    assert any(e.law == "monad/commutative-2" for e in bad)
    # bool alone cannot see this bug
    entries = run_theorem_suite(semirings=("bool",), variants=("M",), ops=broken_ops())
    assert suite_failures(entries) == []


def test_suite_runs_a_repeated_variant_once():
    once = run_theorem_suite(["bool"], ["M", "Md"], sizes=(0, 1), seed=11)
    again = run_theorem_suite(["bool"], ["M", "Md", "M", "Md"], sizes=(0, 1), seed=11)
    assert entries_to_jsonl(again) == entries_to_jsonl(once)


def test_suite_refuses_a_semiring_named_twice(monkeypatch):
    def no_run(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(taxonomy, "_Run", no_run)
    for semirings in (["bool", "bool"], ["nat", "bool", "boolean"], [BOOL, "bool"]):
        with pytest.raises(ValueError, match="semiring 'bool' is given twice"):
            run_theorem_suite(semirings, ["M"], sizes=(0,))


@pytest.mark.parametrize(
    "semirings, variants",
    [(["nat"], ["M"]), (["fuzzy-max-min"], ["M", "Md"])],
    ids=["nat-M", "fuzzy-max-min-M-Md"],
)
def test_suite_budget_caps_samples_in_every_family(semirings, variants):
    capped = run_theorem_suite(semirings, variants, sizes=(0, 1), seed=11, budget=3, samples=24)
    three = run_theorem_suite(semirings, variants, sizes=(0, 1), seed=11, samples=3)
    assert entries_to_jsonl(capped) == entries_to_jsonl(three)


def test_suite_gated_rows_never_block(catalog_suite):
    for e in catalog_suite:
        if e.law.startswith(("gated/", "closure/")):
            assert not e.blocking


def test_gating_witness_names_failed_preconditions(catalog_suite):
    row = next(
        e
        for e in catalog_suite
        if (e.law, e.variant, e.semiring) == ("gated/oracle-affine-agreement", "Mi", "nat")
    )
    assert "pushforward" in str(row.witness)


def test_jsonl_is_deterministic(catalog_suite):
    # a second, restricted run gives the catalog run's bytes for its rows
    a = entries_to_jsonl(run_theorem_suite(semirings=("bool", "gf(2)")))
    b = entries_to_jsonl([e for e in catalog_suite if e.semiring in ("bool", "gf(2)")])
    assert a == b
    assert a.endswith("\n")
    import json

    first = json.loads(a.splitlines()[0])
    assert list(first) == ["law", "variant", "semiring", "status", "witness", "checks_performed"]


def test_table_rendering_marks_failures(catalog_suite):
    entries = [e for e in catalog_suite if e.semiring == "nat" and e.variant in ("-", "M", "Mi")]
    text = entries_to_table(entries)
    assert "closure/mu" in text
    assert "INFO" in text
    assert "FAIL" not in text


def test_constants():
    assert VARIANTS == ("M", "Mr", "Ma", "Mm", "Md", "Mi")
    assert len(MONAD_FLAGS) == 6
    assert set(CATALOG) == {
        "bool", "nat", "nonneg-rational", "fuzzy-max-min", "fuzzy-max-times", "gf(2)",
    }
