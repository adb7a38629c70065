"""Acceptance suite: eleven criteria, one printed verdict line each.

Run with -s (or read captured stdout) to see the C1..C11 lines. Each
criterion is a separate test so a failure pinpoints its number. Total
runtime stays under a minute.
"""
import hashlib
import itertools
import json
from fractions import Fraction

from gsrel import (
    CATALOG,
    VARIANTS,
    FinSet,
    check_gsm_axioms,
    check_monad_laws,
    check_term_equality,
    classify_kleisli,
    crosscheck_dom_paths,
    derive_rng,
    enumerate_arrows,
    gsm_axiom_pairs,
    hom_scalar_mul,
    in_variant,
    load_interpretation,
    load_semiring,
    parse_term,
    print_term,
    sample_arrows,
    suite_failures,
    wrel_classify,
    wrel_compose,
    wrel_del,
    wrel_dom,
    wrel_eq,
    wrel_from_doc,
    wrel_make,
    wrel_to_doc,
)
from gsrel.cli import main as cli_main

BOOL = load_semiring("bool")
NAT = load_semiring("nat")
QPLUS = load_semiring("q+")


def verdict(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"C{num} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def words_up_to_total_size(n):
    """All words with positive component sizes summing to at most n."""
    out = [()]
    def grow(prefix, left):
        for s in range(1, left + 1):
            w = prefix + (s,)
            out.append(w)
            grow(w, left - s)
    grow((), n)
    return [tuple(FinSet(f"S{i}_{s}", s) for i, s in enumerate(shape)) for shape in out]


def total_size(word):
    return sum(s.size for s in word)


def test_c1_gsm_axioms_bool_words_total_size_4():
    words = words_up_to_total_size(4)
    pairs = [
        (u, v)
        for u, v in itertools.product(words, repeat=2)
        if total_size(u) + total_size(v) <= 4
    ]
    reports = check_gsm_axioms(BOOL, words, pairs)
    bad = [(k, r.witness) for k, r in reports.items() if not r.passed]
    checks = sum(r.checks_performed for r in reports.values())
    verdict(
        1, "gs-monoidal axioms, bool, words of total size <= 4",
        not bad and len(words) == 16,
        f"{len(words)} words, {len(pairs)} pairs, {checks} checks",
    )


def test_c2_monad_laws_exhaustive_and_sampled():
    ok = True
    details = []
    for name in ("bool", "gf(2)"):
        reps = check_monad_laws("M", load_semiring(name))
        good = all(r.law.startswith("monad/") and r.status == "exhaustive_pass" for r in reps)
        ok = ok and good and len(reps) == 12
        details.append(f"{name} exhaustive x{len(reps)}")
    for name in ("nat", "q+"):
        reps = check_monad_laws("M", load_semiring(name), samples=520)
        good = all(
            r.passed and (r.checks_performed >= 500 or r.status == "exhaustive_pass")
            for r in reps
        )
        ok = ok and good
        details.append(f"{name} sampled >=500")
    verdict(2, "monad and commutativity laws", ok, "; ".join(details))


def test_c3_domain_category_bool_exhaustive():
    sizes = [(), (FinSet("A1", 1),), (FinSet("A2", 2),)]
    checked = 0
    all_dom_mass = True
    refute_total = refute_copy = False
    hom_22 = None
    for dom in sizes:
        for cod in sizes:
            arrows = enumerate_arrows(BOOL, dom, cod)
            if dom and cod and dom[0].size == 2 and cod[0].size == 2:
                hom_22 = len(arrows)
            for f in arrows:
                flags = wrel_classify(BOOL, f)
                checked += 1
                all_dom_mass = all_dom_mass and flags.domain_eq and flags.mass_eq
                refute_total = refute_total or not flags.total
                refute_copy = refute_copy or not flags.copyable
    verdict(
        3, "(M, bool) is a domain and mass category but neither markov nor restriction",
        all_dom_mass and refute_total and refute_copy and hom_22 == 16,
        f"{checked} arrows exhaustive, 16 in the 2x2 hom-set",
    )


def test_c4_nat_domain_equation_counterexample():
    kc = classify_kleisli("M", NAT)
    rep = kc.reports["domain_category"]
    ok = rep.status == "counterexample"
    lhs_val = rhs_val = None
    if ok:
        f = wrel_from_doc(NAT, rep.witness["arrow"])
        lhs = wrel_compose(NAT, wrel_dom(NAT, f), f)
        pairs = [(x, y) for x, h in f.rows for y, _ in h.entries]
        x, y = pairs[0]
        lhs_val, rhs_val = lhs.value(NAT, x, y), f.value(NAT, x, y)
        ok = lhs_val == 4 and rhs_val == 2 and lhs != f
    verdict(
        4, "(M, nat) domain-equation refutation with weight-2 witness",
        ok, f"dom(f);f = {lhs_val} vs f = {rhs_val}",
    )


def test_c5_markov_and_restriction_instances():
    ma = classify_kleisli("Ma", BOOL)
    mr = classify_kleisli("Mr", BOOL)
    ok = (
        ma.flags["markov"] is True
        and ma.reports["markov"].status == "exhaustive_pass"
        and mr.flags["restriction"] is True
        and mr.reports["restriction"].status == "exhaustive_pass"
    )
    verdict(5, "(Ma, bool) markov and (Mr, bool) restriction, exhaustive", ok)


def test_c6_dual_oracle_consistency_across_catalog(catalog_suite):
    entries = catalog_suite
    blocking = suite_failures(entries)
    agreement = [e for e in entries if e.law.startswith(("oracle/", "theorem/"))]
    agreement_bad = [e for e in agreement if e.status == "counterexample"]
    pairs = {(e.variant, e.semiring) for e in entries if e.variant != "-"}
    ok = not blocking and not agreement_bad and len(pairs) == 36
    verdict(
        6, "pointwise vs diagram oracles and iff-theorems, 36 pairs",
        ok, f"{len(entries)} suite rows, 0 blocking",
    )


def test_c7_dom_pipeline_crosscheck():
    ok = True
    for name in CATALOG:
        sr = load_semiring(name)
        for variant in VARIANTS:
            closed, path = crosscheck_dom_paths(sr, variant, samples=100)
            ok = ok and closed.passed and path.passed
            if name == "bool":
                ok = ok and closed.status == "exhaustive_pass"
                ok = ok and path.status == "exhaustive_pass"
    verdict(7, "dom closed form and monad-path pipeline agree, 36 pairs", ok)


def test_c8_weakly_affine_instance():
    Y = (FinSet("Y", 2),)
    unit = wrel_del(QPLUS, Y)
    rng = derive_rng(0, "antipode")
    group_ok = True
    n_values = 0
    for _ in range(200):
        vals = [Fraction(rng.randrange(1, 40), rng.randrange(1, 40)) for _ in range(2)]
        n_values += len(vals)
        f = wrel_make(QPLUS, Y, (), {(i,): {(): v} for i, v in enumerate(vals)})
        g = wrel_make(QPLUS, Y, (), {(i,): {(): 1 / v} for i, v in enumerate(vals)})
        group_ok = group_ok and hom_scalar_mul(QPLUS, f, g) == unit

    kc = classify_kleisli("Mi", QPLUS)
    markov_false = kc.flags["markov"] is False and kc.reports["markov"].witness is not None
    two = wrel_make(QPLUS, Y, (), {(0,): {(): Fraction(2)}, (1,): {(): Fraction(2)}})
    distinct = not wrel_eq(unit, two)

    decomposition_ok = True
    excluded = []
    for name in CATALOG:
        sr = load_semiring(name)
        kc = classify_kleisli("Mi", sr)
        if not kc.composition_closure.passed:
            excluded.append(name)
            continue
        fv = kc.flag_values()
        decomposition_ok = decomposition_ok and (
            fv["markov"] == (fv["weakly_markov"] and fv["mass_category"])
        )
    verdict(
        8, "(Mi, q+) weakly affine: antipodes, markov refuted, decomposition identity",
        group_ok and n_values >= 200 and markov_false and distinct and decomposition_ok
        and excluded == ["gf(2)"],
        f"{n_values} antipode values; excluded (composition not closed): {excluded}",
    )


def test_c9_distributive_lattice_coincidence(catalog_suite):
    X = (FinSet("X", 2),)
    Y = (FinSet("Y", 2),)
    ok = True
    for name in ("bool", "fuzzy-max-min"):
        sr = load_semiring(name)
        if sr.finite:
            m_set = set(enumerate_arrows(sr, X, Y, "M"))
            md_set = set(enumerate_arrows(sr, X, Y, "Md"))
            ok = ok and m_set == md_set
        else:
            for f in sample_arrows(sr, X, Y, "M", seed=1, n=120):
                flags = all(
                    in_variant(sr, h, "Md") for _x, h in f.rows
                )
                ok = ok and flags
        km = classify_kleisli("M", sr)
        kd = classify_kleisli("Md", sr)
        ok = ok and km.flag_values() == kd.flag_values()
    rows = [e for e in catalog_suite if e.law == "coincidence/m-equals-md"]
    ok = ok and {r.semiring for r in rows} == {"bool", "fuzzy-max-min"} and len(rows) == 2
    ok = ok and all(r.status != "counterexample" for r in rows)
    verdict(9, "M and Md coincide over distributive lattices", ok)


CORPUS = [
    "id[A]", "id[]", "copy[A]", "del[A]", "swap[A;B]", "swap[A,B;C]",
    "f", "g", "f ; g", "f * g", "f ; g ; f", "f * g * f",
    "(f ; g) * f", "f ; (g * g)", "dom(f)", "mass(f)", "dom(f) ; f",
    "dom(f ; g)", "mass(f ; g)", "dom(mass(f))", "copy[A] ; (id[A] * del[A])",
    "copy[A] ; (del[A] * id[A])", "copy[A] ; swap[A;A]",
    "copy[A] ; (copy[A] * id[A])", "copy[A] ; (id[A] * copy[A])",
    "copy[A,B]", "del[A,B]", "copy[A,B] ; (id[A,B] * del[A,B])",
    "(copy[A] * copy[B]) ; (id[A] * swap[A;B] * id[B])",
    "swap[A;B] ; swap[B;A]", "id[A] * id[B]", "id[A,B]",
    "f ; copy[B]", "copy[A] ; (f * f)", "f ; del[B]", "del[A]",
    "dom(f) ; dom(f)", "mass(dom(f))", "(f * g) ; swap[B;A]",
    "copy[A] ; (f * id[A])", "copy[A] ; (id[A] * f)",
    "f ; g ; f ; g", "((f ; g) * (f ; g))", "dom(f ; g ; f)",
    "copy[A] ; (mass(f) * id[A])", "del[] ", "copy[]", "id[] * id[]",
    "swap[;A]", "swap[A;]", "f * id[]", "dom(id[A])", "mass(id[A])",
]


def test_c10_dsl_round_trip_axioms_and_cmd_eq(tmp_path):
    assert len(CORPUS) >= 50
    rt_ok = all(parse_term(print_term(parse_term(s))) == parse_term(s) for s in CORPUS)

    axiom_ok = True
    n_interp = 0
    for name in CATALOG:
        sr = load_semiring(name)
        for seed in range(20):
            A, B = (FinSet("A", 2),), (FinSet("B", 2),)
            doc = {
                "semiring": name,
                "sorts": {"A": 2, "B": 2},
                "generators": {
                    "f": {
                        "dom": ["A"], "cod": ["B"],
                        "entries": wrel_to_doc(
                            sr, sample_arrows(sr, A, B, "M", seed=seed, n=1, tag="c10")[0]
                        )["entries"],
                    }
                },
            }
            interp = load_interpretation(doc)
            n_interp += 1
            for law, lhs, rhs in gsm_axiom_pairs("A", "B"):
                rep = check_term_equality(parse_term(lhs), parse_term(rhs), interp, law=law)
                axiom_ok = axiom_ok and rep.passed

    d = tmp_path
    (d / "lhs.gsd").write_text("dom(f) ; f\n")
    (d / "rhs.gsd").write_text("f\n")
    for sname, w in (("bool", "1"), ("nat", "2")):
        (d / f"i_{sname}.json").write_text(json.dumps({
            "semiring": sname,
            "sorts": {"A": 2, "B": 2},
            "generators": {"f": {"dom": ["A"], "cod": ["B"], "entries": [[["0"], ["0"], w]]}},
        }))
    eq_bool = cli_main(["eq", str(d / "lhs.gsd"), str(d / "rhs.gsd"), str(d / "i_bool.json")])
    eq_nat = cli_main(["eq", str(d / "lhs.gsd"), str(d / "rhs.gsd"), str(d / "i_nat.json")])
    verdict(
        10, "term corpus round-trips; structural axioms hold; eq exit codes",
        rt_ok and axiom_ok and eq_bool == 0 and eq_nat == 1,
        f"{len(CORPUS)} terms, {n_interp} interpretations, eq: bool={eq_bool} nat={eq_nat}",
    )


# md5 of the seed-11 catalog report; the benchmark pins the same bytes.
SEED11_MD5 = "1df2397b5529791a6fcc2f63fbbca252"


def test_c11_taxonomy_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        code = cli_main(["taxonomy", "--seed", "11", "--format", "structured", "--out", str(out)])
        assert code == 0
    identical = a.read_bytes() == b.read_bytes()
    digest = hashlib.md5(a.read_bytes()).hexdigest()
    verdict(
        11, "byte-identical structured taxonomy reports at the pinned digest",
        identical and digest == SEED11_MD5, f"{a.stat().st_size} bytes each, md5 {digest}",
    )
