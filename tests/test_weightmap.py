"""Weight maps: canonical form, monad operations, sub-family membership."""
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gsrel import (
    FinSet,
    WeightMap,
    WeightMapError,
    derive_rng,
    enumerate_maps,
    in_variant,
    load_semiring,
    sample_maps,
    wm_antipode,
    wm_empty,
    wm_eta,
    wm_make,
    wm_mu,
    wm_psi,
    wm_psi0,
    wm_pushforward,
    wm_total,
    word_elements,
    word_size,
)
from gsrel.semiring import CATALOG, mul_inverse
from gsrel.report import DEFAULT_BUDGET
from gsrel.taxonomy import _Pool, _Run
from gsrel.weightmap import _enumerable, _first_members, _sample_stream, _word_tag

BOOL = load_semiring("bool")
NAT = load_semiring("nat")
QPLUS = load_semiring("q+")
GF2 = load_semiring("gf(2)")
FMM = load_semiring("fuzzy-max-min")

X2 = (FinSet("X", 2),)
VARIANTS = ("M", "Mr", "Ma", "Mm", "Md", "Mi")


def all_bool_maps(word):
    keys = list(word_elements(word))
    out = []
    for n in range(len(keys) + 1):
        for sup in itertools.combinations(keys, n):
            out.append(wm_make(BOOL, {k: 1 for k in sup}))
    return out


def test_canonical_form_drops_zeros_and_sorts():
    h = wm_make(NAT, [((1,), 0), ((0,), 3)])
    assert h.entries == (((0,), 3),)
    g = wm_make(NAT, {(0,): 3, (1,): 0})
    assert h == g
    assert hash(h) == hash(g)


def test_duplicate_keys_rejected():
    with pytest.raises(WeightMapError):
        wm_make(NAT, [((0,), 1), ((0,), 2)])


def test_duplicate_keys_rejected_when_one_value_is_zero():
    for pairs in ([((0,), 0), ((0,), 3)], [((0,), 3), ((0,), 0)]):
        with pytest.raises(WeightMapError, match="duplicate key"):
            wm_make(NAT, pairs)


def test_map_keeps_no_link_to_the_callers_dict():
    d = {(0,): 3, (1,): 0, (2,): 5}
    original = dict(d)
    h = wm_make(NAT, d)
    d[(0,)] = 7
    d[(1,)] = 2
    del d[(2,)]
    assert h == wm_make(NAT, original)
    assert [h.value(NAT, (i,)) for i in range(3)] == [3, 0, 5]


def test_immutable():
    h = wm_eta(BOOL, (0,))
    with pytest.raises(AttributeError):
        h.entries = ()


def test_hash_is_the_hash_of_the_entries():
    h = wm_make(QPLUS, {(0,): Fraction(1, 2), (1,): Fraction(3)})
    assert hash(h) == hash(h.entries)
    assert hash(h) == hash(h)
    nested = wm_make(NAT, {h: 2, wm_empty(QPLUS): 1})
    assert hash(nested) == hash(nested.entries)


def test_equal_maps_from_different_paths_hash_equal_and_dedupe():
    two = (FinSet("A", 2),)
    paths = [
        wm_make(NAT, {(0,): 2, (1,): 3}),
        wm_make(NAT, [((1,), 3), ((0,), 2), ((2,), 0)]),
        wm_pushforward(NAT, lambda k: (k[0] % 2,), wm_make(NAT, {(0,): 1, (2,): 1, (1,): 3})),
        wm_psi(NAT, wm_make(NAT, {(0,): 2, (1,): 3}), wm_psi0(NAT)),
        wm_mu(NAT, wm_make(NAT, {wm_make(NAT, {(0,): 1}): 2, wm_eta(NAT, (1,)): 3})),
    ]
    assert all(h == paths[0] for h in paths)
    assert len({hash(h) for h in paths}) == 1
    assert len(set(paths)) == 1
    assert len({wm_make(NAT, {k: 1}) for k in word_elements(two)} | {wm_eta(NAT, (0,))}) == 2


def test_hashing_leaves_the_map_immutable():
    h = wm_make(NAT, {(0,): 2})
    for attr, value in (("entries", ()), ("_hash", 0), ("_index", {})):
        with pytest.raises(AttributeError):
            setattr(h, attr, value)
    first = hash(h)
    with pytest.raises(AttributeError):
        h._hash = first + 1
    assert hash(h) == first == hash(h.entries)
    assert h.entries == (((0,), 2),) and h.value(NAT, (0,)) == 2


def test_value_defaults_to_zero():
    h = wm_eta(NAT, (0,))
    assert h.value(NAT, (1,)) == 0
    assert h.value(NAT, (0,)) == 1


def test_word_basics():
    assert word_size(()) == 1
    assert list(word_elements(())) == [()]
    assert word_size(X2 + X2) == 4
    with pytest.raises(WeightMapError):
        FinSet("bad", -1)
    with pytest.raises(WeightMapError):
        FinSet("bad", 2, ("a",))
    with pytest.raises(WeightMapError):
        FinSet("bad", 2, ("a", "a"))


def test_label_of_refuses_an_index_out_of_range():
    labelled = FinSet("A", 2, ("a", "b"))
    assert [labelled.label_of(i) for i in range(2)] == ["a", "b"]
    for s in (labelled, FinSet("B", 2)):
        for i in (-1, 2):
            with pytest.raises(WeightMapError, match=f"^{s.name}: index {i} out of range$"):
                s.label_of(i)


def test_a_map_does_not_order_against_other_objects():
    h = wm_eta(NAT, (0,))
    assert h.__lt__((0,)) is NotImplemented
    with pytest.raises(TypeError):
        h < 1


def test_mu_refuses_an_outer_key_that_is_not_a_map():
    with pytest.raises(WeightMapError, match="^wm_mu: outer keys must be WeightMaps$"):
        wm_mu(NAT, wm_make(NAT, {(0,): 1}))


@pytest.mark.parametrize("name", ["nat", "nonneg-rational", "fuzzy-max-min"])
def test_enumerate_maps_refuses_an_infinite_carrier(name):
    with pytest.raises(WeightMapError, match="carrier is not enumerable; use sample_maps$"):
        enumerate_maps(load_semiring(name), X2)


# monad operations, brute-forced on small carriers


def test_eta_then_mu_is_identity_bool_exhaustive():
    for h in all_bool_maps(X2):
        # mu(eta(h)) == h, with eta at the outer level
        assert wm_mu(BOOL, wm_make(BOOL, [(h, BOOL.one)])) == h


def test_mu_after_mapped_eta_is_identity():
    for sr, vals in ((BOOL, (1,)), (NAT, (1, 2, 3)), (QPLUS, (Fraction(1, 2), Fraction(2),))):
        for v in vals:
            h = wm_make(sr, {(0,): v, (1,): sr.one})
            H = wm_make(sr, [(wm_eta(sr, k), w) for k, w in h.entries])
            assert wm_mu(sr, H) == h


def test_mu_associativity_bool_small_support():
    inner = all_bool_maps(X2)
    level2 = [wm_make(BOOL, {h: 1 for h in sup})
              for n in range(3)
              for sup in itertools.combinations(inner, n)]
    for n in range(3):
        for sup in itertools.combinations(level2, n):
            T = wm_make(BOOL, {H: 1 for H in sup})
            left = wm_mu(BOOL, wm_mu(BOOL, T))
            flattened = {}
            for H, w in T.entries:
                m = wm_mu(BOOL, H)
                flattened[m] = BOOL.add(flattened.get(m, BOOL.zero), w)
            right = wm_mu(BOOL, wm_make(BOOL, flattened))
            assert left == right


def test_mu_associativity_nat_sampled():
    rng = derive_rng(5, "mu-assoc")
    keys = list(word_elements(X2))
    for _ in range(200):
        def rand_map():
            return wm_make(NAT, {k: rng.randrange(0, 3) for k in keys})
        def rand_nested():
            return wm_make(NAT, {rand_map(): rng.randrange(0, 3) for _ in range(rng.randrange(3))})
        T = wm_make(NAT, {rand_nested(): rng.randrange(0, 3) for _ in range(rng.randrange(3))})
        left = wm_mu(NAT, wm_mu(NAT, T))
        flattened = {}
        for H, w in T.entries:
            m = wm_mu(NAT, H)
            flattened[m] = NAT.add(flattened.get(m, NAT.zero), w)
        right = wm_mu(NAT, wm_make(NAT, flattened))
        assert left == right


def test_mu_weights_multiply_along_the_outer_layer():
    # mu over nat must scale inner weights by the outer one, then add collisions
    h1 = wm_make(NAT, {(0,): 1})
    h2 = wm_make(NAT, {(0,): 2})
    H = wm_make(NAT, {h1: 3, h2: 5})
    assert wm_mu(NAT, H) == wm_make(NAT, {(0,): 3 * 1 + 5 * 2})


def test_psi_on_points_is_eta_of_pair():
    for x in word_elements(X2):
        for y in word_elements(X2):
            assert wm_psi(BOOL, wm_eta(BOOL, x), wm_eta(BOOL, y)) == wm_eta(BOOL, x + y)


def test_psi_total_is_product_of_totals():
    rng = derive_rng(9, "psi-total")
    keys = list(word_elements(X2))
    for _ in range(100):
        h = wm_make(NAT, {k: rng.randrange(0, 4) for k in keys})
        k = wm_make(NAT, {kk: rng.randrange(0, 4) for kk in keys})
        assert wm_total(NAT, wm_psi(NAT, h, k)) == NAT.mul(wm_total(NAT, h), wm_total(NAT, k))


def test_psi0_is_unit_scalar():
    assert wm_psi0(BOOL) == wm_eta(BOOL, ())
    assert wm_psi(BOOL, wm_psi0(BOOL), wm_psi0(BOOL)) == wm_psi0(BOOL)


def test_pushforward_sums_over_fibers():
    h = wm_make(NAT, {(0,): 2, (1,): 3})
    g = wm_pushforward(NAT, lambda k: (0,), h)
    assert g == wm_make(NAT, {(0,): 5})


# The trusted path: over a positive carrier, wm_psi, wm_mu and
# wm_pushforward skip the zero test.  A copy with positive=False runs the
# test, so both must give the same entries, values compared by repr.

POSITIVE = [sr for sr in map(load_semiring, CATALOG) if sr.positive]


def _exact(h):
    return [(k, repr(v)) for k, v in h.entries]


@st.composite
def _positive_cases(draw):
    """(sr, h, k, H, f): maps h and k over up to four flat keys, a nested
    map H of up to three such maps, and f from those keys onto at most two,
    so that pushforward sums; values are nonzero sample values."""
    rng = draw(st.randoms(use_true_random=False))
    sr = rng.choice(POSITIVE)
    values = [v for v in sr.sample_elements(rng) if v != sr.zero] + [sr.one]

    def some_map():
        return wm_make(sr, {(i,): rng.choice(values) for i in range(4) if rng.random() < 0.6})

    H = wm_make(sr, {some_map(): rng.choice(values) for _ in range(rng.randint(0, 3))})
    image = {(i,): (rng.randrange(2),) for i in range(4)}
    return sr, some_map(), some_map(), H, image.__getitem__


@given(_positive_cases())
@settings(max_examples=300, deadline=None)
def test_trusted_monad_operations_give_the_checked_result(case):
    sr, h, k, H, f = case
    checked = dataclasses.replace(sr, positive=False)
    for op, args in ((wm_psi, (h, k)), (wm_psi, (k, h)), (wm_mu, (H,)), (wm_pushforward, (f, h))):
        assert _exact(op(sr, *args)) == _exact(op(checked, *args))


def test_gf2_operations_still_drop_a_sum_of_two_ones():
    one = GF2.one
    h = wm_make(GF2, {(0,): one, (1,): one, (2,): one})
    # (0,) and (1,) meet at (0,), where 1 + 1 = 0
    assert wm_pushforward(GF2, lambda k: (k[0] // 2,), h).entries == (((1,), one),)
    assert wm_pushforward(GF2, lambda k: (), wm_make(GF2, {(0,): one, (1,): one})) == wm_empty(GF2)
    # both inner maps put 1 at (0,)
    H = wm_make(GF2, {wm_eta(GF2, (0,)): one, wm_make(GF2, {(0,): one, (1,): one}): one})
    assert wm_mu(GF2, H).entries == (((1,), one),)


def test_total_of_empty_is_zero():
    assert wm_total(NAT, wm_empty(NAT)) == 0
    assert wm_total(BOOL, wm_empty(BOOL)) == BOOL.zero


# sub-family membership


def _memberships(sr, h):
    """Membership of h in Mr, Ma, Mm, Md and Mi, in that order."""
    return tuple(in_variant(sr, h, v) for v in ("Mr", "Ma", "Mm", "Md", "Mi"))


def test_classify_known_maps():
    assert _memberships(BOOL, wm_empty(BOOL)) == (True, False, True, True, False)

    for sr in (BOOL, NAT, QPLUS, GF2, FMM):
        assert _memberships(sr, wm_eta(sr, (0,))) == (True, True, True, True, True)

    assert _memberships(NAT, wm_make(NAT, {(0,): 2})) == (False, False, False, False, False)

    half = Fraction(1, 2)
    h = wm_make(QPLUS, {(0,): half, (1,): half})
    assert _memberships(QPLUS, h) == (False, True, True, True, True)

    assert _memberships(FMM, wm_make(FMM, {(0,): half})) == (True, False, True, True, False)


Z3_TABLE = {
    "name": "z3-table",
    "elements": ["0", "1", "2"],
    "zero": "0",
    "one": "1",
    "plus": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]],
    "times": [["0", "0", "0"], ["0", "1", "2"], ["0", "2", "1"]],
}


def test_member_and_in_variant_agree():
    carriers = [BOOL, NAT, GF2, QPLUS, FMM, load_semiring("fuzzy-max-times")]
    carriers.append(load_semiring(Z3_TABLE))
    for sr in carriers:
        flat = sample_maps(sr, X2, "M", seed=3, n=40)
        run = _Run(["M"], sr, (2,), DEFAULT_BUDGET, 3, 40)
        nested = run.nested("M", _Pool(flat, False), 40, "agree")
        assert nested and all(isinstance(g, WeightMap) for H in nested for g in H.support)
        for h in flat + nested:
            assert in_variant(sr, h, "M")
            assert all(isinstance(in_variant(sr, h, v), bool) for v in VARIANTS)
            with pytest.raises(WeightMapError):
                in_variant(sr, h, "Mx")


def test_enumerate_counts_bool_and_gf2():
    # hand-derived: maps X2 -> carrier with zero weights dropped
    counts_bool = {v: len(enumerate_maps(BOOL, X2, v)) for v in VARIANTS}
    assert counts_bool == {"M": 4, "Mr": 3, "Ma": 3, "Mm": 4, "Md": 4, "Mi": 3}
    counts_gf2 = {v: len(enumerate_maps(GF2, X2, v)) for v in VARIANTS}
    assert counts_gf2 == {"M": 4, "Mr": 3, "Ma": 2, "Mm": 4, "Md": 3, "Mi": 3}


def test_enumerate_matches_classify():
    for sr in (BOOL, GF2):
        all_maps = enumerate_maps(sr, X2, "M")
        for variant in VARIANTS[1:]:
            expected = {h for h in all_maps if in_variant(sr, h, variant)}
            assert set(enumerate_maps(sr, X2, variant)) == expected


def test_variant_inclusions_sampled():
    # Mr inside Mm; Ma inside Md inside Mm
    for name in ("bool", "nat", "q+", "fuzzy-max-min", "fuzzy-max-times", "gf(2)"):
        sr = load_semiring(name)
        for h in sample_maps(sr, X2, "M", seed=11, n=60):
            if in_variant(sr, h, "Mr"):
                assert in_variant(sr, h, "Mm")
            if in_variant(sr, h, "Ma"):
                assert in_variant(sr, h, "Md")
            if in_variant(sr, h, "Md"):
                assert in_variant(sr, h, "Mm")


def test_sample_maps_respects_variant():
    for variant in VARIANTS:
        for h in sample_maps(NAT, X2, variant, seed=2, n=30):
            assert in_variant(NAT, h, variant)


def test_antipode():
    s = wm_make(QPLUS, {(): Fraction(2, 3)})
    assert wm_antipode(QPLUS, s) == wm_make(QPLUS, {(): Fraction(3, 2)})
    with pytest.raises(WeightMapError):
        wm_antipode(NAT, wm_make(NAT, {(): 2}))
    with pytest.raises(WeightMapError):
        wm_antipode(QPLUS, wm_empty(QPLUS))
    with pytest.raises(WeightMapError):
        wm_antipode(QPLUS, wm_make(QPLUS, {(0,): Fraction(1)}))


def test_derive_rng_is_stable_and_tag_sensitive():
    a = [derive_rng(0, "x").random() for _ in range(3)]
    b = [derive_rng(0, "x").random() for _ in range(3)]
    assert a == b
    assert derive_rng(0, "x").random() != derive_rng(0, "y").random()
    assert derive_rng(0, "x").random() != derive_rng(1, "x").random()


@st.composite
def nat_weight_items(draw):
    keys = list(word_elements(X2))
    return [(k, draw(st.integers(min_value=0, max_value=5))) for k in keys]


@given(nat_weight_items())
@settings(max_examples=60)
def test_canonicalization_is_order_insensitive(items):
    h = wm_make(NAT, items)
    g = wm_make(NAT, list(reversed(items)))
    assert h == g
    assert all(v != 0 for _, v in h.entries)


def _sort_token(key):
    """Reference order: a total order token across the key kinds of a space."""
    if isinstance(key, WeightMap):
        return (2, tuple((_sort_token(k), repr(v)) for k, v in key.entries))
    if isinstance(key, tuple):
        return (1, tuple(_sort_token(k) for k in key))
    if isinstance(key, int):
        return (0, key)
    return (0, repr(key))


def _token_sorted(sr, items):
    kept = [(k, v) for k, v in items.items() if v != sr.zero]
    return tuple(sorted(kept, key=lambda kv: _sort_token(kv[0])))


flat_int_keys = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(tuple)


@given(st.dictionaries(flat_int_keys, st.integers(min_value=0, max_value=4), max_size=12))
@settings(max_examples=200)
def test_flat_int_keys_sort_in_token_order(items):
    assert WeightMap(NAT, items).entries == _token_sorted(NAT, items)
    assert WeightMap(NAT, list(items.items())).entries == _token_sorted(NAT, items)


def test_nested_mixed_and_bool_keys_keep_token_order():
    g0, g1 = wm_eta(NAT, (1,)), wm_make(NAT, {(0,): 2, (1,): 1})
    nested = {g1: 1, wm_empty(NAT): 3, g0: 2}
    H = WeightMap(NAT, nested)
    assert H.entries == _token_sorted(NAT, nested)
    assert H.support == (wm_empty(NAT), g1, g0)
    # wm_psi of a nested map joins WeightMap and int key parts
    mixed = wm_psi(NAT, H, wm_make(NAT, {(1,): 1, (0,): 2}))
    assert mixed.entries == _token_sorted(NAT, dict(mixed.entries))
    assert [k[1] for k in mixed.support[:2]] == [0, 1]
    # an int key among tuples is outside the key contract
    with pytest.raises(WeightMapError, match="keys of different kinds"):
        WeightMap(NAT, {(0,): 1, 5: 2})
    flags = {(True, 0): 1, (0, 1): 2, (False, 0): 3}
    assert WeightMap(NAT, flags).entries == _token_sorted(NAT, flags)
    assert WeightMap(NAT, flags).support == ((False, 0), (0, 1), (True, 0))


# 1/2 sorts before 1/3 by repr but after it by value
Q_VALUES = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 10), Fraction(3)])
q_maps = st.dictionaries(st.sampled_from(list(word_elements(X2))), Q_VALUES, max_size=2).map(
    lambda d: wm_make(QPLUS, d)
)
HALF, THIRD = wm_make(QPLUS, {(0,): Fraction(1, 2)}), wm_make(QPLUS, {(0,): Fraction(1, 3)})


@given(st.dictionaries(q_maps, Q_VALUES, max_size=5))
@example({THIRD: Fraction(1, 2), HALF: Fraction(1, 3)})
@settings(max_examples=100)
def test_nested_rational_maps_sort_by_value_repr(nested):
    H = WeightMap(QPLUS, nested)
    assert H.entries == _token_sorted(QPLUS, nested)
    mixed = wm_psi(QPLUS, H, wm_make(QPLUS, {(1,): Fraction(1, 3), (0,): Fraction(1, 2)}))
    assert mixed.entries == _token_sorted(QPLUS, dict(mixed.entries))


def test_first_members_pulls_nothing_after_the_nth():
    a, b = wm_eta(NAT, (0,)), wm_eta(NAT, (1,))

    def stream():
        yield a
        yield b
        raise AssertionError("pulled past the n-th member")

    assert _first_members(NAT, stream(), "Ma", 2) == [a, b]
    assert _first_members(NAT, stream(), "Ma", 0) == []


def test_first_members_skips_duplicates_and_non_members_in_stream_order():
    a, b, c = wm_eta(NAT, (0,)), wm_eta(NAT, (1,)), wm_make(NAT, {(0,): 1, (1,): 1})
    two = wm_make(NAT, {(0,): 2})
    stream = [two, b, two, b, c, a, b, c]
    assert _first_members(NAT, iter(stream), "Ma", 2) == [b, a]
    assert _first_members(NAT, iter(stream), "Ma", 5) == [b, a]
    assert _first_members(NAT, iter(stream), "M", 5) == [two, b, c, a]


def _reference_stream(sr, keys: list, rng, n: int):
    """The candidate stream of sample_maps as it was before repeated draws
    were skipped: every draw builds and yields its three maps."""
    values = [v for v in sr.sample_elements(rng) if v != sr.zero]
    two = sr.add(sr.one, sr.one)
    yield wm_empty(sr)
    if not keys:
        return
    yield wm_eta(sr, keys[0])
    yield WeightMap(sr, {keys[0]: two})
    for k in keys[1:]:
        yield wm_eta(sr, k)
    yield WeightMap(sr, {k: sr.one for k in keys})
    for v in values[:4]:
        yield WeightMap(sr, {keys[0]: v})
    if not values:
        return
    for _ in range(6 * n):
        support = [k for k in keys if rng.random() < 0.6] or [rng.choice(keys)]
        picked = {k: rng.choice(values) for k in support}
        h = WeightMap(sr, picked)
        yield h
        # Rescale by the inverse of the total when one exists, to land on
        # normalized members; otherwise force the first value to one.
        t = wm_total(sr, h)
        inv = mul_inverse(sr, t) if t != sr.zero else None
        if inv is not None:
            yield WeightMap(sr, {k: sr.mul(v, inv) for k, v in picked.items()})
        forced = dict(picked)
        forced[support[0]] = sr.one
        yield WeightMap(sr, forced)


def _reference_sample(sr, word, variant, seed, n):
    keys = list(word_elements(word))
    rng = derive_rng(seed, "sample-maps", sr.name, variant, "maps", _word_tag(word), n)
    return _first_members(sr, _reference_stream(sr, keys, rng, n), variant, n)


# 1 to 4 keys, and 16 keys, where bool and gf(2) are sampled too
SAMPLED_WORDS = (
    (FinSet("A", 1),),
    (FinSet("B", 2),),
    (FinSet("C", 3),),
    (FinSet("A", 2), FinSet("B", 2)),
    (FinSet("D", 4), FinSet("E", 4)),
)


@pytest.mark.parametrize("name", CATALOG)
def test_sample_maps_match_the_reference_stream(name):
    sr = load_semiring(name)
    for word, variant, seed, n in itertools.product(SAMPLED_WORDS, VARIANTS, (1, 11), (1, 5, 24)):
        if _enumerable(sr, word_size(word)):
            continue  # enumerated; the stream is not reached
        assert sample_maps(sr, word, variant, seed, n) == _reference_sample(
            sr, word, variant, seed, n
        ), (word, variant, seed, n)


def test_sample_maps_builds_no_map_for_a_repeated_draw(monkeypatch):
    # Ma over two keys repeats most of its random draws at seed 11: every
    # draw building three maps took 305 constructions, skipping repeats 133
    word = (FinSet("B", 2),)
    expected = _reference_sample(NAT, word, "Ma", 11, 24)
    built = []
    init = WeightMap.__init__

    def counted(self, sr, items):
        built.append(1)
        init(self, sr, items)

    monkeypatch.setattr(WeightMap, "__init__", counted)
    pool = sample_maps(NAT, word, "Ma", seed=11, n=24)
    assert len(built) < 200
    assert pool == expected


def test_sample_stream_ends_once_every_draw_is_made():
    # one key and m nonzero values allow m distinct draws; the stream ends
    # after the last of them, not after 6 * n iterations of its loop, each
    # of which calls random() once
    class Counting(random.Random):
        calls = 0

        def random(self):
            self.calls += 1
            return super().random()

        # choice() keeps drawing through getrandbits, not through random()
        def getrandbits(self, k):
            return super().getrandbits(k)

    keys, n = [(0,)], 200
    rng, reference_rng = Counting(5), Counting(5)
    stream = list(_sample_stream(NAT, keys, rng, n))
    reference = list(_reference_stream(NAT, keys, reference_rng, n))
    assert list(dict.fromkeys(stream)) == list(dict.fromkeys(reference))
    assert reference_rng.calls == 6 * n
    assert rng.calls < n
